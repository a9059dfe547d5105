//! The ingress event loop: readiness-driven, one thread per shard
//! (DESIGN.md §12).
//!
//! A shard blocks in the kernel ([`tlc_net::readiness::Readiness`]:
//! epoll on Linux, poll(2) elsewhere) and touches only sockets with
//! something to say, so a mostly-idle C100K table costs near zero
//! between bursts.
//!
//! * **Shards.** With `SO_REUSEPORT` available, `config.shards`
//!   acceptor/event threads each bind the same address and the kernel
//!   spreads incoming connections across them. Each shard owns its
//!   [`IngressCore`] — its slice of the connection table, its DRR
//!   lanes, its shed ladder, and its own [`VerifierService`] pool — so
//!   there is no cross-shard locking at all. A connection lives and
//!   dies on the shard that accepted it, which is what makes
//!   shard-local relationship ids and misbehavior scores sound.
//! * **Pooled zero-copy reads.** Socket bytes land in buffers checked
//!   out of a bounded [`BufferPool`]; complete frames are parsed in
//!   place with [`split_frame`] and handed to the protocol core as
//!   borrowed views — no per-frame allocation, no copy between the
//!   read buffer and the decoder. When the pool is empty the shard
//!   *defers* the read (masks read interest, counts
//!   [`tlc_net::PoolStats::exhausted`]) instead of allocating
//!   unboundedly; level-triggered readiness re-reports the socket once
//!   a buffer frees up.
//! * **Interest masking as backpressure.** A paused connection (window
//!   full, quarantined, ladder-wide defer) has its read interest
//!   masked, so it costs zero wakeups until it resumes.
//! * **Wake-driven verdicts.** Verdicts come from the service's worker
//!   threads, not from a socket, so the shard registers a
//!   [`tlc_net::readiness::Waker`] and installs it as its service's
//!   notifier: a flushed batch makes `wait` return, and the verdict
//!   queue is read then and only then — there is no timed poll for it.
//!   The other half of the same design is the *idle kick*: when the
//!   loop has relayed submissions and a zero-timeout probe shows no
//!   more input waiting, it tells the service its submitter went idle
//!   ([`VerifierService::kick`]) before it blocks, so a light-load
//!   verdict costs a verify and a few thread hops, not a batch timer.
//!   A session that submits nothing (SETTLE) pays for neither.
//!
//! Everything protocol-visible — BUSY semantics, the shed ladder,
//! quarantine scoring, verdict routing — is [`IngressCore`]'s; this
//! file only moves bytes and interest.

use super::{
    IngressConfig, IngressCore, IngressReport, IngressServer, IngressStats, Phase, ShedLevel,
};
use crate::verify::service::{ServiceConfig, ServiceReport, VerifierService};
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tlc_net::bufpool::BufferPool;
use tlc_net::readiness::{raw_fd, Event, Interest, Readiness, Token, Waker};
use tlc_net::wire::{split_frame, HEADER_LEN};

/// Runs every shard of `server` until `stop`: the first on this
/// thread, the rest on scoped threads of their own.
pub(super) fn run(server: IngressServer, stop: &AtomicBool) -> IngressReport {
    let mut shards = server.shards.into_iter();
    let first = shards.next();
    let mut parts = Vec::new();
    let mut join_panics = 0;
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .map(|shard| s.spawn(move || shard.run(stop)))
            .collect();
        parts.extend(first.map(|shard| shard.run(stop)));
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(_) => join_panics += 1,
            }
        }
    });
    merge_reports(parts, join_panics)
}

/// Merges per-shard reports: ingress counters and pool counters sum;
/// service shard lists concatenate with re-numbered shard ids;
/// throughput is recomputed over the longest shard's elapsed time.
fn merge_reports(parts: Vec<IngressReport>, join_panics: usize) -> IngressReport {
    let mut service = ServiceReport {
        shards: Vec::new(),
        accepted: 0,
        rejected: 0,
        replayed: 0,
        batches: 0,
        deadline_flushes: 0,
        idle_flushes: 0,
        kicks: 0,
        worker_panics: join_panics,
        unclaimed_results: 0,
        elapsed: Duration::ZERO,
        pocs_per_hour: 0.0,
    };
    let mut ingress = IngressStats::default();
    let mut pool = tlc_net::PoolStats::default();
    let mut waker_wakeups = 0;
    for part in parts {
        let IngressReport {
            service: sr,
            ingress: ig,
            pool: ps,
            waker_wakeups: woken,
        } = part;
        waker_wakeups += woken;
        let base = service.shards.len();
        for mut sh in sr.shards {
            sh.shard += base;
            service.shards.push(sh);
        }
        service.accepted += sr.accepted;
        service.rejected += sr.rejected;
        service.replayed += sr.replayed;
        service.batches += sr.batches;
        service.deadline_flushes += sr.deadline_flushes;
        service.idle_flushes += sr.idle_flushes;
        service.kicks += sr.kicks;
        service.worker_panics += sr.worker_panics;
        service.unclaimed_results += sr.unclaimed_results;
        service.elapsed = service.elapsed.max(sr.elapsed);
        sum_stats(&mut ingress, &ig);
        pool.checkouts += ps.checkouts;
        pool.exhausted += ps.exhausted;
        pool.recycles += ps.recycles;
    }
    let processed = service.accepted + service.rejected;
    let secs = service.elapsed.as_secs_f64();
    service.pocs_per_hour = if secs > 0.0 {
        processed as f64 / secs * 3600.0
    } else {
        0.0
    };
    IngressReport {
        service,
        ingress,
        pool,
        waker_wakeups,
    }
}

/// Sums every counter of the frozen 16-field stats snapshot. The two
/// gauges (`open_connections`, `service_outstanding`) are zero in
/// per-shard final reports, so summing is correct for them too.
fn sum_stats(acc: &mut IngressStats, s: &IngressStats) {
    acc.connections += s.connections;
    acc.connections_closed += s.connections_closed;
    acc.open_connections += s.open_connections;
    acc.registers += s.registers;
    acc.submissions += s.submissions;
    acc.verdicts += s.verdicts;
    acc.accepted += s.accepted;
    acc.rejected_malformed += s.rejected_malformed;
    acc.orphaned_verdicts += s.orphaned_verdicts;
    acc.protocol_errors += s.protocol_errors;
    acc.pauses += s.pauses;
    acc.service_outstanding += s.service_outstanding;
    acc.shed_overload += s.shed_overload;
    acc.shed_connections += s.shed_connections;
    acc.quarantines += s.quarantines;
    acc.misbehavior_closes += s.misbehavior_closes;
}

/// Socket reads per connection per wakeup. Bounds how long one
/// chatty peer can hold the loop; level-triggered readiness
/// re-reports whatever is left.
const READS_PER_WAKEUP: usize = 4;

/// Longest the loop sleeps with nothing to do: the only thing left
/// that the kernel cannot wake it for is the `stop` flag.
const STOP_CHECK_MS: i32 = 10;

/// Wait bound while any connection is quarantined. Sentences are
/// counted in loop iterations (`quarantine_polls`), so bounding the
/// wait whenever one is running bounds every sentence's wall-clock
/// length at `quarantine_polls` milliseconds.
const QUARANTINE_TICK_MS: i32 = 1;

/// Pause after a failed `wait`: a broken registry would otherwise spin.
const BROKEN_REGISTRY_BACKOFF: Duration = Duration::from_micros(200);

/// One shard: a listener, a readiness registry, a buffer pool, and a
/// private [`IngressCore`].
pub(super) struct Shard {
    core: IngressCore,
    pub(super) listener: TcpListener,
    ready: Readiness,
    /// Fired by the service's signature workers per flushed batch.
    waker: Waker,
    wakeups: u64,
    pool: BufferPool,
    /// Ids of connections whose read was deferred because the pool
    /// was empty; re-armed as buffers return.
    deferred: Vec<u64>,
    /// Last observed global-defer verdict; a transition triggers a
    /// full interest sweep.
    prev_global: bool,
}

impl Shard {
    /// Builds the registry first — the only step that can fail — so a
    /// failure leaves no service threads behind.
    pub(super) fn new(
        listener: TcpListener,
        service_config: ServiceConfig,
        config: IngressConfig,
        open: Arc<AtomicUsize>,
    ) -> io::Result<Shard> {
        let mut ready = Readiness::new()?;
        ready.register(raw_fd(&listener), Token::LISTENER, Interest::READ)?;
        let waker = Waker::new(&mut ready)?;
        let mut core = IngressCore::new(VerifierService::with_config(service_config), config, open);
        // Installed before the first accept, so every batch this
        // shard ever flushes announces itself.
        let handle = waker.handle();
        core.service.set_notifier(Arc::new(move || handle.wake()));
        // One max-size frame per buffer: a full buffer therefore
        // always contains a complete frame or an oversize error, so
        // parsing can never deadlock on "need more room".
        let buf_size = HEADER_LEN + config.max_payload as usize;
        let capacity = (config.max_conns / 4).clamp(64, 512);
        Ok(Shard {
            core,
            listener,
            ready,
            waker,
            wakeups: 0,
            pool: BufferPool::new(capacity, buf_size),
            deferred: Vec::new(),
            prev_global: false,
        })
    }

    /// The loop, until `stop`; returns the shard's final report.
    fn run(mut self, stop: &AtomicBool) -> IngressReport {
        let mut events: Vec<Event> = Vec::new();
        let mut touched: Vec<u64> = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            self.core.deal_credits();
            let timeout = if self.core.quarantined > 0 {
                QUARANTINE_TICK_MS
            } else {
                STOP_CHECK_MS
            };
            // About to block. If submissions were relayed since the
            // last kick, look once without blocking: more input
            // waiting means batches are still filling; none means the
            // submitters went idle, and the service is told so. A loop
            // that relayed nothing skips the probe.
            let probing = self.core.service.kick_due();
            let first = if probing { 0 } else { timeout };
            let mut waited = self.ready.wait(&mut events, first);
            if probing && matches!(waited, Ok(0)) {
                self.core.service.kick();
                waited = self.ready.wait(&mut events, timeout);
            }
            if waited.is_err() {
                std::thread::sleep(BROKEN_REGISTRY_BACKOFF);
                continue;
            }
            let mut woken = false;
            for ev in events.iter().copied() {
                match ev.token {
                    Token::LISTENER => self.accept_ready(),
                    Token::WAKER => woken = true,
                    _ => self.conn_event(ev),
                }
            }

            // Verdict completions, read only when the workers said so
            // (drain first: see `Waker::drain`). Refresh exactly the
            // connections that got frames queued or windows freed.
            if woken {
                self.wakeups += 1;
                self.waker.drain();
                self.core.pump_verdicts(&mut touched);
                self.refresh_all(&mut touched);
            }

            // Quarantine sentences tick per loop iteration; the wait
            // above is bounded while any is running.
            if self.core.quarantined > 0 {
                self.core.tick_quarantines(&mut touched);
                self.refresh_all(&mut touched);
            }

            // Ladder transitions pause/resume the whole table.
            let global = self.core.shed_level() >= ShedLevel::DeferReads;
            if global != self.prev_global {
                self.prev_global = global;
                self.sweep_all();
            }

            // Buffers came back: wake the starved readers.
            if !self.deferred.is_empty() && self.pool.available() > 0 {
                touched.append(&mut self.deferred);
                for &id in &touched {
                    if let Some(&i) = self.core.index.get(&id) {
                        self.core.conns[i].deferred = false;
                    }
                }
                self.refresh_all(&mut touched);
            }
        }
        // Buffers still held at shutdown are intentionally *not*
        // recycles: stats are taken before they drop.
        let pool_stats = self.pool.stats();
        self.core.into_report(pool_stats, self.wakeups)
    }

    /// Refreshes every connection in `ids`, leaving it empty.
    fn refresh_all(&mut self, ids: &mut Vec<u64>) {
        for id in ids.drain(..) {
            self.refresh_id(id);
        }
    }

    /// Drains the accept queue, watching every admitted socket.
    fn accept_ready(&mut self) {
        for id in self.core.accept_pending(&self.listener) {
            self.watch(id);
        }
    }

    /// Registers connection `id` for readable events under its id.
    fn watch(&mut self, id: u64) {
        let Some(&i) = self.core.index.get(&id) else {
            return;
        };
        let fd = raw_fd(self.core.conns[i].driver.stream());
        if self.ready.register(fd, Token(id), Interest::READ).is_ok() {
            self.core.conns[i].armed = Interest::READ;
        } else {
            // Unwatchable socket: close it now rather than carrying a
            // connection that can never wake us.
            self.core.conns[i].phase = Phase::Closed;
            self.remove_at(i);
        }
    }

    /// One readiness notification for a connection.
    fn conn_event(&mut self, ev: Event) {
        let id = ev.token.0;
        let Some(&i) = self.core.index.get(&id) else {
            // Reaped earlier in this same batch.
            return;
        };
        if ev.readable || ev.closed {
            self.read_conn(i);
        }
        // Writable (outbox draining), closed, or post-read state
        // changes all funnel through one refresh.
        self.refresh_id(id);
    }

    /// Reads and processes inbound bytes for connection `i`,
    /// zero-copy out of a pooled buffer.
    fn read_conn(&mut self, i: usize) {
        let conn = &mut self.core.conns[i];
        if conn.phase == Phase::Closed || conn.driver.paused() {
            return;
        }
        let Some(mut buf) = conn.buf.take().or_else(|| self.pool.checkout()) else {
            // Pool dry: defer — never allocate around the pool.
            // Level-triggered readiness re-reports the socket once we
            // re-arm.
            if !conn.deferred {
                conn.deferred = true;
                self.deferred.push(conn.id);
            }
            return;
        };
        for _ in 0..READS_PER_WAKEUP {
            match self.core.conns[i].driver.read_step(&mut buf) {
                Ok(0) => break,
                Ok(_) => {
                    if self.parse_frames(i, &mut buf) {
                        break;
                    }
                    if self.core.conns[i].driver.paused() {
                        break;
                    }
                }
                Err(_) => {
                    self.core.conns[i].phase = Phase::Closed;
                    break;
                }
            }
        }
        // An empty buffer drops here, back to the pool.
        if !buf.is_empty() {
            self.core.conns[i].buf = Some(buf);
        }
    }

    /// Parses every complete frame out of `buf` in place and hands
    /// each to the protocol core as a borrowed view. Returns true when
    /// the connection closed (fault or handler decision) and reading
    /// should stop.
    fn parse_frames(&mut self, i: usize, buf: &mut Vec<u8>) -> bool {
        let max = self.core.config.max_payload;
        let mut off = 0;
        let mut fault = false;
        while self.core.conns[i].phase != Phase::Closed {
            match split_frame(&buf[off..], max) {
                Ok(Some((view, used))) => {
                    self.core.handle_frame(i, view.kind, view.payload);
                    off += used;
                }
                Ok(None) => break,
                Err(_) => {
                    fault = true;
                    break;
                }
            }
        }
        buf.drain(..off);
        if fault {
            // The stream cannot be resynced: typed close, and the
            // poisoned bytes never touch another connection — the
            // buffer is cleared before recycling.
            self.core.protocol_fault(i, "framing violation");
            buf.clear();
        }
        fault || self.core.conns[i].phase == Phase::Closed
    }

    /// Re-derives connection `id`'s liveness, pause state, and kernel
    /// interest after anything changed: flushes the outbox, reaps if
    /// finished, otherwise updates pause bookkeeping and the
    /// registered interest (skipping no-op syscalls).
    fn refresh_id(&mut self, id: u64) {
        let Some(&i) = self.core.index.get(&id) else {
            return;
        };
        if self.core.conns[i].driver.flush().is_err() {
            self.core.conns[i].phase = Phase::Closed;
        }
        let at_eof = self.core.conns[i].driver.at_eof();
        let outbox = self.core.conns[i].driver.outbox_bytes();
        let closed = self.core.conns[i].phase == Phase::Closed;
        // Reap when closed with nothing left to drain (or a dead
        // socket), or on clean EOF with an empty outbox. A closed
        // connection stays while its farewell bytes are still
        // draining and the socket is healthy.
        if (closed && (outbox == 0 || at_eof)) || (at_eof && outbox == 0) {
            self.remove_at(i);
            return;
        }
        let want_pause = self.core.desired_pause(i, self.prev_global);
        let conn = &mut self.core.conns[i];
        if want_pause {
            if !conn.driver.paused() {
                self.core.stats.pauses += 1;
            }
            conn.driver.pause();
        } else if !closed {
            conn.driver.resume();
        }
        let interest = Interest {
            readable: !want_pause && !closed && !at_eof && !conn.deferred,
            writable: outbox > 0,
        };
        if conn.armed != interest {
            let fd = raw_fd(conn.driver.stream());
            if self.ready.modify(fd, Token(id), interest).is_ok() {
                conn.armed = interest;
            }
        }
    }

    /// Re-derives pause state and interest for every connection —
    /// used on global-defer transitions. Iterates by id snapshot
    /// because refresh can remove entries.
    fn sweep_all(&mut self) {
        let ids: Vec<u64> = self.core.conns.iter().map(|c| c.id).collect();
        for id in ids {
            self.refresh_id(id);
        }
    }

    /// Removes connection at index `i`: deregisters the fd and hands
    /// the table slot (and any pooled buffer) back.
    fn remove_at(&mut self, i: usize) {
        let _ = self
            .ready
            .deregister(raw_fd(self.core.conns[i].driver.stream()));
        self.core.remove_conn(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    /// One connection of an accept batch that the registry refuses is
    /// removed (reordering the table) without disturbing the rest of
    /// the batch: the others still resolve and are registered.
    #[test]
    fn refused_registration_leaves_the_rest_of_the_batch_watched() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let open = Arc::new(AtomicUsize::new(0));
        let mut shard = Shard::new(
            listener,
            ServiceConfig::default(),
            IngressConfig::default(),
            Arc::clone(&open),
        )
        .unwrap();

        let clients: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let mut ids = Vec::new();
        for _ in 0..200 {
            ids.extend(shard.core.accept_pending(&shard.listener));
            if ids.len() == clients.len() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ids.len(), 3, "accept queue never delivered the batch");

        // Occupy the first connection's fd so its registration fails.
        let first = &shard.core.conns[shard.core.index[&ids[0]]];
        let fd = raw_fd(first.driver.stream());
        shard
            .ready
            .register(fd, Token(u64::MAX - 2), Interest::NONE)
            .unwrap();
        for &id in &ids {
            shard.watch(id);
        }

        assert_eq!(shard.core.conns.len(), 2);
        assert_eq!(open.load(Ordering::Relaxed), 2);
        assert!(!shard.core.index.contains_key(&ids[0]));
        for &id in &ids[1..] {
            let conn = &shard.core.conns[shard.core.index[&id]];
            assert_eq!((conn.id, conn.armed), (id, Interest::READ));
        }
    }
}
