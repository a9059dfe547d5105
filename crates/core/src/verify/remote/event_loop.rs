//! Readiness-driven, multi-shard ingress event loop (DESIGN.md §12).
//!
//! The legacy loop in [`super`] walks every connection each 200 µs
//! tick; cost grows with the table whether peers are talking or not.
//! This backend instead blocks in the kernel
//! ([`tlc_net::readiness::Readiness`]: epoll on Linux, poll(2)
//! elsewhere) and touches only sockets with something to say, so a
//! mostly-idle C100K table costs near zero between bursts.
//!
//! Four structural differences from the tick loop, none visible on
//! the wire:
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
//!   [`PoolStats::exhausted`]) instead of allocating unboundedly;
//!   level-triggered readiness re-reports the socket once a buffer
//!   frees up.
//! * **Interest masking as backpressure.** Where the tick loop calls
//!   `pause()`/`resume()` per tick, this loop additionally masks read
//!   interest so a paused connection costs zero wakeups.
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
//! quarantine scoring, verdict routing — is the same [`IngressCore`]
//! code both backends share; the conformance suite runs against both.

use super::{IngressReport, IngressServer, IngressStats};
use crate::verify::service::ServiceReport;
use std::sync::atomic::AtomicBool;

/// Entry point from [`IngressServer::run`] for the epoll backend.
/// Falls back to the legacy tick loop when no readiness syscall
/// backend exists on this target (non-Unix builds).
pub(super) fn run(server: IngressServer, stop: &AtomicBool) -> IngressReport {
    if !tlc_net::Readiness::available() {
        return server.run_poll(stop);
    }
    imp::run(server, stop)
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
        elapsed: std::time::Duration::ZERO,
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

#[cfg(not(unix))]
mod imp {
    use super::*;

    /// Unreachable in practice: `Readiness::available()` is false off
    /// Unix, so [`super::run`] already took the legacy path.
    pub(super) fn run(server: IngressServer, stop: &AtomicBool) -> IngressReport {
        server.run_poll(stop)
    }
}

#[cfg(unix)]
mod imp {
    use super::super::{IngressCore, Phase};
    use super::{merge_reports, IngressReport, IngressServer};
    use crate::verify::service::VerifierService;
    use std::collections::{HashMap, HashSet};
    use std::net::TcpListener;
    use std::os::unix::io::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use tlc_net::bufpool::{BufferPool, PooledBuf};
    use tlc_net::readiness::{Event, Interest, Readiness, Token, Waker};
    use tlc_net::wire::{split_frame, HEADER_LEN};

    pub(super) fn run(server: IngressServer, stop: &AtomicBool) -> IngressReport {
        let IngressServer {
            listener,
            service_config,
            reuseport,
            core,
        } = server;
        let config = core.config;
        let shards = if reuseport { config.shards.max(1) } else { 1 };

        if shards == 1 {
            let part = shard_loop(core, listener, stop);
            return merge_reports(vec![part], 0);
        }

        // Multi-shard: gather the extra SO_REUSEPORT listeners first —
        // a failed bind just shrinks the shard count (the kernel only
        // balances across sockets that exist).
        let addr = listener.local_addr().ok();
        let mut listeners = vec![listener];
        if let Some(addr) = addr {
            for _ in 1..shards {
                match tlc_net::try_bind_reuseport(addr) {
                    Some(l) => listeners.push(l),
                    None => break,
                }
            }
        }
        if listeners.len() == 1 {
            if let Some(only) = listeners.pop() {
                let part = shard_loop(core, only, stop);
                return merge_reports(vec![part], 0);
            }
        }

        // Retire the bind-time service (it has processed nothing — run
        // starts before any accept) and split the worker budget across
        // per-shard pools so total worker threads stay comparable.
        let shards = listeners.len();
        let IngressCore { service, .. } = core;
        let retired = service.finish();
        let mut per_shard = service_config;
        per_shard.workers = (service_config.workers.div_ceil(shards)).max(1);

        let mut parts = Vec::new();
        let mut join_panics = retired.worker_panics;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for listener in listeners {
                let core = IngressCore::new(VerifierService::with_config(per_shard), config);
                handles.push(s.spawn(move || shard_loop(core, listener, stop)));
            }
            for h in handles {
                match h.join() {
                    Ok(part) => parts.push(part),
                    Err(_) => join_panics += 1,
                }
            }
        });
        merge_reports(parts, join_panics)
    }

    /// One shard: a readiness registry, a buffer pool, and a private
    /// [`IngressCore`]. Returns the shard's final report.
    fn shard_loop(core: IngressCore, listener: TcpListener, stop: &AtomicBool) -> IngressReport {
        match Shard::new(core, listener) {
            Ok(shard) => shard.run(stop),
            // Readiness construction failed (fd exhaustion, odd
            // container): degrade to the tick loop over the same core
            // rather than dying.
            Err(parts) => {
                let (core, listener) = *parts;
                core.run_ticks(&listener, stop)
            }
        }
    }

    /// Socket reads per connection per wakeup. Bounds how long one
    /// chatty peer can hold the loop; level-triggered readiness
    /// re-reports whatever is left.
    const READS_PER_WAKEUP: usize = 4;

    /// Longest the loop sleeps with nothing to do: the only thing left
    /// that the kernel cannot wake it for is the `stop` flag.
    const STOP_CHECK_MS: i32 = 10;

    /// Wait bound while any connection is quarantined. Sentences are
    /// counted in loop iterations (`quarantine_polls`); before the
    /// waker, a loop with verdicts pending iterated at least once a
    /// millisecond and an idle one every 10 ms. Bounding the wait to
    /// 1 ms whenever a sentence is running keeps every sentence's
    /// wall-clock length at or under the shorter of the two.
    const QUARANTINE_TICK_MS: i32 = 1;

    struct Shard {
        core: IngressCore,
        listener: TcpListener,
        ready: Readiness,
        /// Fired by the service's signature workers per flushed batch.
        waker: Waker,
        wakeups: u64,
        pool: BufferPool,
        /// conn id -> buffer holding a partial frame between wakeups.
        bufs: HashMap<u64, PooledBuf>,
        /// conn id -> interest currently registered with the kernel,
        /// to skip no-op `modify` syscalls.
        armed: HashMap<u64, Interest>,
        /// Connections whose read was deferred because the pool was
        /// empty; re-armed as buffers return.
        deferred: HashSet<u64>,
        /// Last observed global-defer verdict; a transition triggers a
        /// full interest sweep.
        prev_global: bool,
    }

    impl Shard {
        fn new(
            mut core: IngressCore,
            listener: TcpListener,
        ) -> Result<Shard, Box<(IngressCore, TcpListener)>> {
            let registry = Readiness::new().and_then(|mut ready| {
                ready.register(listener.as_raw_fd(), Token::LISTENER, Interest::READ)?;
                let waker = Waker::new(&mut ready)?;
                Ok((ready, waker))
            });
            let Ok((ready, waker)) = registry else {
                return Err(Box::new((core, listener)));
            };
            // Installed before the first accept, so every batch this
            // shard ever flushes announces itself.
            let handle = waker.handle();
            core.service.set_notifier(Arc::new(move || handle.wake()));
            // One max-size frame per buffer: a full buffer therefore
            // always contains a complete frame or an oversize error,
            // so parsing can never deadlock on "need more room".
            let buf_size = HEADER_LEN + core.config.max_payload as usize;
            let capacity = (core.config.max_conns / 4).clamp(64, 512);
            let pool = BufferPool::new(capacity, buf_size);
            Ok(Shard {
                core,
                listener,
                ready,
                waker,
                wakeups: 0,
                pool,
                bufs: HashMap::new(),
                armed: HashMap::new(),
                deferred: HashSet::new(),
                prev_global: false,
            })
        }

        fn run(mut self, stop: &AtomicBool) -> IngressReport {
            let mut events: Vec<Event> = Vec::new();
            let mut touched: Vec<usize> = Vec::new();
            let mut scratch_ids: Vec<u64> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                self.core.deal_credits();
                let timeout = if self.core.quarantined > 0 {
                    QUARANTINE_TICK_MS
                } else {
                    STOP_CHECK_MS
                };
                // About to block. If submissions were relayed since the
                // last kick, look once without blocking: more input
                // waiting means batches are still filling; none means
                // the submitters went idle, and the service is told so.
                // A loop that relayed nothing skips the probe.
                let probing = self.core.service.kick_due();
                let first = if probing { 0 } else { timeout };
                let mut waited = self.ready.wait(&mut events, first);
                if probing && matches!(waited, Ok(0)) {
                    self.core.service.kick();
                    waited = self.ready.wait(&mut events, timeout);
                }
                if waited.is_err() {
                    // A broken registry would spin; breathe instead.
                    std::thread::sleep(self.core.config.poll_sleep);
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

                // Verdict completions, read only when the workers said
                // so (drain first: see `Waker::drain`). Refresh exactly
                // the connections that got frames queued or windows
                // freed.
                if woken {
                    self.wakeups += 1;
                    self.waker.drain();
                    touched.clear();
                    self.core.pump_verdicts_into(&mut touched);
                    self.refresh_touched(&touched, &mut scratch_ids);
                }

                // Quarantine sentences tick per loop iteration, like
                // the legacy loop ticks per poll iteration; the wait
                // above is bounded while any is running.
                if self.core.quarantined > 0 {
                    touched.clear();
                    self.core.tick_quarantines(&mut touched);
                    self.refresh_touched(&touched, &mut scratch_ids);
                }

                // Ladder transitions pause/resume the whole table.
                let global = self.core.global_defer();
                if global != self.prev_global {
                    self.prev_global = global;
                    self.sweep_all();
                }

                // Buffers came back: wake the starved readers.
                if !self.deferred.is_empty() && self.pool.available() > 0 {
                    scratch_ids.clear();
                    scratch_ids.extend(self.deferred.drain());
                    for &id in &scratch_ids {
                        self.refresh_id(id);
                    }
                }
            }
            // Buffers still held at shutdown are intentionally *not*
            // recycles: stats are taken before they drop.
            let pool_stats = self.pool.stats();
            self.core.into_report(pool_stats, self.wakeups)
        }

        /// Refreshes the connections at table indices `touched`. The
        /// indices are turned into ids first because a refresh can
        /// reorder the table (swap_remove).
        fn refresh_touched(&mut self, touched: &[usize], ids: &mut Vec<u64>) {
            ids.clear();
            let conns = &self.core.conns;
            ids.extend(touched.iter().filter_map(|&i| conns.get(i).map(|c| c.id)));
            for &id in ids.iter() {
                self.refresh_id(id);
            }
        }

        /// Drains the accept queue, registering every admitted socket
        /// for readable events under its connection id.
        fn accept_ready(&mut self) {
            let (_, admitted) = self.core.accept_pending(&self.listener);
            for i in admitted {
                let id = self.core.conns[i].id;
                let fd = self.core.conns[i].driver.stream().as_raw_fd();
                if self.ready.register(fd, Token(id), Interest::READ).is_ok() {
                    self.armed.insert(id, Interest::READ);
                } else {
                    // Unwatchable socket: close it now rather than
                    // carrying a connection that can never wake us.
                    self.core.conns[i].phase = Phase::Closed;
                    self.remove_at(i);
                }
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
            if self.core.conns[i].phase == Phase::Closed || self.core.conns[i].driver.paused() {
                return;
            }
            let id = self.core.conns[i].id;
            let mut buf = match self.bufs.remove(&id) {
                Some(b) => b,
                None => match self.pool.checkout() {
                    Some(b) => b,
                    None => {
                        // Pool dry: defer — never allocate around the
                        // pool. Level-triggered readiness re-reports
                        // the socket once we re-arm.
                        self.deferred.insert(id);
                        return;
                    }
                },
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
            if buf.is_empty() {
                drop(buf); // returns to the pool
            } else {
                self.bufs.insert(id, buf);
            }
        }

        /// Parses every complete frame out of `buf` in place and hands
        /// each to the protocol core as a borrowed view. Returns true
        /// when the connection closed (fault or handler decision) and
        /// reading should stop.
        fn parse_frames(&mut self, i: usize, buf: &mut Vec<u8>) -> bool {
            let max = self.core.config.max_payload;
            let mut off = 0;
            let mut frames = 0u64;
            let mut fault = false;
            while self.core.conns[i].phase != Phase::Closed {
                match split_frame(&buf[off..], max) {
                    Ok(Some((view, used))) => {
                        frames += 1;
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
            if frames > 0 {
                self.core.conns[i].driver.note_frames_rx(frames);
            }
            buf.drain(..off);
            if fault {
                // Same close the legacy driver produces for a framing
                // violation; the poisoned bytes never touch another
                // connection — the buffer is cleared before recycling.
                self.core.protocol_fault(i, "framing violation");
                buf.clear();
            }
            fault || self.core.conns[i].phase == Phase::Closed
        }

        /// Re-derives connection `id`'s liveness, pause state, and
        /// kernel interest after anything changed: flushes the outbox,
        /// reaps if finished, otherwise updates pause bookkeeping and
        /// the registered interest (skipping no-op syscalls).
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
            // Same reap condition as the legacy loop: closed with
            // nothing left to drain (or a dead socket), or clean EOF
            // with an empty outbox.
            if (closed && (outbox == 0 || at_eof)) || (at_eof && outbox == 0) {
                self.remove_at(i);
                return;
            }
            let want_pause = self.core.desired_pause(i, self.prev_global);
            if want_pause {
                if !self.core.conns[i].driver.paused() {
                    self.core.stats.pauses += 1;
                }
                self.core.conns[i].driver.pause();
            } else if !closed {
                self.core.conns[i].driver.resume();
            }
            let interest = Interest {
                readable: !want_pause && !closed && !at_eof && !self.deferred.contains(&id),
                writable: outbox > 0,
            };
            if self.armed.get(&id) != Some(&interest) {
                let fd = self.core.conns[i].driver.stream().as_raw_fd();
                if self.ready.modify(fd, Token(id), interest).is_ok() {
                    self.armed.insert(id, interest);
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

        /// Removes connection at index `i`: deregisters the fd, drops
        /// its buffer back to the pool, and hands the table slot back.
        fn remove_at(&mut self, i: usize) {
            let id = self.core.conns[i].id;
            let fd = self.core.conns[i].driver.stream().as_raw_fd();
            let _ = self.ready.deregister(fd);
            self.bufs.remove(&id);
            self.armed.remove(&id);
            self.deferred.remove(&id);
            self.core.remove_conn(i);
        }
    }
}
