//! The ingress event loop: readiness-driven, one thread per shard
//! (DESIGN.md §10).
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
//!   lanes, its shed ladder, and its own verification
//!   [`Stage`](crate::verify::stage::Stage) — so there is no
//!   cross-shard locking at all. A connection lives and dies on the
//!   shard that accepted it, which is what makes shard-local
//!   relationship ids and misbehavior scores sound. It also means a
//!   relationship's replay window is per *shard*: registered over two
//!   connections that land on different shards, it has two independent
//!   windows (DESIGN §10).
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
//!   full, quarantined) has its read interest masked, so it costs zero
//!   wakeups until it resumes.
//! * **Run to completion.** One iteration is gather → verify → reply:
//!   every readable connection is read (at most [`READS_PER_WAKEUP`]
//!   reads each), every admitted proof goes to the shard's stage —
//!   which verifies a relationship's batch on the spot when it fills —
//!   and before the loop looks at the kernel again it verifies whatever
//!   is still buffered, routes the verdicts and flushes them to their
//!   sockets. Nothing is ever pending when the loop blocks, so there is
//!   nothing to time out, wake up for, or hand to another thread; a
//!   thin relationship's proof never waits for a flooding neighbour's
//!   batch to fill; and load sizes the batches by itself, because the
//!   sockets fill while a batch verifies. A session that submits
//!   nothing (SETTLE) pays for none of it.
//!
//! Everything protocol-visible — BUSY semantics, the shed ladder,
//! quarantine scoring, verdict routing — is [`IngressCore`]'s; this
//! file only moves bytes and interest.

use super::{IngressConfig, IngressCore, IngressReport, IngressServer, IngressStats, Phase};
use crate::verify::service::ServiceReport;
use crate::verify::stage::Stage;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tlc_net::bufpool::BufferPool;
use tlc_net::readiness::{raw_fd, Event, Interest, Readiness, Token};
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
/// the shards' verification counters line up under their shard ids.
fn merge_reports(parts: Vec<IngressReport>, join_panics: usize) -> IngressReport {
    let mut shards = Vec::with_capacity(parts.len());
    let mut unclaimed = 0;
    let mut ingress = IngressStats::default();
    let mut pool = tlc_net::PoolStats::default();
    for part in parts {
        shards.extend(part.service.shards);
        unclaimed += part.service.unclaimed_results;
        sum_stats(&mut ingress, &part.ingress);
        pool.checkouts += part.pool.checkouts;
        pool.exhausted += part.pool.exhausted;
        pool.recycles += part.pool.recycles;
    }
    IngressReport {
        service: ServiceReport::from_shards(shards, join_panics, unclaimed, Duration::ZERO),
        ingress,
        pool,
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
/// length at `quarantine_polls` milliseconds plus the work of the
/// iterations it spans.
const QUARANTINE_TICK_MS: i32 = 1;

/// Pause after a failed `wait`: a broken registry would otherwise spin.
const BROKEN_REGISTRY_BACKOFF: Duration = Duration::from_micros(200);

/// One shard: a listener, a readiness registry, a buffer pool, and a
/// private [`IngressCore`].
pub(super) struct Shard {
    core: IngressCore,
    pub(super) listener: TcpListener,
    ready: Readiness,
    pool: BufferPool,
    /// Ids of connections whose read was deferred because the pool
    /// was empty; re-armed as buffers return.
    deferred: Vec<u64>,
}

impl Shard {
    /// A shard verifying on `stage`; fails only if the readiness
    /// registry cannot be built.
    pub(super) fn new(
        listener: TcpListener,
        stage: Stage,
        config: IngressConfig,
        open: Arc<AtomicUsize>,
    ) -> io::Result<Shard> {
        let mut ready = Readiness::new()?;
        ready.register(raw_fd(&listener), Token::LISTENER, Interest::READ)?;
        // One max-size frame per buffer: a full buffer therefore
        // always contains a complete frame or an oversize error, so
        // parsing can never deadlock on "need more room".
        let buf_size = HEADER_LEN + config.max_payload as usize;
        let capacity = (config.max_conns / 4).clamp(64, 512);
        Ok(Shard {
            core: IngressCore::new(stage, config, open),
            listener,
            ready,
            pool: BufferPool::new(capacity, buf_size),
            deferred: Vec::new(),
        })
    }

    /// The loop, until `stop`; returns the shard's final report.
    fn run(mut self, stop: &AtomicBool) -> IngressReport {
        let mut events: Vec<Event> = Vec::new();
        let mut touched: Vec<u64> = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            self.turn(&mut events, &mut touched);
        }
        // Buffers still held at shutdown are intentionally *not*
        // recycles: stats are taken before they drop.
        let pool_stats = self.pool.stats();
        self.core.into_report(pool_stats)
    }

    /// One iteration: gather → verify → reply. Blocks until a socket is
    /// ready (or the wait bound passes) and returns with nothing
    /// pending: every proof the wakeup admitted has its verdict queued
    /// and flushed towards its socket. `events` and `touched` are
    /// scratch, empty between calls.
    fn turn(&mut self, events: &mut Vec<Event>, touched: &mut Vec<u64>) {
        let timeout = if self.core.quarantined > 0 {
            QUARANTINE_TICK_MS
        } else {
            STOP_CHECK_MS
        };
        if self.ready.wait(events, timeout).is_err() {
            std::thread::sleep(BROKEN_REGISTRY_BACKOFF);
            return;
        }
        // Gather. Full batches verify as they fill.
        self.core.dealt = false;
        for ev in events.iter().copied() {
            match ev.token {
                Token::LISTENER => self.accept_ready(),
                _ => self.conn_event(ev),
            }
        }

        // Verify what is left, then reply: refresh exactly the
        // connections that got frames queued or windows freed.
        self.core.stage.flush();
        self.core.pump_verdicts(touched);
        self.refresh_all(touched);

        // Quarantine sentences tick per loop iteration; the wait
        // above is bounded while any is running.
        if self.core.quarantined > 0 {
            self.core.tick_quarantines(touched);
            self.refresh_all(touched);
        }

        // Buffers came back: wake the starved readers.
        if !self.deferred.is_empty() && self.pool.available() > 0 {
            touched.append(&mut self.deferred);
            for &id in touched.iter() {
                if let Some(&i) = self.core.index.get(&id) {
                    self.core.conns[i].deferred = false;
                }
            }
            self.refresh_all(touched);
        }
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
        let want_pause = self.core.desired_pause(i);
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
    use crate::plan::DataPlan;
    use crate::roaming::{RoamingAgreement, Serving};
    use crate::verify::remote::codec::{
        Hello, Register, SettleMsg, Submit, MAGIC, PROTOCOL_VERSION,
    };
    use crate::verify::stage::tests::negotiate;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use tlc_crypto::KeyPair;
    use tlc_net::wire::Frame;

    fn shard_on_loopback() -> (Shard, std::net::SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let open = Arc::new(AtomicUsize::new(0));
        let shard = Shard::new(listener, Stage::new(0, 32), IngressConfig::default(), open);
        (shard.unwrap(), addr)
    }

    /// Writes `frames` in one burst, then turns the loop until the
    /// iteration that answers: replies are flushed by the iteration
    /// that read the request, so on return the shard's state is what
    /// that iteration left.
    fn turn_until_reply(shard: &mut Shard, client: &mut TcpStream, frames: &[Frame]) {
        let bytes: Vec<u8> = frames.iter().flat_map(|f| f.encode().unwrap()).collect();
        client.write_all(&bytes).unwrap();
        let (mut events, mut touched) = (Vec::new(), Vec::new());
        let mut buf = [0u8; 4096];
        for _ in 0..500 {
            shard.turn(&mut events, &mut touched);
            match client.read(&mut buf) {
                Ok(0) => panic!("server closed the session"),
                Ok(_) => return,
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
        }
        panic!("no reply in 500 iterations");
    }

    /// Credits are dealt by the first submission of an iteration that
    /// needs one, once: an iteration that only settles deals nothing
    /// (the cursor that rotates with every deal stays put), and one that
    /// relays two submissions deals once.
    #[test]
    fn a_settle_only_iteration_deals_no_credits() {
        let (mut shard, addr) = shard_on_loopback();
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_nodelay(true).unwrap();
        client.set_nonblocking(true).unwrap();
        let plan = DataPlan::paper_default();
        let keys: Vec<KeyPair> = (0..4)
            .map(|k| KeyPair::generate_for_seed(1024, 7980 + k).unwrap())
            .collect();
        let hello = Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
            window: 0,
        };
        // Two lanes, so the deal's rotating cursor has somewhere to go.
        let mut session = vec![hello.to_frame()];
        for (req, pair) in keys.chunks(2).enumerate() {
            let register = Register {
                req: req as u32,
                capacity: 0,
                plan,
                edge_key: pair[0].public.clone(),
                operator_key: pair[1].public.clone(),
            };
            session.push(register.to_frame());
        }
        turn_until_reply(&mut shard, &mut client, &session);
        assert_eq!(shard.core.credits.len(), 2);
        assert!(!shard.core.dealt, "REGISTER needs no credit");
        let cursor = shard.core.rr_cursor;

        let charged = 1_000_000;
        let settle = SettleMsg {
            rel: 0,
            tag: 0,
            serving: Serving::Visited,
            charged,
            split: RoamingAgreement::paper_default().split_volume(charged, Serving::Visited),
        };
        turn_until_reply(&mut shard, &mut client, &[settle.to_frame()]);
        assert!(!shard.core.dealt, "a SETTLE-only iteration dealt credits");
        assert_eq!(shard.core.rr_cursor, cursor);

        let submits: Vec<Frame> = (0..2u8)
            .map(|k| {
                let poc = negotiate(&keys[0], &keys[1], plan, 2 * k + 1, 2 * k + 2);
                Submit {
                    rel: 0,
                    tag: 1 + k as u64,
                    poc: poc.encode(),
                }
                .to_frame()
            })
            .collect();
        turn_until_reply(&mut shard, &mut client, &submits);
        assert!(shard.core.dealt);
        assert_eq!(shard.core.rr_cursor, (cursor + 1) % 2, "one deal, not two");
        assert_eq!(shard.core.stats.verdicts, 2);
        assert_eq!(shard.core.outstanding(), 0, "nothing pending after a turn");
    }

    /// One connection of an accept batch that the registry refuses is
    /// removed (reordering the table) without disturbing the rest of
    /// the batch: the others still resolve and are registered.
    #[test]
    fn refused_registration_leaves_the_rest_of_the_batch_watched() {
        let (mut shard, addr) = shard_on_loopback();
        let open = Arc::clone(&shard.core.open);

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
