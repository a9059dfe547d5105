//! Concurrency models for the verification pipeline, compiled only
//! under `RUSTFLAGS="--cfg loom"`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p tlc-core --test loom_service
//! ```
//!
//! Five models, from most abstract to most concrete:
//!
//! 1. the bounded hash→signature stage queue (the protocol the vendored
//!    crossbeam bounded channel implements): producers block on a full
//!    queue, the consumer wakes them, nothing is lost or reordered;
//! 2. the signature stage's flush-on-shutdown protocol: size-triggered
//!    flushes racing a producer hang-up must still deliver exactly one
//!    result per submission, in submission order;
//! 3. the coalescing waker's protocol (`tlc_net::readiness::Waker`:
//!    publish-then-wake against drain-then-look): a wake fired between
//!    the loop's drain and its next wait is never lost, however many
//!    wakes share one byte;
//! 4. the real [`VerifierService`] torn down with a partial batch still
//!    buffered: `finish()` must flush it and account every proof;
//! 5. the real service with idle kicks racing size-triggered flushes
//!    and teardown: every proof yields exactly one result and every
//!    flushed batch exactly one notification.
//!
//! `loom::model` re-runs each body under perturbed schedules
//! (`LOOM_ITERS` controls how many), so the assertions hold across
//! interleavings, not just the lucky one.

#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;
use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Duration;

use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_core::verify::service::{ServiceConfig, VerifierService};
use tlc_core::PocMsg;
use tlc_crypto::KeyPair;

/// Minimal bounded MPSC queue built on loom primitives, mirroring the
/// protocol of `vendor/crossbeam`'s bounded channel (mutex + condvars,
/// senders block while full, disconnect observed on drop).
struct BoundedQueue<T> {
    inner: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

struct QueueState<T> {
    buf: VecDeque<T>,
    cap: usize,
    senders: usize,
}

impl<T> BoundedQueue<T> {
    fn new(cap: usize, senders: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueState {
                buf: VecDeque::new(),
                cap,
                senders,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    fn send(&self, v: T) {
        let mut st = self.inner.lock().unwrap();
        while st.buf.len() >= st.cap {
            st = self.not_full.wait(st).unwrap();
        }
        st.buf.push_back(v);
        drop(st);
        self.not_empty.notify_one();
    }

    fn sender_done(&self) {
        let mut st = self.inner.lock().unwrap();
        st.senders -= 1;
        drop(st);
        self.not_empty.notify_all();
    }

    /// `None` once every sender hung up and the buffer drained.
    fn recv(&self) -> Option<T> {
        let mut st = self.inner.lock().unwrap();
        loop {
            if let Some(v) = st.buf.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(v);
            }
            if st.senders == 0 {
                return None;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }
}

#[test]
fn bounded_stage_queue_delivers_everything_in_order() {
    loom::model(|| {
        const PER_PRODUCER: u64 = 8;
        // Capacity far below the item count, so producers must block
        // and be woken (the interesting schedules).
        let q = Arc::new(BoundedQueue::new(2, 2));
        let mut producers = Vec::new();
        for p in 0..2u64 {
            let q = Arc::clone(&q);
            producers.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    q.send((p, i));
                }
                q.sender_done();
            }));
        }
        let mut last = [None::<u64>; 2];
        let mut total = 0u64;
        while let Some((p, i)) = q.recv() {
            // Per-producer FIFO: sequence numbers strictly increase.
            assert!(last[p as usize].is_none_or(|prev| i > prev));
            last[p as usize] = Some(i);
            total += 1;
        }
        assert_eq!(total, 2 * PER_PRODUCER, "no item lost or duplicated");
        for h in producers {
            h.join().unwrap();
        }
    });
}

#[test]
fn flush_on_shutdown_delivers_exactly_one_result_per_tag() {
    loom::model(|| {
        // 11 submissions at batch size 4: two size-triggered flushes
        // race the hang-up, and a 3-entry partial batch must be flushed
        // by the shutdown path — the same protocol signature_worker
        // runs when the hash stage disconnects.
        const SUBMITTED: u64 = 11;
        const BATCH: usize = 4;
        let q = Arc::new(BoundedQueue::new(4, 1));
        let results = Arc::new(Mutex::new(Vec::new()));

        let worker = {
            let q = Arc::clone(&q);
            let results = Arc::clone(&results);
            thread::spawn(move || {
                let mut pending: Vec<u64> = Vec::new();
                loop {
                    match q.recv() {
                        Some(tag) => {
                            pending.push(tag);
                            if pending.len() >= BATCH {
                                results.lock().unwrap().extend(pending.drain(..));
                            }
                        }
                        None => {
                            // Producer hung up: flush the partial batch.
                            results.lock().unwrap().extend(pending.drain(..));
                            return;
                        }
                    }
                }
            })
        };

        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for tag in 0..SUBMITTED {
                    q.send(tag);
                }
                q.sender_done();
            })
        };

        producer.join().unwrap();
        worker.join().unwrap();
        let got = results.lock().unwrap().clone();
        let want: Vec<u64> = (0..SUBMITTED).collect();
        assert_eq!(got, want, "every tag exactly once, in submission order");
    });
}

/// The waker's two halves over loom primitives: `pipe` stands for the
/// socket pair's unread bytes (level-triggered: `wait` returns while it
/// is non-zero, only `drain` empties it), `armed` is the coalescing flag.
struct ModelWaker {
    armed: AtomicBool,
    pipe: Mutex<usize>,
    readable: Condvar,
}

impl ModelWaker {
    fn wake(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) {
            *self.pipe.lock().unwrap() += 1;
            self.readable.notify_one();
        }
    }

    /// Blocks until readable; a lost wake-up shows as the timeout.
    fn wait(&self) {
        let mut bytes = self.pipe.lock().unwrap();
        while *bytes == 0 {
            let (guard, timeout) = self
                .readable
                .wait_timeout(bytes, Duration::from_secs(10))
                .unwrap();
            assert!(
                !timeout.timed_out(),
                "wake-up lost: loop would sleep forever"
            );
            bytes = guard;
        }
    }

    fn drain(&self) {
        *self.pipe.lock().unwrap() = 0;
        self.armed.store(false, Ordering::SeqCst);
    }
}

#[test]
fn wake_between_drain_and_next_wait_is_not_lost() {
    loom::model(|| {
        const RESULTS: u64 = 12;
        let waker = Arc::new(ModelWaker {
            armed: AtomicBool::new(false),
            pipe: Mutex::new(0),
            readable: Condvar::new(),
        });
        let queue = Arc::new(Mutex::new(VecDeque::new()));

        let worker = {
            let (waker, queue) = (Arc::clone(&waker), Arc::clone(&queue));
            thread::spawn(move || {
                for tag in 0..RESULTS {
                    // Publish, then wake.
                    queue.lock().unwrap().push_back(tag);
                    waker.wake();
                    thread::explore();
                }
            })
        };

        // The shard loop: block, drain, then look. It reads the queue
        // only when woken, so any lost wake-up strands a result.
        let mut got = Vec::new();
        let mut wakeups = 0u64;
        while (got.len() as u64) < RESULTS {
            waker.wait();
            wakeups += 1;
            waker.drain();
            thread::explore();
            got.extend(queue.lock().unwrap().drain(..));
        }
        worker.join().unwrap();
        assert_eq!(got, (0..RESULTS).collect::<Vec<_>>());
        assert!(wakeups <= RESULTS, "coalescing never adds wake-ups");
    });
}

/// Keys and proofs are expensive to make and pure data — generate them
/// once, clone per iteration.
fn proof_corpus() -> &'static (DataPlan, KeyPair, KeyPair, Vec<PocMsg>) {
    static CORPUS: OnceLock<(DataPlan, KeyPair, KeyPair, Vec<PocMsg>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 9400).unwrap();
        let op = KeyPair::generate_for_seed(1024, 9401).unwrap();
        let pocs = (0..3u8)
            .map(|i| {
                let mut e = Endpoint::new(
                    Role::Edge,
                    plan,
                    Knowledge {
                        role: Role::Edge,
                        own_truth: 1000,
                        inferred_peer_truth: 800,
                    },
                    Box::new(OptimalStrategy),
                    edge.private.clone(),
                    op.public.clone(),
                    [2 * i + 1; 16],
                    32,
                );
                let mut o = Endpoint::new(
                    Role::Operator,
                    plan,
                    Knowledge {
                        role: Role::Operator,
                        own_truth: 800,
                        inferred_peer_truth: 1000,
                    },
                    Box::new(OptimalStrategy),
                    op.private.clone(),
                    edge.public.clone(),
                    [2 * i + 2; 16],
                    32,
                );
                run_negotiation(&mut o, &mut e).unwrap().0
            })
            .collect();
        (plan, edge, op, pocs)
    })
}

#[test]
fn service_finish_flushes_partial_batches() {
    let (plan, edge, op, pocs) = proof_corpus();
    loom::model(move || {
        // Batch size far above the submission count and an hour-long
        // deadline: only the shutdown path can flush these, and it
        // races the submissions still crossing the stage queue.
        let mut svc = VerifierService::with_config(ServiceConfig {
            workers: 2,
            batch_size: 64,
            flush_deadline: Duration::from_secs(3600),
            stage_queue_depth: 2,
        });
        let rel = svc
            .register(*plan, edge.public.clone(), op.public.clone())
            .unwrap();
        for poc in pocs {
            svc.submit(rel, poc.clone()).unwrap();
        }
        let report = svc.finish();
        assert_eq!(report.worker_panics, 0);
        assert_eq!(
            (report.accepted, report.rejected),
            (pocs.len() as u64, 0),
            "shutdown must flush the partial batch, dropping nothing"
        );
    });
}

#[test]
fn kicks_racing_size_flushes_and_teardown_lose_nothing() {
    let (plan, edge, op, pocs) = proof_corpus();
    loom::model(move || {
        // Batch size 2, an hour-long deadline, three proofs: the kick
        // behind the first flushes it alone, the next two fill a batch,
        // and the last kick has nothing left — all while `finish` is
        // already closing the queues the markers travel on.
        let mut svc = VerifierService::with_config(ServiceConfig {
            workers: 2,
            batch_size: 2,
            flush_deadline: Duration::from_secs(3600),
            stage_queue_depth: 2,
        });
        let notified = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&notified);
        svc.set_notifier(std::sync::Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        let rel = svc
            .register(*plan, edge.public.clone(), op.public.clone())
            .unwrap();
        svc.submit(rel, pocs[0].clone()).unwrap();
        svc.kick();
        svc.submit(rel, pocs[1].clone()).unwrap();
        svc.submit(rel, pocs[2].clone()).unwrap();
        svc.kick();
        let report = svc.finish();
        assert_eq!(report.worker_panics, 0);
        assert_eq!(
            (report.accepted, report.rejected, report.unclaimed_results),
            (3, 0, 3),
            "a lost result would be missing, a duplicated one a replay"
        );
        assert_eq!(
            (report.batches, report.idle_flushes, report.kicks),
            (2, 1, 2)
        );
        assert_eq!(notified.load(Ordering::SeqCst), report.batches);
    });
}
