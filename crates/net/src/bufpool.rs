//! Bounded, recycled read-buffer pool for the verifier ingress
//! (`tlc_core::verify::remote`).
//!
//! Copying every frame payload into a fresh `Vec` before decode would
//! be per-frame allocator churn on the hottest path in the system. The
//! ingress loop instead reads into a buffer checked out of a
//! [`BufferPool`]: frames are parsed *in place* as borrowed
//! [`crate::wire::FrameRef`] views and the codec decodes payloads from
//! those borrows, so a PoC travels socket → verifier without an
//! intermediate copy.
//!
//! The pool is **bounded** — that is the point. Memory for in-flight
//! reads is `capacity × buf_size`, fixed at construction. When every
//! buffer is checked out the loop *defers* reads (masks readable
//! interest; level-triggered readiness re-reports the socket once a
//! buffer frees) instead of allocating unboundedly — the same
//! philosophy as the ingress's shed ladder, applied to memory.
//!
//! The pool's one lock (its shared free list) is a leaf of the
//! workspace's lock graph: this crate cannot name tlc-core, so nothing
//! taken under it can be a verification-stage lock, and no stage
//! critical section checks a buffer out or drops one.
//!
//! [`PooledBuf`] returns its storage on drop. A buffer that held a
//! partial frame keeps its tail bytes attached to the connection until
//! the rest arrives — bounded by `buf_size`, which is itself sized to
//! the wire's max frame (header + max payload), so a single pooled
//! buffer always suffices to reassemble any legal frame.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Counters exported into the ingress report (non-wire fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Successful checkouts.
    pub checkouts: u64,
    /// Checkout attempts that found the pool empty (each one is a
    /// deferred read in the ingress loop).
    pub exhausted: u64,
    /// Buffers returned for reuse.
    pub recycles: u64,
}

impl PoolStats {
    /// Buffers checked out and not yet returned.
    fn outstanding(&self) -> usize {
        (self.checkouts - self.recycles) as usize
    }
}

/// The free list and the counters, behind one lock: a checkout or a
/// return takes it once.
struct State {
    free: Vec<Vec<u8>>,
    stats: PoolStats,
}

struct Shared {
    state: Mutex<State>,
    buf_size: usize,
    capacity: usize,
}

impl Shared {
    /// The pool state; a panic elsewhere while it was held leaves it
    /// consistent (every update is one push, pop or counter bump).
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed-capacity pool of equally sized byte buffers.
///
/// Clones share the same storage (`Arc` inside), so one pool can serve
/// a shard's acceptor and event loop. Locking is a plain mutex: the
/// pool is touched a handful of times per *wakeup*, not per byte, and
/// each shard owns its own pool so there is no cross-core contention.
#[derive(Clone)]
pub struct BufferPool {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.shared.capacity)
            .field("buf_size", &self.shared.buf_size)
            .field("available", &self.available())
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool of `capacity` buffers of `buf_size` bytes each.
    /// Storage is allocated lazily: a checkout that finds the free list
    /// empty but the pool under capacity mints a fresh buffer, so idle
    /// shards don't pay for their whole arena up front.
    pub fn new(capacity: usize, buf_size: usize) -> BufferPool {
        BufferPool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    free: Vec::new(),
                    stats: PoolStats::default(),
                }),
                buf_size,
                capacity: capacity.max(1),
            }),
        }
    }

    /// Total buffers this pool will ever hand out concurrently.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Buffers that could be checked out right now (free-listed plus
    /// not-yet-minted headroom).
    pub fn available(&self) -> usize {
        let outstanding = self.stats().outstanding();
        self.shared.capacity.saturating_sub(outstanding)
    }

    /// Checks a buffer out, or `None` when all `capacity` buffers are
    /// in flight (the caller should defer — never allocate around the
    /// pool). The returned buffer is empty with `buf_size` capacity.
    pub fn checkout(&self) -> Option<PooledBuf> {
        let mut state = self.shared.state();
        let data = if let Some(mut b) = state.free.pop() {
            b.clear();
            b
        } else if state.stats.outstanding() < self.shared.capacity {
            Vec::with_capacity(self.shared.buf_size)
        } else {
            state.stats.exhausted += 1;
            return None;
        };
        state.stats.checkouts += 1;
        drop(state);
        Some(PooledBuf {
            data,
            pool: self.shared.clone(),
        })
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        self.shared.state().stats
    }
}

/// A buffer on loan from a [`BufferPool`]; storage returns to the pool
/// on drop. Dereferences to `Vec<u8>` so read/parse code treats it as
/// an ordinary growable buffer (growth beyond `buf_size` is possible
/// but the ingress never does it — frames larger than the buffer are
/// rejected at the header).
pub struct PooledBuf {
    data: Vec<u8>,
    pool: Arc<Shared>,
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.data.len())
            .finish()
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.data
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        let mut state = self.pool.state();
        state.stats.recycles += 1;
        // Oversized (grew past buf_size) buffers are not recycled —
        // recycling them would let one hostile burst permanently
        // inflate the arena. The pool mints a fresh one instead.
        if data.capacity() <= self.pool.buf_size * 2 {
            state.free.push(data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_recycle_roundtrip() {
        let pool = BufferPool::new(2, 64);
        let mut a = pool.checkout().expect("first");
        a.extend_from_slice(b"hello");
        let b = pool.checkout().expect("second");
        assert!(pool.checkout().is_none(), "capacity 2 exhausted");
        drop(a);
        let c = pool.checkout().expect("recycled");
        assert!(c.is_empty(), "recycled buffer must come back cleared");
        assert!(c.capacity() >= 5, "storage was reused");
        drop(b);
        drop(c);
        let stats = pool.stats();
        assert_eq!(stats.checkouts, 3);
        assert_eq!(stats.recycles, 3);
        assert_eq!(stats.exhausted, 1);
    }

    #[test]
    fn exhaustion_counts_and_recovers() {
        let pool = BufferPool::new(1, 16);
        let held = pool.checkout().expect("only buffer");
        for _ in 0..5 {
            assert!(pool.checkout().is_none());
        }
        assert_eq!(pool.stats().exhausted, 5);
        drop(held);
        assert!(pool.checkout().is_some(), "freed buffer is reusable");
    }

    #[test]
    fn oversized_buffers_are_not_recycled() {
        let pool = BufferPool::new(1, 8);
        let mut b = pool.checkout().expect("buffer");
        b.extend_from_slice(&[0u8; 64]); // grow well past 2×buf_size
        drop(b);
        let fresh = pool.checkout().expect("pool still at capacity 1");
        assert!(fresh.capacity() < 64, "inflated storage must not return");
    }

    #[test]
    fn clones_share_storage() {
        let pool = BufferPool::new(1, 8);
        let other = pool.clone();
        let held = pool.checkout().expect("buffer");
        assert!(other.checkout().is_none(), "clone sees same capacity");
        drop(held);
        assert!(other.checkout().is_some());
    }
}
