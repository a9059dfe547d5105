//! Hierarchical timer wheel — the event scheduler behind the
//! million-session digital twin (DESIGN §13).
//!
//! At twin scale (millions of outstanding timers, constant churn) a
//! binary heap's O(log n) per schedule/pop is the bottleneck, so
//! [`Scheduler`] is a fixed-hierarchy timer wheel: 4 levels × 256
//! slots covering 2³² ticks, O(1) schedule. A pending event is a plain
//! `Copy` item appended to its slot's tail *chunk* — a fixed-capacity
//! run of items drawn from one pool per scheduler and handed back when
//! the slot is drained — so moving an event down a level is a
//! sequential read and an append, never a pointer chase, and nothing is
//! allocated per event after warm-up.
//!
//! **There is no cancel.** Every scheduled item fires. Whether an event
//! is still wanted is the caller's question, answered when it comes
//! due: the twin drops an event whose session's arena generation has
//! moved on (DESIGN §13), so the wheel keeps no handle table of its own.
//!
//! **The bottom of the wheel is a sorted run.** When the cursor lands
//! on a slot of level 1 or higher, every item due within the next 256
//! ticks goes straight into one scratch, sorted `(tick, seq)`, and
//! `pop_next` walks that *run*, moving the cursor item by item. Level 0
//! holds only what was scheduled fewer than 256 ticks ahead, and one of
//! its slots is folded into the run when its tick comes up — so an
//! event scheduled far ahead is re-placed once per level above 1 and
//! never hops through a level-0 slot of its own.
//!
//! **Determinism.** Events fire in `(tick, seq)` order, where `seq` is
//! the global schedule sequence number. That order is the whole
//! contract, and the reference for it lives in test code:
//! `tests/support/sched_model.rs` is an ordered map keyed `(tick, seq)`
//! that shares no line with this module, and every random op stream
//! must fire and count identically on both.

use std::cmp::Reverse;

const LEVELS: usize = 4;
const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS; // 256 per level
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Ticks covered by the four levels; anything farther parks in the
/// overflow list until the cursor gets close enough.
const HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);
const NIL: u32 = u32::MAX;
/// Items per pool chunk. A slot's tail chunk is half empty on
/// average, so 1024 slots × 16 × 32 B bounds the slack near 0.5 MiB a
/// scheduler; 16 to 128 measured alike, 32 a shade ahead on both speed
/// and memory. One growable `Vec` per slot was a few percent faster
/// and a third heavier in resident memory (ROADMAP, *Measured and
/// closed*).
const CHUNK: usize = 32;

/// A pending event, wherever it is parked.
#[derive(Clone, Copy)]
struct Item<T> {
    tick: u64,
    seq: u64,
    payload: T,
}

/// One wheel slot: a chain of pool chunks, all full but the tail.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// One pool buffer: up to `CHUNK` items (allocated once, at that
/// capacity), and the link to the next chunk of its slot's chain or of
/// the free list.
struct Chunk<T> {
    items: Vec<Item<T>>,
    next: u32,
}

/// The chunk pool. It never shrinks: a chunk a drained slot hands back
/// is the next one an append takes.
struct Pool<T> {
    chunks: Vec<Chunk<T>>,
    free: u32,
}

impl<T: Copy> Pool<T> {
    /// A chunk off the free list, or a newly allocated one.
    fn take(&mut self) -> u32 {
        let c = self.free;
        if let Some(ch) = self.chunks.get_mut(c as usize) {
            self.free = std::mem::replace(&mut ch.next, NIL);
            return c;
        }
        self.chunks.push(Chunk {
            items: Vec::with_capacity(CHUNK),
            next: NIL,
        });
        (self.chunks.len() - 1) as u32
    }

    /// Puts chunk `c` on the free list, with its buffer, emptied.
    fn give(&mut self, c: u32, mut items: Vec<Item<T>>) {
        items.clear();
        if let Some(ch) = self.chunks.get_mut(c as usize) {
            ch.items = items;
            ch.next = self.free;
            self.free = c;
        }
    }
}

/// What the scheduler did beyond its contract: the work the cascade
/// cost, for attributing a slow-down at scale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Items re-placed a level down (or in from the overflow list).
    pub moves: u64,
    /// Level-0 slots folded into a pending run.
    pub merges: u64,
    /// Chunks the pool grew to (it never shrinks, so this is the peak).
    pub pool_chunks: u64,
    /// Bytes of item storage those chunks hold.
    pub pool_bytes: u64,
}

impl SchedStats {
    /// Folds another scheduler's stats (shard merge, in shard order).
    pub fn merge(&mut self, other: &SchedStats) {
        self.moves = self.moves.saturating_add(other.moves);
        self.merges = self.merges.saturating_add(other.merges);
        self.pool_chunks = self.pool_chunks.saturating_add(other.pool_chunks);
        self.pool_bytes = self.pool_bytes.saturating_add(other.pool_bytes);
    }
}

/// The sharded-twin event scheduler. Payloads are `Copy` so firing
/// never allocates.
pub struct Scheduler<T: Copy> {
    pool: Pool<T>,
    /// `slots[level << SLOT_BITS | slot]`.
    slots: Vec<Slot>,
    /// Slot-occupancy bitmaps, 256 bits per level.
    bits: Vec<[u64; 4]>,
    /// Items scheduled ≥ `HORIZON` ticks ahead.
    overflow: Vec<Item<T>>,
    /// The run: items due within 256 ticks of the cursor's last jump,
    /// *descending* `(tick, seq)`, so the next one to pop is the last.
    /// Rebuilt by `advance_to` only when empty.
    fired: Vec<Item<T>>,
    /// Global schedule counter: the deterministic tiebreak for events
    /// at the same tick.
    seq: u64,
    /// Current wheel time (last fired tick).
    cursor: u64,
    live: usize,
    moves: u64,
    merges: u64,
}

impl<T: Copy> Default for Scheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Scheduler<T> {
    /// A scheduler starting at tick 0.
    pub fn new() -> Self {
        Scheduler {
            pool: Pool {
                chunks: Vec::new(),
                free: NIL,
            },
            slots: vec![EMPTY; LEVELS * SLOTS],
            bits: vec![[0u64; 4]; LEVELS],
            overflow: Vec::new(),
            fired: Vec::new(),
            seq: 0,
            cursor: 0,
            live: 0,
            moves: 0,
            merges: 0,
        }
    }

    /// Pre-sizes the pool for `n` outstanding events.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self::new();
        s.pool.chunks.reserve(n / CHUNK);
        s
    }

    /// Outstanding (scheduled, unfired) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are outstanding.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cascade and pool counters so far.
    pub fn stats(&self) -> SchedStats {
        let chunks = self.pool.chunks.len();
        SchedStats {
            moves: self.moves,
            merges: self.merges,
            pool_chunks: chunks as u64,
            pool_bytes: (chunks * CHUNK * std::mem::size_of::<Item<T>>()) as u64,
        }
    }

    /// Schedules `payload` to fire at absolute `tick` (clamped to the
    /// present: ticks at or before `now()` fire on the next pop).
    /// O(1).
    pub fn schedule(&mut self, tick: u64, payload: T) {
        let tick = tick.max(self.cursor);
        let seq = self.seq;
        self.seq += 1;
        self.live += 1;
        self.place(Item { tick, seq, payload });
    }

    /// Pops the next event with `tick <= horizon`, advancing scheduler
    /// time to its tick. Returns `(tick, seq, payload)`.
    pub fn pop_next(&mut self, horizon: u64) -> Option<(u64, u64, T)> {
        self.pop_next_near(horizon, |_| {})
    }

    /// [`pop_next`](Self::pop_next), telling the caller what fires soon:
    /// `near` sees each payload as a cursor jump puts it in the run —
    /// up to 256 ticks before it is returned — so the caller can start
    /// loading what handling it will need.
    pub fn pop_next_near(
        &mut self,
        horizon: u64,
        mut near: impl FnMut(&T),
    ) -> Option<(u64, u64, T)> {
        loop {
            if let Some(&it) = self.fired.last() {
                // A level-0 slot due no later than the run's next item
                // fires first, or with it in `seq` order.
                if let Some(off) = self.next_slot_offset(0, self.pos(0)) {
                    let tick = self.cursor + off as u64;
                    if tick <= it.tick {
                        self.fold(tick);
                        continue;
                    }
                }
                // The run may reach past an earlier call's horizon.
                if it.tick > horizon {
                    return None;
                }
                self.fired.pop();
                self.live -= 1;
                self.cursor = it.tick;
                return Some((it.tick, it.seq, it.payload));
            }
            let bound = self.next_bound()?;
            if bound > horizon {
                return None;
            }
            self.advance_to(bound, &mut near);
        }
    }

    // ── Internals ──────────────────────────────────────────────────────

    fn set_bit(&mut self, level: usize, slot: usize) {
        if let Some(words) = self.bits.get_mut(level) {
            words[slot >> 6] |= 1u64 << (slot & 63);
        }
    }

    fn clear_bit(&mut self, level: usize, slot: usize) {
        if let Some(words) = self.bits.get_mut(level) {
            words[slot >> 6] &= !(1u64 << (slot & 63));
        }
    }

    fn occupied(&self, level: usize, slot: usize) -> bool {
        self.bits
            .get(level)
            .is_some_and(|w| w[slot >> 6] & (1u64 << (slot & 63)) != 0)
    }

    /// First occupied slot at `level` whose offset from `from` is in
    /// `[0, 256)`, in wrap order; returns the offset.
    fn next_slot_offset(&self, level: usize, from: usize) -> Option<usize> {
        let words = self.bits.get(level)?;
        for off in 0..4usize {
            // Examine 64-slot words starting at the word containing
            // `from`, masking below `from` in the first word.
            let wi = ((from >> 6) + off) & 3;
            let mut w = words[wi];
            if off == 0 {
                w &= !0u64 << (from & 63);
            }
            if w != 0 {
                let slot = (wi << 6) + w.trailing_zeros() as usize;
                let delta = (slot + SLOTS - from) & (SLOTS - 1);
                return Some(delta);
            }
        }
        // Wrapped below `from` in the starting word.
        let wi = from >> 6;
        let w = words[wi] & !(!0u64 << (from & 63));
        if w != 0 {
            let slot = (wi << 6) + w.trailing_zeros() as usize;
            return Some((slot + SLOTS - from) & (SLOTS - 1));
        }
        None
    }

    /// The cursor's slot position at `level`.
    fn pos(&self, level: usize) -> usize {
        ((self.cursor >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize
    }

    /// Parks `item` where its distance from the cursor says: the
    /// smallest level whose span covers it, or the overflow list.
    fn place(&mut self, item: Item<T>) {
        let level = match item.tick.saturating_sub(self.cursor) {
            0..=0xFF => 0usize,
            0x100..=0xFFFF => 1,
            0x1_0000..=0xFF_FFFF => 2,
            0x100_0000..=0xFFFF_FFFF => 3,
            _ => return self.overflow.push(item),
        };
        let slot = ((item.tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.append(level, slot, item);
    }

    /// Appends to the slot's tail chunk, chaining a new one when full.
    fn append(&mut self, level: usize, slot: usize, item: Item<T>) {
        let Some(s) = self.slots.get_mut(level << SLOT_BITS | slot) else {
            return;
        };
        let chunks = &self.pool.chunks;
        if chunks
            .get(s.tail as usize)
            .is_none_or(|t| t.items.len() == CHUNK)
        {
            let c = self.pool.take();
            match self.pool.chunks.get_mut(s.tail as usize) {
                Some(t) => t.next = c,
                None => s.head = c,
            }
            s.tail = c;
        }
        if let Some(t) = self.pool.chunks.get_mut(s.tail as usize) {
            t.items.push(item);
        }
        self.set_bit(level, slot);
    }

    /// Empties `level`/`slot`: each item goes to `f` in the order it
    /// was appended, and each chunk returns to the pool as soon as it
    /// is read — so a cascade refills
    /// the chunks it has just emptied. The slot is detached first, so
    /// `f` may append to it again.
    fn drain_slot(&mut self, level: usize, slot: usize, mut f: impl FnMut(&mut Self, Item<T>)) {
        let Some(s) = self.slots.get_mut(level << SLOT_BITS | slot) else {
            return;
        };
        let mut c = std::mem::replace(s, EMPTY).head;
        self.clear_bit(level, slot);
        while let Some(ch) = self.pool.chunks.get_mut(c as usize) {
            // The buffer is out of the pool while `f` appends elsewhere.
            let (items, next) = (std::mem::take(&mut ch.items), ch.next);
            for &it in &items {
                f(self, it);
            }
            self.pool.give(c, items);
            c = next;
        }
    }

    /// Lower bound on the next event's tick, across levels + overflow.
    /// Exact for level 0; slot-base bound for higher levels.
    fn next_bound(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        let mut upd = |t: u64| {
            if best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        };
        if let Some(off) = self.next_slot_offset(0, self.pos(0)) {
            // Level-0 slots hold exact ticks; offset 0 = the cursor's
            // own slot (possible right after a jump, before firing).
            upd(self.cursor + off as u64);
        }
        for level in 1..LEVELS {
            let span = 1u64 << (SLOT_BITS * level as u32);
            // Scan strictly-ahead slots: the cursor's own slot at a
            // higher level holds entries a full window wrap away, so
            // it is due *last*, not first. Scanning from `pos + 1`
            // makes the first occupied slot the genuinely nearest one,
            // with `off + 1 == 256` (only `pos` occupied) landing the
            // full-wrap bound as the natural limit of the formula.
            let from = (self.pos(level) + 1) & (SLOTS - 1);
            if let Some(off) = self.next_slot_offset(level, from) {
                let aligned = self.cursor & !(span - 1);
                upd(aligned + span * (off as u64 + 1));
            }
        }
        for it in &self.overflow {
            upd(it.tick);
        }
        best
    }

    /// Jumps the cursor to `tick`: re-admits overflow items now inside
    /// the horizon, then drains the landing slot of every level,
    /// top-down, so items due within 256 ticks collect in `fired` (each
    /// shown to `near`) and the rest settle one level nearer. Only
    /// called with `fired` empty.
    fn advance_to(&mut self, tick: u64, near: &mut impl FnMut(&T)) {
        self.cursor = tick;
        let mut i = 0;
        while let Some(&it) = self.overflow.get(i) {
            if it.tick.saturating_sub(tick) < HORIZON {
                self.overflow.swap_remove(i);
                self.moves += 1;
                self.place(it);
            } else {
                i += 1;
            }
        }
        for level in (0..LEVELS).rev() {
            let pos = self.pos(level);
            if self.occupied(level, pos) {
                // A level-0 slot holds one tick, the cursor's. A higher
                // slot the cursor has just entered holds the ticks of
                // its span: the first 256 are the run, the rest settle
                // a level down. One it was already in holds only ticks
                // a full window ahead, which go straight back into it.
                self.drain_slot(level, pos, |s, it| {
                    if it.tick.saturating_sub(s.cursor) < SLOTS as u64 {
                        near(&it.payload);
                        s.fired.push(it);
                    } else {
                        s.moves += 1;
                        s.place(it);
                    }
                });
            }
        }
        // Popped from the back: ascending tick, then schedule seq.
        self.fired
            .sort_unstable_by_key(|it| Reverse((it.tick, it.seq)));
    }

    /// Folds the level-0 slot holding `tick`, which no item of the run
    /// precedes, into the run. Only the run's tail can share that tick,
    /// so only the tail is re-sorted.
    fn fold(&mut self, tick: u64) {
        self.drain_slot(0, (tick & SLOT_MASK) as usize, |s, it| s.fired.push(it));
        let tail = self.fired.partition_point(|it| it.tick > tick);
        if let Some(same_tick) = self.fired.get_mut(tail..) {
            same_tick.sort_unstable_by_key(|it| Reverse(it.seq));
        }
        self.merges += 1;
    }
}

#[cfg(test)]
#[path = "../tests/support/sched_model.rs"]
mod sched_model;

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut Scheduler<u64>, horizon: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((tick, _seq, p)) = s.pop_next(horizon) {
            out.push((tick, p));
        }
        out
    }

    #[test]
    fn fires_in_tick_then_seq_order() {
        let mut s = Scheduler::new();
        s.schedule(10, 1u64);
        s.schedule(5, 2);
        s.schedule(10, 3);
        s.schedule(5, 4);
        let got = drain(&mut s, u64::MAX);
        assert_eq!(got, vec![(5, 2), (5, 4), (10, 1), (10, 3)]);
        assert!(s.is_empty());
    }

    #[test]
    fn horizon_bounds_popping() {
        let mut s = Scheduler::new();
        s.schedule(100, 1u64);
        s.schedule(300, 2);
        assert_eq!(s.pop_next(99), None);
        assert_eq!(s.pop_next(100), Some((100, 0, 1)));
        assert_eq!(s.pop_next(250), None);
        assert_eq!(s.pop_next(300), Some((300, 1, 2)));
    }

    #[test]
    fn far_events_cascade_correctly() {
        let mut s = Scheduler::new();
        // One event per level, plus one beyond the wheel horizon.
        let ticks = [3u64, 700, 70_000, 20_000_000, HORIZON + 17];
        for (i, &t) in ticks.iter().enumerate() {
            s.schedule(t, i as u64);
        }
        let got = drain(&mut s, u64::MAX);
        let expect: Vec<(u64, u64)> = ticks
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn schedule_in_past_fires_now() {
        let mut s = Scheduler::new();
        s.schedule(50, 1u64);
        assert_eq!(s.pop_next(u64::MAX), Some((50, 0, 1)));
        // Cursor is now 50; earlier tick clamps to the cursor.
        s.schedule(10, 2);
        assert_eq!(s.pop_next(u64::MAX), Some((50, 1, 2)));
    }

    #[test]
    fn wheel_matches_model_under_random_ops() {
        for seed in 1..=4u64 {
            let merges = sched_model::wheel_matches_model(seed, 3000);
            assert!(merges > 100, "seed {seed}: only {merges} merges");
        }
    }

    #[test]
    fn handles_and_chunks_are_reused_without_growth() {
        let mut s = Scheduler::new();
        for round in 0..100u64 {
            for k in 0..64u64 {
                s.schedule(round * 10 + k % 7, k);
            }
            while s.pop_next((round + 1) * 10).is_some() {}
        }
        // 64 events over 7 ticks: a chunk per occupied slot, handed
        // back when the slot fires.
        assert!(
            s.stats().pool_chunks <= 16,
            "pool grew to {} chunks despite churn",
            s.stats().pool_chunks
        );
    }

    /// More than two chunks' worth of events at one tick, scheduled
    /// from far enough back that they wait a level up, and as many
    /// again scheduled straight into the level-0 slot *before* the
    /// first lot cascades in behind them: neither chunk boundaries nor
    /// arrival order may show in the firing order.
    #[test]
    fn same_tick_burst_across_a_cascade_fires_in_seq_order() {
        let mut s = Scheduler::new();
        let n = (2 * CHUNK + CHUNK / 2) as u64;
        for k in 0..n {
            s.schedule(5_000, k);
        }
        s.schedule(4_800, u64::MAX);
        assert_eq!(s.pop_next(4_800), Some((4_800, n, u64::MAX)));
        // The 4 800 event left its level-1 slot straight for the run.
        assert_eq!(s.stats().moves, 0, "nothing has been re-placed yet");
        for k in n..2 * n {
            s.schedule(5_000, k);
        }
        let got = drain(&mut s, u64::MAX);
        let expect: Vec<(u64, u64)> = (0..2 * n).map(|k| (5_000, k)).collect();
        assert_eq!(got, expect);
        // The first burst went from level 1 into the run, and the
        // second was folded in from its level-0 slot: neither re-placed.
        assert_eq!(s.stats().moves, 0, "a burst was re-placed");
    }

    /// A schedule fewer than 256 ticks ahead parks in level 0 and must
    /// come out merged with the run in `(tick, seq)` order, whether it
    /// was parked before the cascade that built the run or after, and
    /// whether its tick is before, at, between or after the run's.
    /// (Payloads are the schedule seqs.)
    #[test]
    fn a_near_schedule_behind_a_pending_run_merges_in_tick_seq_order() {
        let mut s = Scheduler::new();
        for (seq, tick) in [1_030, 1_100, 1_100, 1_200, 900].into_iter().enumerate() {
            s.schedule(tick, seq as u64);
        }
        assert_eq!(s.pop_next(900), Some((900, 4, 4)));
        // Parked in level 0 *before* the cascade, at a tick the run
        // will also hold: arrival order must not show.
        s.schedule(1_100, 5);
        // Builds the run (1 030, 1 100 × 2, 1 200) and stops at its head.
        assert_eq!(s.pop_next(1_029), None);
        s.schedule(1_025, 6); // before every run item
        s.schedule(1_030, 7); // at the run's next tick
        s.schedule(1_100, 8); // at a run tick level 0 already holds
        s.schedule(1_150, 9); // between two run ticks
        s.schedule(1_250, 10); // after the run's last, still level 0
        s.schedule(1_300, 11); // next level-1 slot
        let expect = vec![
            (1_025, 6),
            (1_030, 0),
            (1_030, 7),
            (1_100, 1),
            (1_100, 2),
            (1_100, 5),
            (1_100, 8),
            (1_150, 9),
            (1_200, 3),
            (1_250, 10),
            (1_300, 11),
        ];
        assert_eq!(drain(&mut s, u64::MAX), expect);
        let st = s.stats();
        // 1 025, 1 030, 1 100 and 1 150; 1 250 outlived the run.
        assert_eq!(st.merges, 4, "one fold per level-0 tick behind the run");
        assert_eq!(st.moves, 0);
    }

    /// A run outlives the `pop_next` that built it: the horizon stops
    /// the walk, and a schedule — in the past, or behind the run —
    /// finds the run where it was left.
    #[test]
    fn a_run_left_at_a_horizon_survives_a_schedule_and_clamps_the_past() {
        let mut s = Scheduler::new();
        for k in 0..100u64 {
            s.schedule(1_000 + k, k);
        }
        assert_eq!(s.pop_next(1_000), Some((1_000, 0, 0)));
        assert_eq!(s.pop_next(1_000), None, "the run's next is 1 001");
        assert_eq!(s.len(), 99);
        assert_eq!(s.pop_next(1_002), Some((1_001, 1, 1)));
        assert_eq!(s.pop_next(1_002), Some((1_002, 2, 2)));
        // Time moved with the walk: the past is clamped to 1 002, not
        // to 768 where the cursor last jumped.
        s.schedule(7, 2_000);
        assert_eq!(s.pop_next(1_002), Some((1_002, 100, 2_000)));
        // A schedule behind the run merges into it.
        s.schedule(1_003, 1_000);
        let mut expect: Vec<(u64, u64)> = vec![(1_003, 3), (1_003, 1_000)];
        expect.extend((4..100).map(|k| (1_000 + k, k)));
        assert_eq!(drain(&mut s, u64::MAX), expect);
        assert!(s.is_empty());
    }

    /// The twin's shape: every timer re-arms far ahead when it fires.
    /// Each event is re-placed once (level 2 to level 1) and then goes
    /// into a run, not through a level-0 slot of its own.
    #[test]
    fn a_periodic_population_moves_once_per_event() {
        const PERIOD: u64 = 1_000_000;
        let mut s = Scheduler::new();
        for k in 0..10_000u64 {
            s.schedule(k * 100, k);
        }
        let mut fired = 0u64;
        while let Some((tick, _, k)) = s.pop_next(10 * PERIOD - 1) {
            assert_eq!(tick % PERIOD, k * 100);
            s.schedule(tick + PERIOD, k);
            fired += 1;
        }
        assert_eq!(fired, 100_000);
        let ratio = s.stats().moves as f64 / fired as f64;
        assert!(
            (0.98..=1.02).contains(&ratio),
            "{ratio} moves per event ({:?})",
            s.stats()
        );
    }
}
