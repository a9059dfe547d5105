//! Hierarchical timer wheel — the event scheduler behind the
//! million-session digital twin (DESIGN §13).
//!
//! At twin scale (millions of outstanding timers, constant churn) a
//! binary heap's O(log n) per schedule/pop is the bottleneck, so
//! [`Scheduler`] is a fixed-hierarchy timer wheel: 4 levels × 256
//! slots covering 2³² ticks, O(1) schedule and O(1) cancel, entries
//! stored in a slab with an intrusive doubly-linked free/slot list —
//! no per-event allocation after warm-up.
//!
//! **Determinism.** Events fire in `(tick, seq)` order, where `seq` is
//! the global schedule sequence number: a slot's entries are sorted by
//! `seq` when the slot expires (slots are tiny, so the sort amortises
//! to nothing). That order is the whole contract, and the reference
//! for it lives in test code: `tests/support/sched_model.rs` is an
//! ordered map keyed `(tick, seq)` that shares no line with this
//! module, and every random op stream must fire, cancel and count
//! identically on both.
//!
//! Tokens are generational: a [`Token`] returned by
//! [`Scheduler::schedule`] is invalidated by cancel/fire, and a stale
//! token (slot reused by a later event) can never cancel the new
//! occupant.

use std::collections::VecDeque;

/// Handle to a scheduled event; generational, so stale handles are
/// harmless (cancel of an already-fired/cancelled event is a no-op).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    idx: u32,
    gen: u32,
}

impl Token {
    /// A token that never refers to a live event.
    pub const NONE: Token = Token {
        idx: u32::MAX,
        gen: u32::MAX,
    };
}

const LEVELS: usize = 4;
const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS; // 256 per level
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Ticks covered by the four levels; anything farther parks in the
/// overflow list until the cursor gets close enough.
const HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);
const NIL: u32 = u32::MAX;

/// Where an entry currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    /// On the free list.
    Free,
    /// Linked into `level`'s `slot` list.
    Slot(u8, u16),
    /// Pushed to the due queue (fired, not yet popped).
    Due,
    /// Parked beyond the wheel horizon.
    Overflow,
}

struct Entry<T> {
    tick: u64,
    seq: u64,
    gen: u32,
    next: u32,
    prev: u32,
    loc: Loc,
    payload: Option<T>,
}

/// The sharded-twin event scheduler. Payloads are `Copy` so firing
/// never allocates.
pub struct Scheduler<T: Copy> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    /// Global schedule counter: the deterministic tiebreak for events
    /// at the same tick.
    seq: u64,
    /// Current wheel time (last fired tick).
    cursor: u64,
    /// Intrusive list heads, `heads[level][slot]`.
    heads: Vec<[u32; SLOTS]>,
    /// Slot-occupancy bitmaps, 256 bits per level.
    bits: Vec<[u64; 4]>,
    /// Entries scheduled ≥ `HORIZON` ticks ahead, as `(idx, gen)`:
    /// cancelling one releases its slab slot immediately, and the slot
    /// can be reused by a *new* overflow event before the stale list
    /// element is swept — the generation tells the copies apart (a
    /// bare index would re-admit the same entry twice and corrupt the
    /// intrusive slot list).
    overflow: Vec<(u32, u32)>,
    /// Fired-but-unpopped entries, ascending `seq`.
    due: VecDeque<(u32, u32)>,
    live: usize,
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
            entries: Vec::new(),
            free_head: NIL,
            seq: 0,
            cursor: 0,
            heads: vec![[NIL; SLOTS]; LEVELS],
            bits: vec![[0u64; 4]; LEVELS],
            overflow: Vec::new(),
            due: VecDeque::new(),
            live: 0,
        }
    }

    /// Pre-sizes the slab for `n` outstanding events.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self::new();
        s.entries.reserve(n);
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

    fn alloc(&mut self, tick: u64, payload: T) -> (u32, u32) {
        let seq = self.seq;
        self.seq += 1;
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            if let Some(e) = self.entries.get_mut(idx as usize) {
                self.free_head = e.next;
                e.tick = tick;
                e.seq = seq;
                e.next = NIL;
                e.prev = NIL;
                e.payload = Some(payload);
            }
            idx
        } else {
            let idx = self.entries.len() as u32;
            self.entries.push(Entry {
                tick,
                seq,
                gen: 0,
                next: NIL,
                prev: NIL,
                loc: Loc::Free,
                payload: Some(payload),
            });
            idx
        };
        let gen = self.entries.get(idx as usize).map_or(0, |e| e.gen);
        (idx, gen)
    }

    fn release(&mut self, idx: u32) {
        if let Some(e) = self.entries.get_mut(idx as usize) {
            e.loc = Loc::Free;
            e.payload = None;
            // Wrapping add keeps release panic-free; a token only
            // matches when both idx and gen agree, so even a wrapped
            // generation cannot resurrect a stale handle by accident.
            e.gen = e.gen.wrapping_add(1);
            e.prev = NIL;
            e.next = self.free_head;
            self.free_head = idx;
        }
    }

    /// Schedules `payload` to fire at absolute `tick` (clamped to the
    /// present: ticks at or before `now()` fire on the next pop).
    /// O(1).
    pub fn schedule(&mut self, tick: u64, payload: T) -> Token {
        let tick = tick.max(self.cursor);
        let (idx, gen) = self.alloc(tick, payload);
        self.live += 1;
        self.wheel_insert(idx);
        Token { idx, gen }
    }

    /// Cancels a scheduled event; `true` if it was still pending.
    /// O(1).
    pub fn cancel(&mut self, token: Token) -> bool {
        let Some(e) = self.entries.get(token.idx as usize) else {
            return false;
        };
        if e.gen != token.gen {
            return false;
        }
        match e.loc {
            Loc::Free => return false,
            Loc::Slot(level, slot) => {
                self.unlink(token.idx, level as usize, slot as usize);
            }
            // Due/Overflow entries are skipped lazily by gen check.
            Loc::Due | Loc::Overflow => {}
        }
        self.release(token.idx);
        self.live -= 1;
        true
    }

    /// Pops the next event with `tick <= horizon`, advancing scheduler
    /// time to its tick. Returns `(tick, seq, payload)`.
    pub fn pop_next(&mut self, horizon: u64) -> Option<(u64, u64, T)> {
        loop {
            while let Some(&(idx, gen)) = self.due.front() {
                if !self.token_live(idx, gen, Loc::Due) {
                    self.due.pop_front();
                    continue;
                }
                let tick = self.entries.get(idx as usize).map_or(0, |e| e.tick);
                if tick > horizon {
                    // Shouldn't happen (due entries are at the cursor),
                    // but keep the contract anyway.
                    return None;
                }
                self.due.pop_front();
                let (seq, payload) = match self.entries.get_mut(idx as usize) {
                    Some(e) => (e.seq, e.payload.take()),
                    None => (0, None),
                };
                self.release(idx);
                self.live -= 1;
                if let Some(p) = payload {
                    return Some((tick, seq, p));
                }
                continue;
            }
            let bound = self.next_bound()?;
            if bound > horizon {
                return None;
            }
            self.advance_to(bound);
        }
    }

    // ── Internals ──────────────────────────────────────────────────────

    fn token_live(&self, idx: u32, gen: u32, want: Loc) -> bool {
        self.entries
            .get(idx as usize)
            .is_some_and(|e| e.gen == gen && e.loc == want)
    }

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

    fn wheel_insert(&mut self, idx: u32) {
        let (tick, delta) = match self.entries.get(idx as usize) {
            Some(e) => (e.tick, e.tick.saturating_sub(self.cursor)),
            None => return,
        };
        if delta >= HORIZON {
            let mut gen = 0;
            if let Some(e) = self.entries.get_mut(idx as usize) {
                e.loc = Loc::Overflow;
                gen = e.gen;
            }
            self.overflow.push((idx, gen));
            return;
        }
        // Smallest level whose span covers the delta.
        let level = match delta {
            0..=0xFF => 0usize,
            0x100..=0xFFFF => 1,
            0x1_0000..=0xFF_FFFF => 2,
            _ => 3,
        };
        let slot = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let head = self.heads.get(level).map_or(NIL, |h| h[slot]);
        if let Some(e) = self.entries.get_mut(idx as usize) {
            e.loc = Loc::Slot(level as u8, slot as u16);
            e.prev = NIL;
            e.next = head;
        }
        if head != NIL {
            if let Some(h) = self.entries.get_mut(head as usize) {
                h.prev = idx;
            }
        }
        if let Some(hs) = self.heads.get_mut(level) {
            hs[slot] = idx;
        }
        self.set_bit(level, slot);
    }

    fn unlink(&mut self, idx: u32, level: usize, slot: usize) {
        let (prev, next) = match self.entries.get(idx as usize) {
            Some(e) => (e.prev, e.next),
            None => return,
        };
        if prev != NIL {
            if let Some(p) = self.entries.get_mut(prev as usize) {
                p.next = next;
            }
        } else if let Some(hs) = self.heads.get_mut(level) {
            hs[slot] = next;
        }
        if next != NIL {
            if let Some(n) = self.entries.get_mut(next as usize) {
                n.prev = prev;
            }
        }
        if self.heads.get(level).map_or(NIL, |h| h[slot]) == NIL {
            self.clear_bit(level, slot);
        }
    }

    /// Detaches and returns every entry index in `level`/`slot`.
    fn drain_slot(&mut self, level: usize, slot: usize, out: &mut Vec<u32>) {
        let mut cur = self.heads.get(level).map_or(NIL, |h| h[slot]);
        if let Some(hs) = self.heads.get_mut(level) {
            hs[slot] = NIL;
        }
        self.clear_bit(level, slot);
        while cur != NIL {
            let next = self.entries.get(cur as usize).map_or(NIL, |e| e.next);
            out.push(cur);
            cur = next;
        }
    }

    /// Lower bound on the next event's tick, across levels + overflow.
    /// Exact for level 0; slot-base bound for higher levels.
    fn next_bound(&mut self) -> Option<u64> {
        let mut best: Option<u64> = None;
        let mut upd = |t: u64| {
            if best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        };
        let pos0 = (self.cursor & SLOT_MASK) as usize;
        if let Some(off) = self.next_slot_offset(0, pos0) {
            // Level-0 slots hold exact ticks; offset 0 = the cursor's
            // own slot (possible right after a jump, before firing).
            upd(self.cursor + off as u64);
        }
        for level in 1..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let span = 1u64 << shift;
            let pos = ((self.cursor >> shift) & SLOT_MASK) as usize;
            // Scan strictly-ahead slots: the cursor's own slot at a
            // higher level holds entries a full window wrap away, so
            // it is due *last*, not first. Scanning from `pos + 1`
            // makes the first occupied slot the genuinely nearest one,
            // with `off + 1 == 256` (only `pos` occupied) landing the
            // full-wrap bound as the natural limit of the formula.
            let from = (pos + 1) & (SLOTS - 1);
            if let Some(off) = self.next_slot_offset(level, from) {
                let aligned = self.cursor & !(span - 1);
                upd(aligned + span * (off as u64 + 1));
            }
        }
        for &(idx, gen) in &self.overflow {
            if let Some(e) = self.entries.get(idx as usize) {
                if e.gen == gen && e.loc == Loc::Overflow {
                    upd(e.tick);
                }
            }
        }
        best
    }

    /// Jumps the cursor to `tick`, cascading higher-level slots at the
    /// landing position and firing the level-0 slot into `due`.
    fn advance_to(&mut self, tick: u64) {
        self.cursor = tick;

        // Re-admit overflow entries that now fit the wheel horizon.
        if !self.overflow.is_empty() {
            let mut near: Vec<u32> = Vec::new();
            let cursor = self.cursor;
            let entries = &self.entries;
            self.overflow
                .retain(|&(idx, gen)| match entries.get(idx as usize) {
                    Some(e) if e.gen == gen && e.loc == Loc::Overflow => {
                        if e.tick.saturating_sub(cursor) < HORIZON {
                            near.push(idx);
                            false
                        } else {
                            true
                        }
                    }
                    _ => false, // cancelled or stale copy of a reused slot
                });
            for idx in near {
                self.wheel_insert(idx);
            }
        }

        // Cascade the landing slot of each higher level, top-down, so
        // entries settle into their final level-0 slots.
        let mut moved: Vec<u32> = Vec::new();
        for level in (1..LEVELS).rev() {
            let pos = ((self.cursor >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
            let occupied = self
                .bits
                .get(level)
                .is_some_and(|w| w[pos >> 6] & (1u64 << (pos & 63)) != 0);
            if occupied {
                self.drain_slot(level, pos, &mut moved);
            }
        }
        let mut fired: Vec<(u64, u32, u32)> = Vec::new();
        for idx in moved.drain(..) {
            let (tick_e, gen) = match self.entries.get(idx as usize) {
                Some(e) => (e.tick, e.gen),
                None => continue,
            };
            if tick_e <= self.cursor {
                if let Some(e) = self.entries.get_mut(idx as usize) {
                    e.loc = Loc::Due;
                }
                fired.push((
                    self.entries.get(idx as usize).map_or(0, |e| e.seq),
                    idx,
                    gen,
                ));
            } else {
                self.wheel_insert(idx);
            }
        }

        // Fire the level-0 slot at the cursor (all entries in it share
        // the cursor's tick — see the module docs).
        let pos0 = (self.cursor & SLOT_MASK) as usize;
        let occupied0 = self
            .bits
            .first()
            .is_some_and(|w| w[pos0 >> 6] & (1u64 << (pos0 & 63)) != 0);
        if occupied0 {
            let mut slot_entries: Vec<u32> = Vec::new();
            self.drain_slot(0, pos0, &mut slot_entries);
            for idx in slot_entries {
                let (tick_e, seq, gen) = match self.entries.get(idx as usize) {
                    Some(e) => (e.tick, e.seq, e.gen),
                    None => continue,
                };
                if tick_e == self.cursor {
                    if let Some(e) = self.entries.get_mut(idx as usize) {
                        e.loc = Loc::Due;
                    }
                    fired.push((seq, idx, gen));
                } else {
                    // A same-slot entry one window ahead (inserted
                    // before the cursor wrapped): put it back.
                    self.wheel_insert(idx);
                }
            }
        }

        // Deterministic same-tick ordering: ascending schedule seq.
        fired.sort_unstable_by_key(|&(seq, _, _)| seq);
        for (_, idx, gen) in fired {
            self.due.push_back((idx, gen));
        }
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
    fn cancel_prevents_fire_and_stale_token_is_noop() {
        let mut s = Scheduler::new();
        let a = s.schedule(7, 1u64);
        s.schedule(8, 2);
        assert!(s.cancel(a));
        assert!(!s.cancel(a), "double cancel must be a no-op");
        // Slot reuse: the new event takes a's slab slot with a new
        // generation; the stale token must not cancel it.
        s.schedule(9, 3);
        assert!(!s.cancel(a));
        let got = drain(&mut s, u64::MAX);
        assert_eq!(got, vec![(8, 2), (9, 3)]);
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
            sched_model::wheel_matches_model(seed, 3000);
        }
    }

    #[test]
    fn slab_reuses_slots_without_growth() {
        let mut s = Scheduler::new();
        for round in 0..100u64 {
            for k in 0..64u64 {
                s.schedule(round * 10 + k % 7, k);
            }
            while s.pop_next((round + 1) * 10).is_some() {}
        }
        assert!(
            s.entries.len() <= 128,
            "slab grew to {} despite churn",
            s.entries.len()
        );
    }
}
