//! A hierarchical timer wheel: millions of pending timers, O(1) arm
//! and cancel, expirations in due order.
//!
//! Six levels of 64 slots each, with level `l` spanning ticks of
//! `2^(6l)` ms — level 0 resolves milliseconds, level 1 ~64 ms, level
//! 2 ~4 s, level 3 ~4.4 min, level 4 ~4.7 h, and level 5 ~12.7 days
//! per slot (dues past the top level's ~2.2-year horizon park in its
//! farthest slot and re-cascade). An entry is filed at the level
//! spanning its remaining distance (`level = hsb(due - now) / 6`), the
//! coarsest level whose slot is still unambiguous before the clock can
//! wrap past it — the **cascade invariant**: when the clock enters a
//! level-`l` slot, every entry in it has come within `2^(6l)` ms of
//! its due, so re-filing sends it strictly downward and each entry
//! cascades at most once per level.
//!
//! * **Arm** computes a level and slot with two shifts and pushes onto
//!   the slot's vector — O(1), no allocation beyond the slab.
//! * **Cancel** bumps the entry's generation and frees the slab index
//!   — O(1) *lazy deletion*: the `(index, generation)` pair left in
//!   the slot no longer matches and is skipped when the slot drains,
//!   and a reused index can never be confused with its previous
//!   tenant.
//! * **Advance** jumps boundary to boundary using per-level occupancy
//!   bitmaps (one `u64` per level), so an idle wheel advances a year
//!   in a few dozen probes — cost tracks *occupied* slots crossed and
//!   entries moved, not elapsed time.
//!
//! The wheel is a pure data structure (no threads, no wall clock): the
//! runtime owns the logical clock and drives [`TimerWheel::advance_to`]
//! explicitly, which is what makes expiry deterministic under test and
//! byte-identical across a recovered fleet and its never-crashed
//! oracle. The unit is the caller's: the fleet's clock counts ms, an
//! enactment's counts µs since the run started (its own reading of the
//! wall clock), and the spans above scale with it.

/// Number of levels; level `l` has granularity `2^(6l)` ms.
const LEVELS: usize = 6;
/// log2(slots per level).
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask for a slot index.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;

/// Handle returned by [`TimerWheel::arm`]; spends on cancel or expiry.
/// The generation makes tokens single-use even though slab indices are
/// recycled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerToken {
    index: u32,
    generation: u32,
}

struct Entry<T> {
    due: u64,
    /// Arm order; ties on `due` expire in arm order.
    seq: u64,
    /// Bumped on fire and cancel; slot references and tokens carrying
    /// an older generation are dead.
    generation: u32,
    /// `None` once fired or cancelled (the slab hole awaiting reuse).
    data: Option<T>,
}

/// The wheel. `T` is the per-timer payload handed back on expiry.
pub struct TimerWheel<T> {
    /// `slots[level][slot]` holds `(slab index, generation)` pairs in
    /// insertion order; stale pairs are skipped on drain.
    slots: Vec<Vec<Vec<(u32, u32)>>>,
    /// Bit `s` of `occupancy[level]` set iff `slots[level][s]` is
    /// non-empty (may be stale-set by lazily cancelled entries, never
    /// stale-clear).
    occupancy: [u64; LEVELS],
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    now: u64,
    next_seq: u64,
    pending: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> TimerWheel<T> {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel at clock 0.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            slots: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupancy: [0; LEVELS],
            entries: Vec::new(),
            free: Vec::new(),
            now: 0,
            next_seq: 0,
            pending: 0,
        }
    }

    /// The wheel's current clock, in ms.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Live (armed, not yet fired or cancelled) timers.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True when no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// The level and slot an entry fireable at `at` files under, given
    /// the current clock: the level spanning the remaining *distance*
    /// (`hsb(at - now) / 6`), under which the slot's coarse index is at
    /// most 64 ahead of the clock — always a boundary the advance loop
    /// still visits before that slot index recurs. `at` must be
    /// strictly greater than `now` — the loop only visits future
    /// boundaries, so already-due entries are filed at `now + 1` by the
    /// caller.
    fn place(&self, at: u64) -> (usize, usize) {
        debug_assert!(at > self.now);
        let delta = at - self.now;
        let level = ((63 - delta.leading_zeros()) / SLOT_BITS) as usize;
        if level < LEVELS {
            (
                level,
                ((at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize,
            )
        } else {
            // Beyond the top level's horizon: park in the farthest
            // future slot — its boundary (`now + 63·2^30` at the
            // latest) is strictly before any due at distance `≥ 2^36`,
            // so a parked entry always re-cascades, never fires late.
            let top = LEVELS - 1;
            let coarse_now = self.now >> (SLOT_BITS * top as u32);
            (top, ((coarse_now + SLOT_MASK) & SLOT_MASK) as usize)
        }
    }

    fn file(&mut self, index: u32) {
        let e = &self.entries[index as usize];
        let (due, generation) = (e.due, e.generation);
        let (level, slot) = self.place(due.max(self.now + 1));
        self.slots[level][slot].push((index, generation));
        self.occupancy[level] |= 1 << slot;
    }

    /// Arms a timer due at absolute clock `due` (immediately due if not
    /// in the future — it fires on the next advance). O(1).
    pub fn arm(&mut self, due: u64, data: T) -> TimerToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        let index = match self.free.pop() {
            Some(i) => {
                let e = &mut self.entries[i as usize];
                e.due = due;
                e.seq = seq;
                e.data = Some(data);
                i
            }
            None => {
                self.entries.push(Entry {
                    due,
                    seq,
                    generation: 0,
                    data: Some(data),
                });
                (self.entries.len() - 1) as u32
            }
        };
        self.pending += 1;
        self.file(index);
        TimerToken {
            index,
            generation: self.entries[index as usize].generation,
        }
    }

    /// Cancels a pending timer, returning its payload; `None` if the
    /// token was already spent (fired or cancelled). O(1): the slot
    /// reference is abandoned in place and skipped when its slot
    /// drains.
    pub fn cancel(&mut self, token: TimerToken) -> Option<T> {
        let e = self.entries.get_mut(token.index as usize)?;
        if e.generation != token.generation {
            return None;
        }
        let data = e.data.take()?;
        e.generation = e.generation.wrapping_add(1);
        self.pending -= 1;
        self.free.push(token.index);
        Some(data)
    }

    /// The earliest pending due, as a lower bound usable for sleeping:
    /// exact for entries within 64 ms of the clock, otherwise the
    /// start of the coarse slot the entry currently waits in.
    pub fn next_due(&self) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        let mut best: Option<u64> = None;
        for level in 0..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let coarse_now = self.now >> shift;
            let occ = self.occupancy[level];
            if occ == 0 {
                continue;
            }
            for d in 1..=SLOTS as u64 {
                let slot = ((coarse_now + d) & SLOT_MASK) as usize;
                if occ & (1 << slot) != 0 {
                    // Confirm liveness lazily (the bit may outlive its
                    // cancelled entries).
                    let live = self.slots[level][slot]
                        .iter()
                        .any(|&(i, g)| self.entries[i as usize].generation == g);
                    if live {
                        let t = ((coarse_now + d) << shift).max(self.now);
                        best = Some(best.map_or(t, |b: u64| b.min(t)));
                        break;
                    }
                }
            }
        }
        best
    }

    /// Advances the clock to `to`, draining every boundary crossed:
    /// entries within reach fire, coarser slots cascade downward.
    /// Returns the fired `(due, payload)` pairs in `(due, arm order)`
    /// order. Cost is proportional to occupied slots crossed plus
    /// entries moved — an empty wheel advances any distance in
    /// O(levels).
    pub fn advance_to(&mut self, to: u64) -> Vec<(u64, T)> {
        let mut fired: Vec<(u64, u64, T)> = Vec::new();
        while self.now < to {
            let Some(boundary) = self.next_boundary(to) else {
                self.now = to;
                break;
            };
            self.now = boundary;
            // Drain every level whose slot boundary this is, coarsest
            // first so cascading entries re-file into finer slots the
            // clock has not yet passed.
            for level in (0..LEVELS).rev() {
                let shift = SLOT_BITS * level as u32;
                if level > 0 && self.now & ((1 << shift) - 1) != 0 {
                    continue; // not a boundary of this level
                }
                let slot = ((self.now >> shift) & SLOT_MASK) as usize;
                if self.occupancy[level] & (1 << slot) == 0 {
                    continue;
                }
                let drained = std::mem::take(&mut self.slots[level][slot]);
                self.occupancy[level] &= !(1 << slot);
                for (index, generation) in drained {
                    let e = &mut self.entries[index as usize];
                    if e.generation != generation {
                        continue; // lazily cancelled (or index reused)
                    }
                    if e.due <= self.now {
                        let data = e.data.take().expect("live entry has data");
                        e.generation = e.generation.wrapping_add(1);
                        self.pending -= 1;
                        self.free.push(index);
                        fired.push((e.due, e.seq, data));
                    } else {
                        self.file(index); // cascade downward
                    }
                }
            }
        }
        fired.sort_by_key(|a| (a.0, a.1));
        fired
            .into_iter()
            .map(|(due, _, data)| (due, data))
            .collect()
    }

    /// The earliest slot boundary in `(now, to]` that could hold work,
    /// or `None` when no occupied slot intervenes.
    fn next_boundary(&self, to: u64) -> Option<u64> {
        let mut best: Option<u64> = None;
        for level in 0..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let occ = self.occupancy[level];
            if occ == 0 {
                continue;
            }
            let coarse_now = self.now >> shift;
            for d in 1..=SLOTS as u64 {
                let coarse = coarse_now + d;
                let slot = (coarse & SLOT_MASK) as usize;
                let t = coarse << shift;
                if t > to {
                    break;
                }
                if occ & (1 << slot) != 0 {
                    best = Some(best.map_or(t, |b: u64| b.min(t)));
                    break;
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn fires_in_due_order_with_arm_order_ties() {
        let mut w = TimerWheel::new();
        w.arm(50, "b");
        w.arm(10, "a");
        w.arm(50, "c");
        assert_eq!(w.len(), 3);
        let fired = w.advance_to(100);
        assert_eq!(
            fired,
            vec![(10, "a"), (50, "b"), (50, "c")],
            "due order, ties in arm order"
        );
        assert!(w.is_empty());
        assert_eq!(w.now(), 100);
    }

    #[test]
    fn advance_stops_exactly_at_the_target() {
        let mut w = TimerWheel::new();
        w.arm(100, "later");
        assert!(w.advance_to(99).is_empty());
        assert_eq!(w.now(), 99);
        assert_eq!(w.advance_to(100), vec![(100, "later")]);
    }

    #[test]
    fn cancel_is_single_use_and_generation_checked() {
        let mut w = TimerWheel::new();
        let t1 = w.arm(10, 1u32);
        let t2 = w.arm(20, 2u32);
        assert_eq!(w.cancel(t1), Some(1));
        assert_eq!(w.cancel(t1), None, "spent token");
        assert_eq!(w.len(), 1);
        // The freed index is reused; the stale token must not cancel
        // the new tenant, and the new tenant must fire exactly once at
        // its own due even though the old slot still references the
        // index.
        let t3 = w.arm(30, 3u32);
        assert_eq!(w.cancel(t1), None, "stale generation");
        assert_eq!(w.advance_to(100), vec![(20, 2), (30, 3)]);
        assert_eq!(w.cancel(t3), None, "fired tokens are spent");
        let _ = t2;
    }

    #[test]
    fn past_due_arms_fire_on_the_next_advance() {
        let mut w = TimerWheel::new();
        w.advance_to(1_000);
        w.arm(5, "ancient");
        w.arm(1_000, "now");
        assert_eq!(w.advance_to(1_001), vec![(5, "ancient"), (1_000, "now")]);
    }

    #[test]
    fn cascades_preserve_exact_dues_across_levels() {
        let mut w = TimerWheel::new();
        // One due per level's range, plus one past the top horizon.
        let dues = [
            3u64,
            200,
            5_000,
            300_000,
            20_000_000,
            1 << 37,
            (1 << 37) + 1,
        ];
        for &d in &dues {
            w.arm(d, d);
        }
        for &d in &dues {
            // Stop just short: nothing may fire early.
            let before = w.advance_to(d - 1);
            assert!(before.is_empty(), "early fire before {d}: {before:?}");
            assert_eq!(w.advance_to(d), vec![(d, d)], "exact fire at {d}");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn next_due_is_a_usable_lower_bound() {
        let mut w = TimerWheel::new();
        assert_eq!(w.next_due(), None);
        w.arm(7, ());
        assert_eq!(w.next_due(), Some(7), "near entries are exact");
        let mut w = TimerWheel::new();
        let t = w.arm(100_000, ());
        let bound = w.next_due().expect("pending");
        assert!(bound <= 100_000 && bound > 0, "{bound}");
        w.cancel(t);
        assert_eq!(w.next_due(), None, "cancelled entries do not bound");
    }

    #[test]
    fn idle_advance_is_cheap_and_exact_over_a_year() {
        let mut w = TimerWheel::new();
        let year = 365 * 24 * 3_600_000u64;
        w.arm(year, "anniversary");
        // If this looped per-ms it would never finish in test time.
        assert!(w.advance_to(year - 1).is_empty());
        assert_eq!(w.advance_to(year + 1), vec![(year, "anniversary")]);
    }

    #[test]
    fn randomized_scatter_matches_a_naive_oracle() {
        // Deterministic xorshift; no external crates.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut w = TimerWheel::new();
        let mut oracle: Vec<(u64, u64)> = Vec::new(); // (due, id)
        let mut tokens = Vec::new();
        for id in 0..5_000u64 {
            let due = rng() % 2_000_000;
            tokens.push((w.arm(due, id), id));
            oracle.push((due, id));
        }
        // Cancel a third; the freed slab indices get reused by a second
        // wave armed mid-stream.
        let mut cancelled = BTreeSet::new();
        for i in (0..tokens.len()).step_by(3) {
            assert!(w.cancel(tokens[i].0).is_some());
            cancelled.insert(tokens[i].1);
        }
        for id in 5_000..6_000u64 {
            let due = rng() % 2_000_000;
            w.arm(due, id);
            oracle.push((due, id));
        }
        // Advance in random hops; the wheel must fire exactly the
        // still-armed dues in order.
        let mut clock = 0;
        let mut fired: Vec<(u64, u64)> = Vec::new();
        while clock < 2_100_000 {
            clock += rng() % 70_000 + 1;
            fired.extend(w.advance_to(clock));
        }
        let mut expected: Vec<(u64, u64)> = oracle
            .into_iter()
            .filter(|(_, id)| !cancelled.contains(id))
            .collect();
        expected.sort_by_key(|&(due, id)| (due, id)); // id == arm order
        assert_eq!(fired.len(), expected.len());
        assert_eq!(fired, expected);
        assert!(w.is_empty());
    }
}
