//! The timer queue: pending timers in `(due, arm order)` order, so
//! expirations come out due-ordered with ties in arm order.
//!
//! One ordered map keyed by `(due, arm sequence)` holds every pending
//! timer. The key is the [`TimerToken`]: arm inserts, cancel removes,
//! the first key is the next due, and an advance pops the map's head up
//! to the target — already in expiry order. Arm, cancel and each expiry
//! are O(log n); nothing is proportional to elapsed time, so an advance
//! to a due as far off as `u64::MAX` costs what an advance of 1 ms does.
//!
//! The queue is a pure data structure (no threads, no wall clock): the
//! runtime owns the logical clock and drives [`TimerWheel::advance_to`]
//! explicitly, which is what makes expiry deterministic under test and
//! byte-identical across a recovered fleet and its never-crashed
//! oracle. The unit is the caller's: the fleet's clock counts ms, an
//! enactment's counts µs since the run started (its own reading of the
//! wall clock).

use std::collections::BTreeMap;

/// Handle returned by [`TimerWheel::arm`]: the timer's `(due, arm
/// sequence)` key. Sequences are never reused, so a token spends on
/// cancel or expiry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerToken {
    due: u64,
    seq: u64,
}

/// The queue. `T` is the per-timer payload handed back on expiry.
pub struct TimerWheel<T> {
    pending: BTreeMap<(u64, u64), T>,
    now: u64,
    next_seq: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> TimerWheel<T> {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty queue at clock 0.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            pending: BTreeMap::new(),
            now: 0,
            next_seq: 0,
        }
    }

    /// The queue's current clock, in the caller's unit.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Live (armed, not yet fired or cancelled) timers.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Arms a timer due at absolute clock `due`. A due not in the future
    /// fires on the next advance that moves the clock.
    pub fn arm(&mut self, due: u64, data: T) -> TimerToken {
        let token = TimerToken {
            due,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.pending.insert((due, token.seq), data);
        token
    }

    /// Cancels a pending timer, returning its payload; `None` if the
    /// token was already spent (fired or cancelled).
    pub fn cancel(&mut self, token: TimerToken) -> Option<T> {
        self.pending.remove(&(token.due, token.seq))
    }

    /// The earliest pending due, exactly; `None` when nothing is armed.
    /// It is at or before [`now`](TimerWheel::now) for a timer armed in
    /// the past.
    pub fn next_due(&self) -> Option<u64> {
        self.pending.first_key_value().map(|(&(due, _), _)| due)
    }

    /// Advances the clock to `to` and returns every timer due by then as
    /// `(due, payload)` pairs in `(due, arm order)` order. The clock only
    /// moves forward: `to ≤ now` fires nothing and leaves it alone.
    pub fn advance_to(&mut self, to: u64) -> Vec<(u64, T)> {
        let mut fired = Vec::new();
        if to <= self.now {
            return fired;
        }
        self.now = to;
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 > to {
                break;
            }
            let ((due, _), data) = entry.remove_entry();
            fired.push((due, data));
        }
        fired
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

    #[test]
    fn far_future_dues_fire_exactly_and_promptly() {
        // A due past any fixed horizon must not make an advance walk the
        // time in between; the watchdog catches one that does.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut w = TimerWheel::new();
            for d in [1u64 << 60, 1 << 63, u64::MAX] {
                w.arm(d, d);
            }
            for d in [1u64 << 60, 1 << 63, u64::MAX] {
                assert!(w.advance_to(d - 1).is_empty(), "early fire before {d}");
                assert_eq!(w.next_due(), Some(d), "exact next due");
                assert_eq!(w.advance_to(d), vec![(d, d)], "exact fire at {d}");
            }
            assert!(w.is_empty());
            assert_eq!(w.now(), u64::MAX);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("far-future advances return");
    }

    #[test]
    fn the_clock_only_moves_forward() {
        let mut w = TimerWheel::new();
        w.advance_to(50);
        w.arm(40, "past");
        assert_eq!(w.next_due(), Some(40), "a past due reads back as armed");
        assert!(w.advance_to(50).is_empty(), "to == now moves nothing");
        assert!(w.advance_to(10).is_empty(), "to < now moves nothing");
        assert_eq!(w.now(), 50);
        assert_eq!(w.advance_to(51), vec![(40, "past")]);
    }
}
