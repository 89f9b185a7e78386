//! Timers compiled into the control flow graph as ordinary channel
//! goals.
//!
//! The surface forms `after(ev, 30s)`, `deadline(ev, 24h)`, and
//! `every(ev, 5m)` follow the same compilation discipline as triggers
//! and order constraints: no new goal forms, only `send(ξ)`/
//! `receive(ξ)` plumbing plus one synthetic **tick event** per timer
//! whose name ([`ctr::timer::tick_name`]) carries the delay. The
//! verifier, the tabled `Analyzer`, the journal, and the wire protocol
//! all see plain events; only the runtime's timer wheel interprets the
//! names.
//!
//! * **`after(e, d)`** gates `e` behind the tick: every occurrence of
//!   `e` becomes `receive(ξ) ⊗ e`, and `tick ⊗ send(ξ)` runs
//!   concurrently with the whole goal. `e` cannot fire before the tick
//!   has — the exact shape `Apply` uses for `before(tick, e)` — and
//!   the goal is rewritten *in place* (a single copy), so no
//!   or-branch duplication can misroute an early commitment.
//! * **`deadline(e, d)`** races a watchdog against `e`: every
//!   occurrence of `e` becomes `e ⊗ send(ξ)`, and
//!   `receive(ξ) ∨ tick` runs concurrently. Firing `e` enables the
//!   silent receive (the structural cancellation the runtime mirrors
//!   by disarming the wheel entry); firing the tick resolves the
//!   watchdog the other way and surfaces as an ordinary event that
//!   enactment escalates into compensation. In the *verification*
//!   semantics the tick remains possible even after `e` — a sound
//!   over-approximation of the runtime, which cancels it.
//! * **`every(e, d)`** is pure sugar over `after`: the k-th occurrence
//!   of the family `e@1, e@2, …` (minted by `repeat`) is gated at
//!   `k·d`, staggering the family on the period.
//!
//! A timer whose event does not occur in the goal compiles to the
//! identity, the same convention as an eventual trigger on a missing
//! event. Declaring the same timer twice mints the same tick name
//! twice and is rejected downstream by the unique-event check.

use ctr::apply::ChannelAlloc;
use ctr::goal::{or, seq, Channel, Goal};
use ctr::symbol::{sym, Symbol};
use ctr::timer::{render_delay, tick_name, TimerKind};
use std::fmt;

/// What the timer does when it elapses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerRule {
    /// `after(ev, d)`: the event may not fire before `d` has elapsed.
    After {
        /// Delay from instance start, in milliseconds.
        delay_ms: u64,
    },
    /// `deadline(ev, d)`: if the event has not fired within `d`, the
    /// tick fires instead (escalation / compensation at enactment).
    Deadline {
        /// Deadline from instance start, in milliseconds.
        delay_ms: u64,
    },
    /// `every(ev, d)`: the k-th occurrence of the family is gated at
    /// `k·d` — a periodic schedule over `repeat`-minted occurrences.
    Every {
        /// Period between occurrences, in milliseconds.
        period_ms: u64,
    },
}

/// One surface timer declaration: `after(ev, 30s)` etc.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerSpec {
    /// The guarded event — an exact name or a `repeat` family base
    /// (`poll` matches `poll@1`, `poll@2`, …).
    pub event: Symbol,
    /// Gate, watchdog, or periodic schedule.
    pub rule: TimerRule,
}

impl TimerSpec {
    /// An `after(event, delay)` gate.
    pub fn after(event: impl Into<Symbol>, delay_ms: u64) -> TimerSpec {
        TimerSpec {
            event: event.into(),
            rule: TimerRule::After { delay_ms },
        }
    }

    /// A `deadline(event, delay)` watchdog.
    pub fn deadline(event: impl Into<Symbol>, delay_ms: u64) -> TimerSpec {
        TimerSpec {
            event: event.into(),
            rule: TimerRule::Deadline { delay_ms },
        }
    }

    /// An `every(event, period)` schedule.
    pub fn every(event: impl Into<Symbol>, period_ms: u64) -> TimerSpec {
        TimerSpec {
            event: event.into(),
            rule: TimerRule::Every { period_ms },
        }
    }
}

impl fmt::Display for TimerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rule {
            TimerRule::After { delay_ms } => {
                write!(f, "after({}, {})", self.event, render_delay(delay_ms))
            }
            TimerRule::Deadline { delay_ms } => {
                write!(f, "deadline({}, {})", self.event, render_delay(delay_ms))
            }
            TimerRule::Every { period_ms } => {
                write!(f, "every({}, {})", self.event, render_delay(period_ms))
            }
        }
    }
}

impl TimerSpec {
    /// The events this timer matches among `events`, a goal's events
    /// sorted by name: the exact name, or `repeat`-minted occurrences
    /// `event@1`, `event@2`, …. Returned in occurrence order (the exact
    /// name counts as occurrence 0); names that are themselves ticks never
    /// match (a timer cannot time another timer's tick). Only the names
    /// that start with the timer's event are looked at.
    pub(crate) fn matches(&self, events: &[(&str, Symbol)]) -> Vec<(u64, Symbol)> {
        let base = self.event.as_str();
        let from = events.partition_point(|&(name, _)| name < base);
        let mut found: Vec<(u64, Symbol)> = events[from..]
            .iter()
            .take_while(|(name, _)| name.starts_with(base))
            .filter(|(name, _)| ctr::timer::parse_tick(name).is_none())
            .filter_map(|&(name, e)| {
                if name == base {
                    return Some((0, e));
                }
                let suffix = name.strip_prefix(base)?.strip_prefix('@')?;
                if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) {
                    Some((suffix.parse().ok()?, e))
                } else {
                    None
                }
            })
            .collect();
        found.sort_unstable();
        found
    }

    /// The rule for the `k`-th match `target` on channel `xi`: what every
    /// occurrence of `target` becomes, and the part that runs beside the
    /// goal.
    pub(crate) fn rule(&self, k: u64, target: Symbol, xi: Channel) -> (Goal, Goal) {
        let (kind, delay_ms) = match self.rule {
            TimerRule::After { delay_ms } => (TimerKind::After, delay_ms),
            TimerRule::Deadline { delay_ms } => (TimerKind::Deadline, delay_ms),
            // The k-th family member waits k periods; a bare (non-
            // family) event counts as the first occurrence.
            TimerRule::Every { period_ms } => {
                (TimerKind::After, period_ms.saturating_mul(k.max(1)))
            }
        };
        let tick = Goal::atom(sym(&tick_name(target.as_str(), kind, delay_ms)));
        match kind {
            TimerKind::After => (
                seq(vec![Goal::Receive(xi), Goal::atom(target)]),
                seq(vec![tick, Goal::Send(xi)]),
            ),
            TimerKind::Deadline => (
                seq(vec![Goal::atom(target), Goal::Send(xi)]),
                or(vec![Goal::Receive(xi), tick]),
            ),
        }
    }
}

/// Compiles one timer into the goal; identity when the event is
/// absent. `channels` must be fresh for `goal`
/// ([`ChannelAlloc::fresh_for`]).
pub fn compile_timer(goal: &Goal, timer: &TimerSpec, channels: &mut ChannelAlloc) -> Goal {
    crate::spec::lower(goal, &[], std::slice::from_ref(timer), channels)
}

/// Compiles a list of timers in order (like triggers, earlier rewrites
/// are visible to later ones, so an event carrying both an `after`
/// gate and a `deadline` watchdog composes).
pub fn compile_timers(goal: &Goal, timers: &[TimerSpec], channels: &mut ChannelAlloc) -> Goal {
    crate::spec::lower(goal, &[], timers, channels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctr::goal::conc;
    use ctr::semantics::event_traces;
    use ctr::timer::parse_tick;
    use std::collections::BTreeSet;

    const BUDGET: usize = 100_000;

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    fn traces(goal: &Goal) -> BTreeSet<Vec<Symbol>> {
        event_traces(goal, BUDGET).unwrap()
    }

    fn compile(goal: &Goal, timer: TimerSpec) -> Goal {
        let mut channels = ChannelAlloc::fresh_for(goal);
        compile_timer(goal, &timer, &mut channels)
    }

    #[test]
    fn after_gates_the_event_behind_its_tick() {
        let goal = seq(vec![g("a"), g("b")]);
        let compiled = compile(&goal, TimerSpec::after("b", 30_000));
        let tick = sym("b@after30000");
        let ts = traces(&compiled);
        assert!(!ts.is_empty());
        for t in &ts {
            let tick_at = t.iter().position(|e| *e == tick).expect("tick fires");
            let b_at = t.iter().position(|e| *e == sym("b")).expect("b fires");
            assert!(tick_at < b_at, "tick must precede b: {t:?}");
        }
    }

    #[test]
    fn deadline_races_the_watchdog_against_the_event() {
        let goal = g("pay");
        let compiled = compile(&goal, TimerSpec::deadline("pay", 1_000));
        let tick = sym("pay@deadline1000");
        let ts = traces(&compiled);
        // pay alone (watchdog cancelled via the silent receive), the
        // tick first (deadline expired before pay), and the sound
        // over-approximation where the tick fires after pay.
        assert!(ts.contains(&vec![sym("pay")]));
        assert!(ts.contains(&vec![tick, sym("pay")]));
        assert_eq!(ts.len(), 3, "{ts:?}");
    }

    #[test]
    fn deadline_tick_resolves_an_abandoned_watchdog() {
        // If the base event sits on an untaken or-branch, completion
        // requires the tick: the deadline *must* expire.
        let goal = or(vec![g("pay"), g("cancel")]);
        let compiled = compile(&goal, TimerSpec::deadline("pay", 1_000));
        let tick = sym("pay@deadline1000");
        let ts = traces(&compiled);
        assert!(ts.contains(&vec![sym("cancel"), tick]));
        assert!(ts.contains(&vec![tick, sym("cancel")]));
        assert!(ts.contains(&vec![sym("pay")]));
    }

    #[test]
    fn every_staggers_the_family_on_the_period() {
        let unrolled = crate::loops::unroll(&g("poll"), 2, 2).goal;
        let goal = seq(vec![g("start"), unrolled]);
        let compiled = compile(&goal, TimerSpec::every("poll", 5_000));
        let events = compiled.events();
        assert!(events.contains(&sym("poll@1@after5000")));
        assert!(events.contains(&sym("poll@2@after10000")));
        // And each occurrence is gated behind its own tick.
        for t in &traces(&compiled) {
            for (k, tick) in [(1u32, "poll@1@after5000"), (2, "poll@2@after10000")] {
                let tick_at = t.iter().position(|e| e.as_str() == tick).unwrap();
                let ev = format!("poll@{k}");
                let ev_at = t.iter().position(|e| e.as_str() == ev).unwrap();
                assert!(tick_at < ev_at, "{t:?}");
            }
        }
    }

    #[test]
    fn missing_event_is_identity() {
        let goal = seq(vec![g("a"), g("b")]);
        assert_eq!(compile(&goal, TimerSpec::after("zzz", 5)), goal);
    }

    #[test]
    fn ticks_never_match_as_timer_targets() {
        let goal = seq(vec![g("a"), g("b")]);
        let once = compile(&goal, TimerSpec::deadline("b", 500));
        // A second timer on the tick's name is identity: ticks are not
        // timeable events.
        let mut channels = ChannelAlloc::fresh_for(&once);
        let again = compile_timer(&once, &TimerSpec::after("b@deadline500", 9), &mut channels);
        assert_eq!(again, once);
    }

    #[test]
    fn compiled_ticks_parse_back_to_their_delays() {
        let goal = conc(vec![g("a"), g("b")]);
        let compiled = compile(&goal, TimerSpec::deadline("a", 86_400_000));
        let ticks: Vec<_> = compiled
            .events()
            .into_iter()
            .filter_map(|e| parse_tick(e.as_str()).map(|t| (t.base.to_owned(), t.delay_ms)))
            .collect();
        assert_eq!(ticks, vec![("a".to_owned(), 86_400_000)]);
    }

    #[test]
    fn after_and_deadline_compose_on_one_event() {
        let goal = seq(vec![g("a"), g("b")]);
        let mut channels = ChannelAlloc::fresh_for(&goal);
        let compiled = compile_timers(
            &goal,
            &[TimerSpec::after("b", 100), TimerSpec::deadline("b", 500)],
            &mut channels,
        );
        assert!(ctr::unique::check_unique_events(&compiled).is_ok());
        let events = compiled.events();
        assert!(events.contains(&sym("b@after100")));
        assert!(events.contains(&sym("b@deadline500")));
        for t in &traces(&compiled) {
            if let Some(b_at) = t.iter().position(|e| *e == sym("b")) {
                let gate = t.iter().position(|e| *e == sym("b@after100")).unwrap();
                assert!(gate < b_at, "{t:?}");
            }
        }
    }
}
