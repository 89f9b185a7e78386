//! Structural property tests: invariants the transformations must
//! preserve, and round-trips through the textual syntax.

use ctr::apply::{apply, ChannelAlloc};
use ctr::constraints::Constraint;
use ctr::excise::excise;
use ctr::gen::{random_constraints, random_goal, GoalShape};
use ctr::goal::Goal;
use ctr::unique::is_unique_event;
use ctr_parser::{parse_constraint, parse_goal};
use proptest::prelude::*;

fn shape() -> GoalShape {
    GoalShape {
        depth: 4,
        width: 3,
        or_bias: 0.35,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Definition 5.1/5.3/5.5 note that Apply preserves the unique-event
    /// property — required for composing constraint applications.
    #[test]
    fn apply_preserves_unique_event(seed in 0u64..10_000, cseed in 0u64..10_000, n in 1usize..4) {
        let (goal, events) = random_goal(seed, shape(), "u");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, n);
        let applied = apply(&constraints, &goal);
        prop_assert!(is_unique_event(&applied), "apply broke uniqueness on {}", goal);
    }

    /// Excise is idempotent: a second pass finds nothing further.
    #[test]
    fn excise_is_idempotent(seed in 0u64..10_000, cseed in 0u64..10_000) {
        let (goal, events) = random_goal(seed, shape(), "i");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, 2);
        let once = excise(&apply(&constraints, &goal));
        prop_assert_eq!(excise(&once), once.clone());
    }

    /// Simplify is idempotent and preserves size-or-shrinks.
    #[test]
    fn simplify_is_idempotent_and_monotone(seed in 0u64..10_000) {
        let (goal, _) = random_goal(seed, shape(), "m");
        let s = goal.simplify();
        prop_assert_eq!(s.simplify(), s.clone());
        prop_assert!(s.size() <= goal.size());
    }

    /// The textual syntax round-trips: Display output re-parses to the
    /// same goal.
    #[test]
    fn goal_display_round_trips(seed in 0u64..10_000) {
        let (goal, _) = random_goal(seed, shape(), "rt");
        let text = goal.to_string();
        let reparsed = parse_goal(&text).unwrap();
        prop_assert_eq!(reparsed, goal, "text was `{}`", text);
    }

    /// Compiled goals (with channels) round-trip exactly: send/receive
    /// re-parse to the channel primitives.
    #[test]
    fn compiled_goal_display_round_trips(seed in 0u64..10_000, cseed in 0u64..10_000) {
        let (goal, events) = random_goal(seed, shape(), "rc");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, 2);
        let compiled = excise(&apply(&constraints, &goal));
        prop_assume!(!compiled.is_nopath());
        let text = compiled.to_string();
        let reparsed = parse_goal(&text).unwrap();
        prop_assert_eq!(reparsed, compiled, "text was `{}`", text);
    }

    /// Constraint Display output re-parses to a constraint with the same
    /// normal form.
    #[test]
    fn constraint_display_round_trips(cseed in 0u64..10_000, n in 1usize..3) {
        let events: Vec<ctr::Symbol> = (0..6).map(|i| ctr::sym(&format!("ev{i}"))).collect();
        for c in random_constraints(cseed, &events, n) {
            let text = c.to_string();
            let reparsed = parse_constraint(&text).unwrap();
            prop_assert_eq!(reparsed.normalize(), c.normalize(), "text was `{}`", text);
        }
    }

    /// Channel freshness: compiling never reuses a channel already in the
    /// goal, and distinct order constraints get distinct channels.
    #[test]
    fn channels_stay_fresh(seed in 0u64..10_000) {
        let (goal, events) = random_goal(seed, shape(), "ch");
        prop_assume!(events.len() >= 4);
        let c1 = Constraint::order(events[0], events[1]);
        let c2 = Constraint::order(events[2], events[3]);
        let mut alloc = ChannelAlloc::fresh_for(&goal);
        let step1 = ctr::apply::apply_all(std::slice::from_ref(&c1), &goal, &mut alloc);
        let chans1 = step1.channels();
        let step2 = ctr::apply::apply_all(std::slice::from_ref(&c2), &step1, &mut alloc);
        let chans2 = step2.channels();
        // Channels only accumulate; the new ones are disjoint from old.
        for c in chans2.difference(&chans1) {
            prop_assert!(!chans1.contains(c));
        }
    }

    /// The unique-event checker agrees with a brute-force trace check on
    /// small goals: no event occurs twice in any enumerated trace.
    #[test]
    fn unique_event_check_is_sound(seed in 0u64..10_000) {
        let (goal, _) = random_goal(seed, GoalShape { depth: 3, width: 2, or_bias: 0.4 }, "q");
        prop_assume!(is_unique_event(&goal));
        if let Ok(traces) = ctr::semantics::event_traces(&goal, 20_000) {
            for t in traces {
                let mut seen = std::collections::BTreeSet::new();
                for e in t {
                    prop_assert!(seen.insert(e), "event repeated in a trace of {}", goal);
                }
            }
        }
    }

    /// Scheduling from a compiled program never deadlocks when Excise
    /// guaranteed knot-freedom.
    #[test]
    fn excised_programs_never_deadlock(seed in 0u64..10_000, cseed in 0u64..10_000, n in 1usize..4) {
        let (goal, events) = random_goal(seed, shape(), "dl");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, n);
        let result = ctr::excise::excise_with_diagnostics(&apply(&constraints, &goal));
        prop_assume!(!result.goal.is_nopath());
        prop_assume!(result.guaranteed_knot_free);
        let program = ctr_engine::Program::compile(&result.goal).unwrap();
        // Drive 8 random-ish schedules by rotating the eligible pick.
        for salt in 0..8usize {
            let mut s = ctr_engine::Scheduler::new(&program);
            let mut step = 0usize;
            while !s.is_complete() {
                let eligible = s.eligible();
                prop_assert!(!eligible.is_empty(), "deadlock on {} (salt {})", result.goal, salt);
                let pick = eligible[(step * 7 + salt) % eligible.len()];
                s.fire(pick.node);
                step += 1;
                prop_assert!(step < 10_000, "runaway schedule");
            }
        }
    }

    /// The scheduler's incrementally maintained frontier is
    /// observationally identical — same set, same order, same
    /// observability flags — to the from-scratch recursive walk retained
    /// as `eligible_reference`, at every stage of random schedules over
    /// constrained corpus programs, including deadlocked ones.
    #[test]
    fn incremental_frontier_matches_recursive_oracle(
        seed in 0u64..10_000,
        cseed in 0u64..10_000,
        decisions in 0u64..u64::MAX,
    ) {
        let (goal, events) = random_goal(seed, shape(), "fr");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, 2);
        let compiled = excise(&apply(&constraints, &goal));
        prop_assume!(!compiled.is_nopath());
        let program = ctr_engine::Program::compile(&compiled).unwrap();
        let mut s = ctr_engine::Scheduler::new(&program);
        let mut rng = decisions;
        loop {
            let reference = s.eligible_reference();
            prop_assert_eq!(
                s.eligible(),
                reference.as_slice(),
                "frontier diverged from recursive walk on {}", compiled
            );
            prop_assert_eq!(
                s.is_deadlocked(),
                !s.is_complete() && reference.is_empty()
            );
            if s.is_complete() || s.eligible().is_empty() {
                break;
            }
            let pick = s.eligible()[(rng % s.eligible().len() as u64) as usize];
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s.fire(pick.node);
        }
    }
}

/// Non-proptest structural checks that complement the random ones.
#[test]
fn or_idempotence_is_observable() {
    let a = Goal::atom("a");
    let dup = ctr::goal::or(vec![a.clone(), a.clone(), Goal::atom("b"), a.clone()]);
    assert_eq!(dup, ctr::goal::or(vec![a, Goal::atom("b")]));
}

#[test]
fn channel_alloc_is_monotone() {
    let mut alloc = ChannelAlloc::new();
    let a = alloc.fresh();
    let b = alloc.fresh();
    assert!(b.0 > a.0);
}
