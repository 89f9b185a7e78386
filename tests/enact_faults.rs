//! Fault-injection properties for the enactment dispatcher.
//!
//! The contract under test: for *any* workflow shape and *any* injected
//! fault plan, `Enactor::run_report` terminates in bounded time with
//! either
//!
//! * the no-fault oracle's outcome — same committed event **multiset**
//!   (concurrent completion order legitimately varies) and a trace that
//!   replays event-by-event on a fresh scheduler to completion — or
//! * a typed `EnactError` whose `completed` prefix is a valid schedule
//!   prefix (every event replays in order on a fresh scheduler).
//!
//! Goals are grown with unique atoms. Odd seeds keep them plain: no
//! channels, no silent steps, so the observable trace *is* the full
//! trace. Even seeds compile them as a specification is compiled: an
//! `after` gate (a few ms) and a `deadline` watchdog on events every
//! execution performs (`ctr_workflow::compile_timers`), then an order
//! constraint between two events (`analysis::compile`). Their channels
//! and the watchdog's dismissal branch are silent steps no trace names,
//! so a replay fires the trace's events by name and then completes
//! through silent steps alone, as `Runtime::try_complete` does.

use ctr::constraints::Constraint;
use ctr::goal::{conc, or, seq, Goal};
use ctr::symbol::Symbol;
use ctr_engine::scheduler::{Program, Scheduler};
use ctr_runtime::{Backoff, ChoicePolicy, EnactReport, Enactor, Fault, FaultPlan, RetryPolicy};
use ctr_workflow::TimerSpec;
use proptest::prelude::*;
use std::time::Duration;

fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Deterministically grows a goal tree from a seed: seq/conc/or over
/// uniquely-named atoms (`e0`, `e1`, …), depth ≤ 3, fanout 2–3.
fn build_goal(rng: &mut u64, depth: u32, counter: &mut u32) -> Goal {
    let pick = if depth == 0 { 0 } else { next(rng) % 4 };
    if pick == 0 {
        let name = format!("e{}", *counter);
        *counter += 1;
        return Goal::atom(name.as_str());
    }
    let fanout = 2 + (next(rng) % 2) as usize;
    let children: Vec<Goal> = (0..fanout)
        .map(|_| build_goal(rng, depth - 1, counter))
        .collect();
    match pick {
        1 => seq(children),
        2 => conc(children),
        _ => or(children),
    }
}

fn events_of(goal: &Goal) -> Vec<Symbol> {
    let mut events = Vec::new();
    goal.for_each_atom(&mut |atom| {
        if let Some(e) = atom.as_event() {
            events.push(e);
        }
    });
    events
}

/// The events of `goal` under no `∨`: every execution performs them.
fn mandatory(goal: &Goal, out: &mut Vec<Symbol>) {
    match goal {
        Goal::Atom(atom) => out.extend(atom.as_event()),
        Goal::Seq(children) | Goal::Conc(children) => {
            children.iter().for_each(|child| mandatory(child, out));
        }
        _ => {}
    }
}

/// The corpus entry of `goal_seed`: the goal to enact and the events a
/// fault plan may target (timer ticks are the clock's, not activities).
/// A timed entry's deadline is `deadline_ms` after the start; `None` if
/// its order constraint leaves nothing to execute.
fn corpus(goal_seed: u64, deadline_ms: u64) -> Option<(Goal, Vec<Symbol>)> {
    let mut rng = goal_seed.wrapping_mul(2).wrapping_add(1);
    let mut counter = 0;
    let goal = build_goal(&mut rng, 3, &mut counter);
    let events = events_of(&goal);
    if goal_seed % 2 == 1 || events.is_empty() {
        return Some((goal, events));
    }
    let mut always = Vec::new();
    mandatory(&goal, &mut always);
    let mut timed = goal.clone();
    if !always.is_empty() {
        let gated = always[next(&mut rng) as usize % always.len()];
        let watched = always[next(&mut rng) as usize % always.len()];
        let timers = [
            TimerSpec::after(gated, 1 + next(&mut rng) % 3),
            TimerSpec::deadline(watched, deadline_ms),
        ];
        let mut channels = ctr::apply::ChannelAlloc::fresh_for(&goal);
        timed = ctr_workflow::compile_timers(&goal, &timers, &mut channels);
    }
    let a = events[next(&mut rng) as usize % events.len()];
    let b = events[next(&mut rng) as usize % events.len()];
    let constraints: Vec<Constraint> = (a != b)
        .then(|| Constraint::order(a, b))
        .into_iter()
        .collect();
    let compiled = ctr::analysis::compile(&timed, &constraints).unwrap();
    compiled.is_consistent().then_some((compiled.goal, events))
}

/// Runs the enactor under a watchdog: the property is *bounded-time*
/// termination, so a wedged dispatcher must fail the test, not hang it.
fn run_watchdogged(enactor: Enactor, program: Program) -> EnactReport {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(enactor.run_report(&program));
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("enactment must terminate in bounded time")
}

/// Every committed event must replay, in order, on a fresh scheduler.
/// Returns the scheduler for completion checks.
fn assert_valid_prefix<'p>(program: &'p Program, completed: &[Symbol]) -> Scheduler<&'p Program> {
    let mut replay = Scheduler::new(program);
    for (i, &event) in completed.iter().enumerate() {
        assert!(
            replay.fire_event(event),
            "committed event #{i} `{event}` does not replay — not a schedule prefix"
        );
    }
    replay
}

/// Completes `replay` through silent steps alone, if it can.
fn completes_silently(mut replay: Scheduler<&Program>) -> bool {
    while !replay.is_complete() {
        let program = replay.program();
        let Some(silent) = replay
            .eligible()
            .iter()
            .find(|c| program.event(c.node).is_none())
        else {
            return false;
        };
        let node = silent.node;
        replay.fire(node);
    }
    true
}

fn multiset(events: &[Symbol]) -> Vec<Symbol> {
    let mut sorted = events.to_vec();
    sorted.sort_unstable();
    sorted
}

/// Builds a fault plan over ~half the events; `recoverable` bounds every
/// fault under the 3-attempt budget.
fn build_plan(events: &[Symbol], fault_seed: u64, recoverable: bool) -> FaultPlan {
    let mut rng = fault_seed | 1;
    let mut plan = FaultPlan::new(fault_seed);
    let mut faulted_any = false;
    for &event in events {
        if next(&mut rng).is_multiple_of(2) {
            continue;
        }
        let fault = match next(&mut rng) % 4 {
            0 => Fault::FailTimes(1 + (next(&mut rng) % 2) as u32),
            1 => Fault::PanicOnAttempt(1 + (next(&mut rng) % 2) as u32),
            2 => Fault::Delay(Duration::from_millis(1 + next(&mut rng) % 3)),
            _ => Fault::Vanish(1),
        };
        let fault = if recoverable {
            fault
        } else {
            // Outlast any retry budget.
            Fault::FailTimes(u32::MAX)
        };
        plan = plan.inject(event, fault);
        faulted_any = true;
    }
    if !recoverable && !faulted_any {
        // An unrecoverable plan must doom at least one event; the first
        // is mandatory in every schedule shape we generate... not quite
        // (or-branches), but it is always *an* event, which suffices for
        // "if the run fails, the prefix is valid".
        if let Some(&event) = events.first() {
            plan = plan.inject(event, Fault::FailTimes(u32::MAX));
        }
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Recoverable faults (every fault exhausts before the 3-attempt
    /// budget): the run must reach exactly the no-fault oracle's
    /// outcome, fault machinery invisible in the result.
    #[test]
    fn recoverable_faults_reach_the_oracle_outcome(
        goal_seed in 0u64..1_000_000,
        fault_seed in 0u64..u64::MAX,
    ) {
        // Faults may hold an activity past any deadline of a few ms, so
        // here the watchdog is always met and dismissed.
        let corpus = corpus(goal_seed, 60_000);
        prop_assume!(corpus.is_some());
        let (goal, events) = corpus.unwrap();
        let program = Program::compile(&goal).unwrap();
        prop_assume!(!events.is_empty());

        let oracle = run_watchdogged(Enactor::new(), Program::compile(&goal).unwrap());
        prop_assert!(oracle.is_success());

        let enactor = Enactor::new()
            .with_policy(ChoicePolicy::First)
            .with_default_retry(
                RetryPolicy::attempts(3)
                    .with_backoff(Backoff::Fixed(Duration::from_micros(200)))
                    .with_jitter(),
            )
            .with_faults(build_plan(&events, fault_seed, true))
            .with_seed(fault_seed);
        let report = run_watchdogged(enactor, Program::compile(&goal).unwrap());

        prop_assert!(report.is_success(), "recoverable plan failed: {:?}", report.error);
        prop_assert_eq!(
            multiset(&report.completed),
            multiset(&oracle.completed),
            "same committed multiset as the no-fault oracle"
        );
        let replay = assert_valid_prefix(&program, &report.completed);
        prop_assert!(completes_silently(replay), "successful trace must replay to completion");
        // Every retry the log records was caused by an injected fault.
        // (An `after` tick commits without an attempt: it is no activity.)
        let activities = report.completed.iter().filter(|e| events.contains(e)).count();
        prop_assert!(report.attempts.len() >= activities);
    }

    /// Arbitrary (possibly unrecoverable) plans: the run terminates with
    /// either the oracle outcome or a typed error whose committed prefix
    /// is a valid schedule prefix.
    #[test]
    fn any_fault_plan_terminates_with_oracle_or_typed_error(
        goal_seed in 0u64..1_000_000,
        fault_seed in 0u64..u64::MAX,
        recoverable_bit in 0u64..2,
    ) {
        let recoverable = recoverable_bit == 1;
        // A deadline of a few ms: faults may make it expire, a typed
        // error like any other.
        let corpus = corpus(goal_seed, 6 + goal_seed % 4);
        prop_assume!(corpus.is_some());
        let (goal, events) = corpus.unwrap();
        let program = Program::compile(&goal).unwrap();
        prop_assume!(!events.is_empty());

        let enactor = Enactor::new()
            .with_policy(ChoicePolicy::First)
            .with_default_retry(RetryPolicy::attempts(2))
            .with_faults(build_plan(&events, fault_seed, recoverable))
            .with_seed(fault_seed);
        let report = run_watchdogged(enactor, Program::compile(&goal).unwrap());

        match &report.error {
            None => {
                let oracle = run_watchdogged(Enactor::new(), Program::compile(&goal).unwrap());
                prop_assert_eq!(multiset(&report.completed), multiset(&oracle.completed));
                let replay = assert_valid_prefix(&program, &report.completed);
                prop_assert!(completes_silently(replay));
            }
            Some(err) => {
                // The typed error's prefix and the report's committed
                // trace must agree, and both must be a valid prefix.
                prop_assert_eq!(err.completed(), report.completed.as_slice());
                assert_valid_prefix(&program, &report.completed);
            }
        }
    }
}
