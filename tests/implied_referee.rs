//! The referee of the implied-constraint rule: `Apply` leaves out a
//! constraint of two or more disjuncts that its own scope already satisfies
//! (Theorem 5.10), deciding it by the graph fragment's selection search.
//!
//! On random `⊗`/`|`/`∨`/`ε` goals, whose events occur once, with the
//! §3 catalogue of `gen::random_constraints`:
//!
//! * one wide constraint alone is left out — `apply` hands the goal back —
//!   exactly when it holds: when the compile-based `analysis::verify`
//!   says `Holds`, and when every trace of the goal satisfies it;
//! * a whole list compiles to the executions of the goal that satisfy
//!   every constraint, as `ctr::semantics` filters them;
//! * an `Analyzer`'s compile, over its table, is `==` the one-shot one.
//!
//! The lists also run inside `⊙`, beside a `◇` that names their events,
//! after run orders that put channels in the goal, and on goals whose
//! `∨`-branches share events (`gen::sharing_goal`), so scopes outside the
//! fragment are met too.

use ctr::analysis::{compile, verify};
use ctr::apply::apply;
use ctr::constraints::Constraint;
use ctr::gen::{random_constraints, random_goal, random_run_constraints, sharing_goal, GoalShape};
use ctr::goal::{conc, isolated, possible, seq, Goal};
use ctr::memo::Analyzer;
use ctr::semantics::{event_traces, satisfies};
use ctr::symbol::{sym, Symbol};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Only goals with fewer traces than this are drawn.
const TRACES: usize = 5_000;

fn shape() -> GoalShape {
    GoalShape {
        depth: 3,
        width: 3,
        or_bias: 0.4,
    }
}

/// Goal `case`, its events and its traces, if it has two events and fewer
/// than [`TRACES`] traces.
fn drawn(case: u64) -> Option<(Goal, Vec<Symbol>, BTreeSet<Vec<Symbol>>)> {
    let (goal, events) = random_goal(case, shape(), "i");
    let traces = event_traces(&goal, TRACES).ok()?;
    (events.len() >= 2).then_some((goal, events, traces))
}

fn wide(c: &Constraint) -> bool {
    c.normalize().disjunct_count() >= 2
}

#[test]
fn a_wide_constraint_alone_is_left_out_exactly_when_it_holds() {
    let (mut left_out, mut kept) = (0, 0);
    for case in 0..400 {
        let Some((goal, events, traces)) = drawn(case) else {
            continue;
        };
        for c in random_constraints(case, &events, 4)
            .iter()
            .filter(|c| wide(c))
        {
            let dropped = apply(std::slice::from_ref(c), &goal).ptr_eq(&goal);
            let holds = verify(&goal, &[], c).expect("unique-event").holds();
            let semantic = traces.iter().all(|t| satisfies(t, c));
            assert_eq!(holds, semantic, "verify of {c} on {goal}");
            assert_eq!(dropped, holds, "{c} on {goal}");
            if dropped {
                left_out += 1;
            } else {
                kept += 1;
            }
        }
    }
    assert!(
        left_out >= 50 && kept >= 50,
        "{left_out} left out, {kept} kept"
    );
}

/// `goal` as drawn, and in three settings that put nodes outside the
/// fragment around or beside its scopes.
fn settings(goal: &Goal, events: &[Symbol]) -> [Goal; 4] {
    let beside = || possible(Goal::Atom(ctr::term::Atom::prop(events[0])));
    [
        goal.clone(),
        isolated(goal.clone()),
        conc(vec![goal.clone(), beside()]),
        seq(vec![isolated(goal.clone()), Goal::atom("i_after")]),
    ]
}

#[test]
fn lists_compile_to_the_filtered_semantics_and_the_table_agrees() {
    let mut checked = 0;
    for case in 0..300 {
        let Some((drawn_goal, events, _)) = drawn(case) else {
            continue;
        };
        let mut constraints = random_constraints(case + 1_000, &events, 3);
        if case % 3 == 0 {
            // Orders among the runs put channels into the goal the wide
            // constraints meet.
            constraints.extend(random_run_constraints(case, &events, 2));
        }
        for goal in settings(&drawn_goal, &events) {
            let traces = event_traces(&goal, TRACES).expect("as many traces as drawn");
            checked += usize::from(compiles_to_the_filtered_semantics(
                &goal,
                &traces,
                &constraints,
            ));
        }
    }
    assert!(checked >= 600, "only {checked} cases");
}

#[test]
fn goals_whose_branches_share_events_compile_to_the_filtered_semantics() {
    let pool: Vec<Symbol> = (0..6).map(|i| sym(&format!("i{i}"))).collect();
    let mut checked = 0;
    for case in 0..400 {
        let goal = sharing_goal(&mut StdRng::seed_from_u64(case), &pool, &pool, 4);
        let events: Vec<Symbol> = goal.events().into_iter().collect();
        let Ok(traces) = event_traces(&goal, TRACES) else {
            continue;
        };
        if events.len() >= 2 {
            let constraints = random_constraints(case, &events, 3);
            checked += usize::from(compiles_to_the_filtered_semantics(
                &goal,
                &traces,
                &constraints,
            ));
        }
    }
    assert!(checked >= 200, "only {checked} cases");
}

/// Holds the compile of `constraints` over `goal`, whose traces are
/// `traces`, to the traces that satisfy every constraint, and the tabled
/// compile to the one-shot one. False if the compiled goal has too many
/// traces to enumerate (its channels interleave with the events).
fn compiles_to_the_filtered_semantics(
    goal: &Goal,
    traces: &BTreeSet<Vec<Symbol>>,
    constraints: &[Constraint],
) -> bool {
    let compiled = compile(goal, constraints).expect("unique-event");
    let mut session = Analyzer::new(goal, constraints).expect("unique-event");
    assert_eq!(
        session.compiled().goal,
        compiled.goal,
        "{constraints:?} on {goal}"
    );
    let Ok(got) = event_traces(&compiled.goal, 20 * TRACES) else {
        return false;
    };
    let want: BTreeSet<Vec<Symbol>> = (traces.iter())
        .filter(|t| constraints.iter().all(|c| satisfies(t, c)))
        .cloned()
        .collect();
    assert_eq!(got, want, "{constraints:?} on {goal}");
    true
}
