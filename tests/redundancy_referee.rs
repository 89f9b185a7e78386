//! `minimize_constraints` held to its referee.
//!
//! In the graph fragment — the goal is built of events, each occurring
//! once, with `⊗`, `|`, `∨` and `ε` — an `Analyzer` compiles nothing for a
//! redundancy probe: it decides it on the goal's series-parallel order
//! when every constraint's normal form has one disjunct (the *run
//! fragment*, the lists here), and by a selection search otherwise
//! (`tests/consistency_referee.rs` holds that path to the same replay). `analysis::is_redundant` is
//! Theorem 5.10's probe as written, one compile per question: replayed
//! greedily, it is what `minimize_constraints` must return, one-shot and
//! in a session, on every input. Where the goal's traces can be
//! enumerated, both are held to the trace semantics as well.

use ctr::analysis::{self, is_redundant};
use ctr::constraints::Constraint;
use ctr::gen::{order_chain, pipeline_workflow, random_goal, random_run_constraints, GoalShape};
use ctr::goal::{conc, isolated, or, possible, seq, Goal};
use ctr::memo::Analyzer;
use ctr::semantics::{event_traces, satisfies};
use ctr::symbol::Symbol;
use ctr::term::Atom;
use proptest::prelude::*;
use std::collections::BTreeSet;

const BUDGET: usize = 20_000;

fn shape() -> GoalShape {
    GoalShape {
        depth: 3,
        width: 3,
        or_bias: 0.35,
    }
}

/// The greedy elimination loop over `implied(list, i)`: each constraint in
/// turn is dropped when the rest of the list still in play implies it.
fn greedy(
    constraints: &[Constraint],
    implied: impl Fn(&[Constraint], usize) -> bool,
) -> Vec<usize> {
    let mut kept: Vec<usize> = (0..constraints.len()).collect();
    let mut list = constraints.to_vec();
    let mut i = 0;
    while i < list.len() {
        if implied(&list, i) {
            list.remove(i);
            kept.remove(i);
        } else {
            i += 1;
        }
    }
    kept
}

/// What a greedy replay of `is_redundant` keeps.
fn replay_is_redundant(goal: &Goal, constraints: &[Constraint]) -> Vec<usize> {
    greedy(constraints, |list, i| {
        is_redundant(goal, list, i).expect("unique-event")
    })
}

/// What the same replay keeps when "implied" is read off the traces: every
/// trace satisfying the rest satisfies the constraint.
fn replay_semantics(traces: &BTreeSet<Vec<Symbol>>, constraints: &[Constraint]) -> Vec<usize> {
    greedy(constraints, |list, i| {
        let rest = (list.iter().enumerate()).filter(|&(j, _)| j != i);
        traces
            .iter()
            .filter(|t| rest.clone().all(|(_, c)| satisfies(t, c)))
            .all(|t| satisfies(t, &list[i]))
    })
}

/// Both entry points of `minimize_constraints`, the session one after a
/// compile (the state a designer asks from).
fn minimize_both_ways(goal: &Goal, constraints: &[Constraint]) -> (Vec<usize>, Vec<usize>) {
    let one_shot = analysis::minimize_constraints(goal, constraints).expect("unique-event");
    let mut session = Analyzer::new(goal, constraints).expect("unique-event");
    session.compiled();
    (one_shot, session.minimize_constraints())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// On random `⊗`/`|`/`∨`/`ε` goals, whose events occur once, and lists
    /// of orders, serials, `∇`, `¬∇` and their conjunctions (a reflexive
    /// order among them sends the list to the compile), the graph's answer
    /// is the replayed theorem's.
    #[test]
    fn minimize_is_a_greedy_replay_of_is_redundant(
        seed in 0u64..1_000_000, cseed in 0u64..1_000_000, n in 1usize..6
    ) {
        let (goal, events) = random_goal(seed, shape(), "m");
        prop_assume!(!events.is_empty());
        let constraints = random_run_constraints(cseed, &events, n);
        let want = replay_is_redundant(&goal, &constraints);
        let (one_shot, session) = minimize_both_ways(&goal, &constraints);
        prop_assert_eq!(&one_shot, &want, "one-shot, {:?} on {}", constraints, goal);
        prop_assert_eq!(&session, &want, "session, {:?} on {}", constraints, goal);
        if let Ok(traces) = event_traces(&goal, BUDGET) {
            prop_assert_eq!(replay_semantics(&traces, &constraints), want, "{:?} on {}", constraints, goal);
        }
    }
}

/// The referee is not vacuous: most of its inputs are in the fragment, and
/// many of those keep some constraints and drop others.
#[test]
fn the_referees_inputs_are_mostly_in_the_fragment_and_not_trivial() {
    let (mut in_fragment, mut mixed) = (0, 0);
    for case in 0..512u64 {
        let (goal, events) = random_goal(case, shape(), "m");
        if events.is_empty() {
            continue;
        }
        let constraints = random_run_constraints(case, &events, 4);
        if constraints
            .iter()
            .all(|c| c.normalize().disjunct_count() == 1)
        {
            in_fragment += 1;
            let kept = analysis::minimize_constraints(&goal, &constraints).unwrap();
            mixed += usize::from(!kept.is_empty() && kept.len() < constraints.len());
        }
    }
    assert!(in_fragment >= 300, "{in_fragment} of 512 in the fragment");
    assert!(mixed >= 200, "{mixed} keep some and drop some");
}

/// An exact count: over an order chain on a pipeline, a session
/// that has compiled answers `minimize_constraints` without a new table
/// entry or a newly interned subgoal. (Each probe compiling, they went
/// 36 → 354 and 2 → 65.)
#[test]
fn minimize_in_the_run_fragment_compiles_nothing() {
    let goal = pipeline_workflow(66);
    let constraints = order_chain(32);
    let mut session = Analyzer::new(&goal, &constraints).unwrap();
    session.compiled();
    let before = session.stats();
    // The pipeline orders every pair: each order is implied by the goal.
    assert_eq!(session.minimize_constraints(), Vec::<usize>::new());
    let after = session.stats();
    assert_eq!(
        (after.entries, after.interned),
        (before.entries, before.interned)
    );
}

/// Outside the fragment every probe is a compile through the table (each
/// `¬φ` is a normal form it has not seen), and the answer is the same
/// replay's. (A constraint of two or more disjuncts was a fifth case here;
/// it is in the fragment now, below.)
#[test]
fn inputs_outside_the_fragment_take_the_compile() {
    let [a, b, c, d] = ["a", "b", "c", "d"].map(Goal::atom);
    let orders = || {
        vec![
            Constraint::order("a", "b"),
            Constraint::order("b", "c"),
            Constraint::order("a", "c"),
        ]
    };
    let frozen = Goal::Atom(Atom::prop("frozen").negate());
    let cases = [
        // ⊙
        (
            conc(vec![isolated(seq(vec![a.clone(), b.clone()])), c.clone()]),
            orders(),
        ),
        // ◇
        (
            conc(vec![
                seq(vec![possible(d.clone()), a.clone()]),
                b.clone(),
                c.clone(),
            ]),
            orders(),
        ),
        // A transition condition.
        (
            seq(vec![frozen, conc(vec![a.clone(), b.clone(), c.clone()])]),
            orders(),
        ),
        // Events shared by `∨`-branches: unique-event, but `a`, in every
        // execution, lies under the `∨`.
        (
            or(vec![
                seq(vec![a.clone(), b.clone()]),
                seq(vec![b.clone(), a.clone()]),
            ]),
            vec![Constraint::must("a"), Constraint::order("a", "b")],
        ),
    ];
    for (goal, constraints) in cases {
        let mut session = Analyzer::new(&goal, &constraints).unwrap();
        session.compiled();
        let before = session.stats().entries;
        let kept = session.minimize_constraints();
        assert!(session.stats().entries > before, "{goal}: no compile");
        let want = replay_is_redundant(&goal, &constraints);
        assert_eq!(kept, want, "{goal}");
        assert_eq!(
            analysis::minimize_constraints(&goal, &constraints).unwrap(),
            want,
            "{goal}"
        );
    }
}

/// A constraint of two or more disjuncts is in the fragment: the session
/// decides each probe by the selection search, so a compiled session's
/// table gains no entry and no interned subgoal across the call (each probe
/// compiling, as outside the fragment, they went 16 → 47 and 5 → 14), and
/// the answer is the same replay's.
#[test]
fn a_wide_constraint_takes_the_search_not_the_compile() {
    let goal = conc(["a", "b", "c"].map(Goal::atom).to_vec());
    let constraints = [
        Constraint::order("a", "b"),
        Constraint::klein_order("b", "c"),
        Constraint::order("a", "c"),
    ];
    assert!(constraints[1].normalize().disjunct_count() > 1);
    let mut session = Analyzer::new(&goal, &constraints).unwrap();
    session.compiled();
    let before = session.stats();
    let kept = session.minimize_constraints();
    let after = session.stats();
    assert_eq!(
        (after.entries, after.interned),
        (before.entries, before.interned)
    );
    let want = replay_is_redundant(&goal, &constraints);
    assert_eq!(kept, want);
    assert_eq!(
        analysis::minimize_constraints(&goal, &constraints).unwrap(),
        want
    );
}
