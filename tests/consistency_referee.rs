//! Consistency, verification and the named conflict held to their
//! referees.
//!
//! In the run fragment — every constraint's normal form has one disjunct,
//! and the goal is built of events, each occurring once, with `⊗`, `|`,
//! `∨` and `ε` — an `Analyzer` decides consistency and a holding property
//! on the goal's series-parallel order, and compiles only a violated
//! property, for its counterexample. `analysis::is_consistent` and
//! `analysis::verify` are Theorems 5.8 and 5.9 as written, one compile per
//! question: the session's verdicts must be theirs, and every
//! counterexample the compiled one, before and after a random edit script.
//! Where the goal's traces can be enumerated, all of them are held to the
//! trace semantics as well, and so is every conflicting subset
//! `Analyzer::conflict` reports.

use ctr::analysis::{self, Verification};
use ctr::constraints::Constraint;
use ctr::gen::{order_chain, pipeline_workflow, random_goal, random_run_constraints, GoalShape};
use ctr::goal::Goal;
use ctr::memo::Analyzer;
use ctr::semantics::{event_traces, satisfies};
use ctr::symbol::{sym, Symbol};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const BUDGET: usize = 20_000;

fn shape() -> GoalShape {
    GoalShape {
        depth: 3,
        width: 3,
        or_bias: 0.35,
    }
}

/// `count` properties over `events` and one absent event: Klein orders,
/// `∇`, `¬∇`, `causes_later` and `requires_earlier`.
fn random_properties(seed: u64, events: &[Symbol], count: usize) -> Vec<Constraint> {
    let mut rng = StdRng::seed_from_u64(seed);
    let absent = sym("absent0");
    let pick = |rng: &mut StdRng| {
        if rng.gen_bool(0.1) {
            absent
        } else {
            events[rng.gen_range(0..events.len())]
        }
    };
    (0..count)
        .map(|_| {
            let (a, b) = (pick(&mut rng), pick(&mut rng));
            match rng.gen_range(0..6) {
                0 | 1 => Constraint::klein_order(a, b),
                2 => Constraint::must(a),
                3 => Constraint::must_not(a),
                4 => Constraint::causes_later(a, b),
                _ => Constraint::requires_earlier(a, b),
            }
        })
        .collect()
}

/// The session's answers on its current list equal the literal compiles
/// on `list`, and the traces' where there are any.
fn check_session(
    session: &mut Analyzer,
    goal: &Goal,
    list: &[Constraint],
    properties: &[Constraint],
    traces: Option<&BTreeSet<Vec<Symbol>>>,
) -> Result<(), TestCaseError> {
    let consistent = analysis::is_consistent(goal, list).expect("unique-event");
    prop_assert_eq!(
        session.is_consistent(),
        consistent,
        "{:?} on {}",
        list,
        goal
    );
    let allowed: Option<Vec<&Vec<Symbol>>> = traces.map(|traces| {
        (traces.iter())
            .filter(|t| list.iter().all(|c| satisfies(t, c)))
            .collect()
    });
    if let Some(allowed) = &allowed {
        prop_assert_eq!(!allowed.is_empty(), consistent, "{:?} on {}", list, goal);
    }
    for property in properties {
        let want = analysis::verify(goal, list, property).expect("unique-event");
        let got = session.verify(property);
        prop_assert_eq!(&got, &want, "{} under {:?} on {}", property, list, goal);
        if let Some(allowed) = &allowed {
            let holds = allowed.iter().all(|t| satisfies(t, property));
            prop_assert_eq!(
                got.holds(),
                holds,
                "{} under {:?} on {}",
                property,
                list,
                goal
            );
        }
    }
    Ok(())
}

/// `G` with `subset` of `list` has no trace, and has one with any one
/// member of it dropped.
fn is_minimal_conflict(
    traces: &BTreeSet<Vec<Symbol>>,
    list: &[Constraint],
    subset: &[usize],
) -> bool {
    let consistent = |skip: Option<usize>| {
        (traces.iter()).any(|t| {
            (subset.iter())
                .filter(|&&i| Some(i) != skip)
                .all(|&i| satisfies(t, &list[i]))
        })
    };
    !consistent(None) && subset.iter().all(|&i| consistent(Some(i)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On random `⊗`/`|`/`∨`/`ε` goals, whose events occur once, and lists
    /// of orders, serials, `∇`, `¬∇` and their conjunctions (a reflexive
    /// order among them sends the list to the compile), the session's
    /// consistency and verification are the literal compiles', before and
    /// after each step of a random edit script.
    #[test]
    fn consistency_and_verification_are_the_literal_compiles(
        seed in 0u64..1_000_000, cseed in 0u64..1_000_000, n in 1usize..4, edits in 0usize..5
    ) {
        let (goal, events) = random_goal(seed, shape(), "c");
        prop_assume!(!events.is_empty());
        let mut list = random_run_constraints(cseed, &events, n);
        let properties = random_properties(cseed ^ 0x5eed, &events, 3);
        let pool = random_run_constraints(cseed.wrapping_add(7), &events, 4);
        let traces = event_traces(&goal, BUDGET).ok();
        let mut session = Analyzer::new(&goal, &list).expect("unique-event");
        check_session(&mut session, &goal, &list, &properties, traces.as_ref())?;
        let mut rng = StdRng::seed_from_u64(cseed);
        for step in 0..edits {
            let with = pool[step % pool.len()].clone();
            let at = rng.gen_range(0..list.len());
            match rng.gen_range(0..3) {
                0 => {
                    let old = session.replace_constraint(at, with.clone());
                    prop_assert_eq!(std::mem::replace(&mut list[at], with), old);
                }
                1 if list.len() > 1 => {
                    prop_assert_eq!(session.remove_constraint(at), list.remove(at));
                }
                _ => {
                    prop_assert_eq!(session.add_constraint(with.clone()), list.len());
                    list.push(with);
                }
            }
            check_session(&mut session, &goal, &list, &properties, traces.as_ref())?;
        }
    }

    /// Every reported conflict, in the fragment and outside it (Klein
    /// orders added), is inconsistent and consistent with any one member
    /// dropped — on the traces where they enumerate, and by the literal
    /// compile everywhere; a consistent list reports none.
    #[test]
    fn every_conflict_is_minimal(
        seed in 0u64..1_000_000, cseed in 0u64..1_000_000, n in 1usize..7, wide in 0usize..2
    ) {
        let (goal, events) = random_goal(seed, shape(), "k");
        prop_assume!(!events.is_empty());
        let mut list = random_run_constraints(cseed, &events, n);
        list.extend(random_properties(cseed, &events, wide));
        let conflict = analysis::conflict(&goal, &list).expect("unique-event");
        let consistent = analysis::is_consistent(&goal, &list).expect("unique-event");
        prop_assert_eq!(conflict.is_none(), consistent, "{:?} on {}", list, goal);
        let Some(subset) = conflict else { return Ok(()) };
        prop_assert!(subset.windows(2).all(|w| w[0] < w[1]), "{:?}", subset);
        let pick = |skip: Option<usize>| -> Vec<Constraint> {
            (subset.iter()).filter(|&&i| Some(i) != skip).map(|&i| list[i].clone()).collect()
        };
        let literal = |list: &[Constraint]| analysis::is_consistent(&goal, list).expect("unique-event");
        prop_assert!(!literal(&pick(None)), "{:?} of {:?} on {}", subset, list, goal);
        for &i in &subset {
            prop_assert!(literal(&pick(Some(i))), "{:?} less {} of {:?} on {}", subset, i, list, goal);
        }
        if let Ok(traces) = event_traces(&goal, BUDGET) {
            prop_assert!(is_minimal_conflict(&traces, &list, &subset), "{:?} of {:?} on {}", subset, list, goal);
        }
    }
}

/// The referee is not vacuous: most of its inputs (lists of one and two
/// constraints here) are in the fragment, and both verdicts and both kinds
/// of verification occur there.
#[test]
fn the_referees_inputs_are_mostly_in_the_fragment_and_not_trivial() {
    let (mut in_fragment, mut inconsistent, mut holds, mut violated) = (0, 0, 0, 0);
    for case in 0..512u64 {
        let (goal, events) = random_goal(case, shape(), "c");
        if events.is_empty() {
            continue;
        }
        let list = random_run_constraints(case, &events, 1 + case as usize % 2);
        if list.iter().all(|c| c.normalize().disjunct_count() == 1) {
            in_fragment += 1;
            inconsistent += usize::from(!analysis::is_consistent(&goal, &list).unwrap());
            for p in random_properties(case ^ 0x5eed, &events, 3) {
                match analysis::verify(&goal, &list, &p).unwrap() {
                    Verification::Holds => holds += 1,
                    Verification::CounterExample(_) => violated += 1,
                }
            }
        }
    }
    assert!(in_fragment >= 300, "{in_fragment} of 512 in the fragment");
    let consistent = in_fragment - inconsistent;
    assert!(
        inconsistent >= 100 && consistent >= 100,
        "{consistent} consistent, {inconsistent} not"
    );
    assert!(
        holds >= 200 && violated >= 200,
        "{holds} hold, {violated} violated"
    );
}

/// An exact count: over an order chain on a pipeline (the shape of the
/// benchmark's `orders64` session), a session answers a script of edits,
/// consistency queries and holding Klein properties without a new table
/// entry or a newly interned subgoal. Every constraint and property has
/// been seen once, so their normal forms are recorded; the lists the
/// script visits never were compiled, and compiling the last one does add
/// entries. (Each query compiling, they went 108 → 203 and 11 → 40.) The
/// verdicts are the literal compiles'.
#[test]
fn consistency_and_verification_in_the_run_fragment_compile_nothing() {
    let t = |i: usize| sym(&format!("t{i}"));
    let goal = pipeline_workflow(130);
    let mut list = order_chain(64);
    // Implied by the pipeline, bar the reversed one, which makes the list
    // inconsistent while it stands.
    let alternatives = [(3, 4), (10, 30), (0, 129), (57, 59), (90, 20)]
        .map(|(a, b)| Constraint::order(t(a), t(b)));
    // Hold whatever the list: the pipeline orders each pair this way.
    let properties = [(0, 1), (5, 17), (2, 128), (40, 41), (64, 100)]
        .map(|(a, b)| Constraint::klein_order(t(a), t(b)));
    let mut session = Analyzer::new(&goal, &list).unwrap();
    for alternative in &alternatives {
        session.add_constraint(alternative.clone());
        session.is_consistent();
        session.remove_constraint(list.len());
    }
    for property in &properties {
        assert!(session.verify(property).holds());
    }
    let before = session.stats();
    let mut rng = StdRng::seed_from_u64(11);
    let mut consistent_answers = BTreeSet::new();
    for step in 0..60 {
        match step % 3 {
            0 => {
                let with = alternatives[rng.gen_range(0..alternatives.len())].clone();
                let at = if rng.gen_bool(0.7) { list.len() - 1 } else { 0 };
                session.replace_constraint(at, with.clone());
                list[at] = with;
            }
            1 => {
                let consistent = session.is_consistent();
                assert_eq!(consistent, analysis::is_consistent(&goal, &list).unwrap());
                consistent_answers.insert(consistent);
            }
            _ => {
                let property = &properties[rng.gen_range(0..properties.len())];
                assert_eq!(session.verify(property), Verification::Holds);
            }
        }
    }
    let after = session.stats();
    assert_eq!(
        (after.entries, after.interned),
        (before.entries, before.interned)
    );
    assert_eq!(consistent_answers.len(), 2, "both verdicts were asked for");
    session.compiled();
    assert!(session.stats().entries > after.entries, "a compile records");
}
