//! Consistency, verification, the named conflict and redundancy held to
//! their referees.
//!
//! In the graph fragment — the goal is built of events, each occurring
//! once, with `⊗`, `|`, `∨` and `ε`; the constraints may be anything — an
//! `Analyzer` decides consistency and a holding property on the goal's
//! series-parallel order (every constraint a run) or by a selection search
//! of one disjunct per constraint (some constraint wide), and compiles only
//! a violated property, for its counterexample. `analysis::is_consistent`,
//! `analysis::verify` and `analysis::is_redundant` are Theorems 5.8–5.10 as
//! written, one compile per question: the session's verdicts must be
//! theirs, and every counterexample the compiled one, before and after a
//! random edit script. Where the goal's traces can be enumerated, all of
//! them are held to the trace semantics as well, and so is every
//! conflicting subset `Analyzer::conflict` reports.

use ctr::analysis::{self, Ordering, Verification};
use ctr::constraints::Constraint;
use ctr::gen::{
    order_chain, pipeline_workflow, random_3sat, random_constraints, random_goal,
    random_run_constraints, sat_to_workflow, GoalShape, SatInstance,
};
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

/// `count` constraints over `events` (two or more): mostly the paper's §3
/// shapes of `random_constraints` (`d` = 2 and 3), with runs among them
/// and now and then a degenerate normal form — no disjunct (unsatisfiable)
/// or one empty disjunct (true).
fn wide_constraints(seed: u64, events: &[Symbol], count: usize) -> Vec<Constraint> {
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes = random_constraints(seed, events, count);
    let runs = random_run_constraints(seed ^ 0x0d15, events, count);
    (0..count)
        .map(|i| match rng.gen_range(0..24) {
            0 => Constraint::Or(Vec::new()),
            1 => Constraint::And(Vec::new()),
            2..=6 => runs[i].clone(),
            _ => shapes[i].clone(),
        })
        .collect()
}

/// The literal compile's verdict on `list`.
fn literal(goal: &Goal, list: &[Constraint]) -> bool {
    analysis::is_consistent(goal, list).expect("unique-event")
}

/// The session's conflict is a minimal conflicting subset of `list` by the
/// literal compile (none when the compile is consistent), and its
/// `minimize_constraints` is a greedy replay of `analysis::is_redundant`.
fn check_conflict_and_minimize(
    session: &mut Analyzer,
    goal: &Goal,
    list: &[Constraint],
) -> Result<(), TestCaseError> {
    let conflict = session.conflict();
    prop_assert_eq!(
        conflict.is_none(),
        literal(goal, list),
        "{:?} on {}",
        list,
        goal
    );
    if let Some(subset) = conflict {
        prop_assert!(subset.windows(2).all(|w| w[0] < w[1]), "{:?}", subset);
        let pick = |skip: Option<usize>| -> Vec<Constraint> {
            (subset.iter())
                .filter(|&&i| Some(i) != skip)
                .map(|&i| list[i].clone())
                .collect()
        };
        prop_assert!(
            !literal(goal, &pick(None)),
            "{:?} of {:?} on {}",
            subset,
            list,
            goal
        );
        for &i in &subset {
            prop_assert!(
                literal(goal, &pick(Some(i))),
                "{:?} less {} of {:?} on {}",
                subset,
                i,
                list,
                goal
            );
        }
    }
    let mut kept: Vec<usize> = (0..list.len()).collect();
    let mut rest = list.to_vec();
    let mut i = 0;
    while i < rest.len() {
        if analysis::is_redundant(goal, &rest, i).expect("unique-event") {
            rest.remove(i);
            kept.remove(i);
        } else {
            i += 1;
        }
    }
    prop_assert_eq!(
        session.minimize_constraints(),
        kept,
        "{:?} on {}",
        list,
        goal
    );
    Ok(())
}

/// `Analyzer::ordering` from the literal compiles: `a` and `b` occur
/// together in some execution, and which Klein orders hold.
fn literal_ordering(goal: &Goal, list: &[Constraint], a: Symbol, b: Symbol) -> Ordering {
    let mut together = list.to_vec();
    together.push(Constraint::and(vec![
        Constraint::must(a),
        Constraint::must(b),
    ]));
    let holds = |a, b| {
        let property = Constraint::klein_order(a, b);
        analysis::verify(goal, list, &property)
            .expect("unique-event")
            .holds()
    };
    match (literal(goal, &together), holds(a, b), holds(b, a)) {
        (false, ..) => Ordering::NeverTogether,
        (true, true, _) => Ordering::AlwaysBefore,
        (true, false, true) => Ordering::AlwaysAfter,
        (true, false, false) => Ordering::Unordered,
    }
}

/// Runs a random edit script of `edits` steps over `session` and `list`,
/// drawing from `pool`, and calls `check` before the first step and after
/// each.
fn edit_script(
    session: &mut Analyzer,
    list: &mut Vec<Constraint>,
    pool: &[Constraint],
    seed: u64,
    edits: usize,
    mut check: impl FnMut(&mut Analyzer, &[Constraint]) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    check(session, list)?;
    let mut rng = StdRng::seed_from_u64(seed);
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
        check(session, list)?;
    }
    Ok(())
}

/// The 3-SAT instance on `vars` variables at ratio 4.3, and spare clauses
/// of the same family to edit with.
fn sat_case(seed: u64, vars: usize) -> (SatInstance, Vec<Vec<(usize, bool)>>) {
    let clauses = (vars * 43).div_ceil(10);
    let inst = random_3sat(seed, vars, clauses);
    let spares = random_3sat(seed ^ 0x5a7, vars, 4).clauses;
    (inst, spares)
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
        edit_script(&mut session, &mut list, &pool, cseed, edits, |session, list| {
            check_session(session, &goal, list, &properties, traces.as_ref())
        })?;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The same on lists of the paper's wide shapes (`d` = 2 and 3), runs
    /// and degenerate normal forms, which the session decides by its
    /// selection search: verdicts, counterexamples, orderings, conflicts
    /// and kept sets are the literal compiles', before and after each step
    /// of a random edit script.
    #[test]
    fn wide_constraints_are_the_literal_compiles(
        seed in 0u64..1_000_000, cseed in 0u64..1_000_000, n in 1usize..5, edits in 0usize..4
    ) {
        let (goal, events) = random_goal(seed, shape(), "w");
        prop_assume!(events.len() >= 2);
        let mut list = wide_constraints(cseed, &events, n);
        let properties = random_properties(cseed ^ 0x5eed, &events, 2);
        let pool = wide_constraints(cseed.wrapping_add(7), &events, 4);
        let traces = event_traces(&goal, BUDGET).ok();
        let (a, b) = (events[0], events[events.len() - 1]);
        let mut session = Analyzer::new(&goal, &list).expect("unique-event");
        edit_script(&mut session, &mut list, &pool, cseed, edits, |session, list| {
            check_session(session, &goal, list, &properties, traces.as_ref())?;
            prop_assert_eq!(session.ordering(a, b), literal_ordering(&goal, list, a, b));
            check_conflict_and_minimize(session, &goal, list)
        })?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On the 3-SAT reduction of Prop 4.1 (3 to 8 variables, 4.3 clauses a
    /// variable), the session's consistency is satisfiability by brute
    /// force and the literal compile's, and its conflicts and kept sets are
    /// the literal compiles', before and after clause edits.
    #[test]
    fn sat_sessions_are_brute_force_and_the_literal_compiles(
        seed in 0u64..1_000_000, vars in 3usize..=8, edits in 0usize..3
    ) {
        let (inst, spares) = sat_case(seed, vars);
        let (goal, mut list) = sat_to_workflow(&inst);
        let pool = sat_to_workflow(&SatInstance { vars, clauses: spares }).1;
        let mut session = Analyzer::new(&goal, &list).expect("unique-event");
        edit_script(&mut session, &mut list, &pool, seed, edits, |session, list| {
            // The clauses `list` encodes, read back off its event names.
            let clauses = (list.iter()).map(|c| {
                (c.events().iter())
                    .map(|e| {
                        let (v, polarity) = e.as_str()[1..].split_once('_').expect("x{v}_{t|f}");
                        (v.parse().expect("a variable"), polarity == "t")
                    })
                    .collect()
            });
            let sat = SatInstance { vars, clauses: clauses.collect() }.brute_force_sat();
            prop_assert_eq!(session.is_consistent(), sat, "{:?}", list);
            prop_assert_eq!(literal(&goal, list), sat, "{:?}", list);
            check_conflict_and_minimize(session, &goal, list)
        })?;
    }
}

/// The two degenerate normal forms, beside wide and run constraints: no
/// disjunct makes any list inconsistent and is its own conflict; one empty
/// disjunct changes nothing and is redundant.
#[test]
fn degenerate_normal_forms_are_the_literal_compiles() {
    let goal = ctr::goal::conc(vec![
        Goal::atom("a"),
        ctr::goal::or(vec![Goal::atom("b"), Goal::atom("c")]),
    ]);
    let (never, always) = (Constraint::Or(Vec::new()), Constraint::And(Vec::new()));
    assert_eq!(never.normalize().disjunct_count(), 0);
    assert_eq!(always.normalize().disjuncts, vec![Vec::new()]);
    let wide = Constraint::or(vec![Constraint::must("b"), Constraint::must("c")]);
    let lists = [
        vec![never.clone()],
        vec![always.clone()],
        vec![wide.clone(), never.clone()],
        vec![wide.clone(), always.clone(), Constraint::must_not("b")],
        vec![always, wide, Constraint::order("a", "c"), never],
    ];
    for list in lists {
        let mut session = Analyzer::new(&goal, &list).unwrap();
        let mut check = || check_conflict_and_minimize(&mut session, &goal, &list);
        check().unwrap();
        check_session(&mut session, &goal, &list, &[Constraint::must("a")], None).unwrap();
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

/// The wide referees are not vacuous either: most of their lists carry a
/// constraint of other than one disjunct, and both verdicts occur among
/// them, as do both kinds of verification; both occur among the SAT
/// encodings too.
#[test]
fn the_wide_referees_inputs_are_mostly_wide_and_not_trivial() {
    let (mut lists, mut wide, mut inconsistent, mut holds, mut violated) = (0, 0, 0, 0, 0);
    for case in 0..512u64 {
        let (goal, events) = random_goal(case, shape(), "w");
        if events.len() < 2 {
            continue;
        }
        lists += 1;
        let list = wide_constraints(case, &events, 1 + case as usize % 4);
        if list.iter().any(|c| c.normalize().disjunct_count() != 1) {
            wide += 1;
            inconsistent += usize::from(!literal(&goal, &list));
            for p in random_properties(case ^ 0x5eed, &events, 2) {
                match analysis::verify(&goal, &list, &p).unwrap() {
                    Verification::Holds => holds += 1,
                    Verification::CounterExample(_) => violated += 1,
                }
            }
        }
    }
    let consistent = wide - inconsistent;
    let (mut satisfiable, mut sat_cases) = (0, 0);
    for seed in 0..64 {
        let (inst, _) = sat_case(seed, 3 + seed as usize % 6);
        sat_cases += 1;
        satisfiable += usize::from(inst.brute_force_sat());
    }
    assert!(wide * 4 >= lists * 3, "{wide} of {lists} lists are wide");
    assert!(
        inconsistent >= 100 && consistent >= 100,
        "{consistent} consistent, {inconsistent} not"
    );
    assert!(
        holds >= 200 && violated >= 100,
        "{holds} hold, {violated} violated"
    );
    assert!(
        satisfiable >= 16 && sat_cases - satisfiable >= 8,
        "{satisfiable} of {sat_cases} satisfiable"
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

/// An exact count: a consistent 10-variable SAT session (the reduction of
/// Prop 4.1 at 4.3 clauses a variable, the benchmark's `sat10`) answers 40
/// clause edits, each followed by a consistency query, without a new table
/// entry or a newly interned subgoal. Every clause has been seen once, so
/// its normal form is recorded; the lists the script visits never were
/// compiled, and compiling the last one does add entries. (Each query
/// compiling, they went 1 891 → 7 715 and 388 → 1 736.) The verdicts are
/// the literal compiles'.
#[test]
fn disjunctive_constraints_in_the_graph_fragment_compile_nothing() {
    let vars = 10;
    // A planted assignment keeps every list the script visits satisfiable.
    let planted = |v: usize| !v.is_multiple_of(3);
    let clauses: Vec<Vec<(usize, bool)>> = (random_3sat(17, vars, 120).clauses.into_iter())
        .filter(|c| c.iter().any(|&(v, polarity)| planted(v) == polarity))
        .collect();
    let (kept, spare) = clauses.split_at(43);
    let sat = |clauses: &[Vec<(usize, bool)>]| {
        sat_to_workflow(&SatInstance {
            vars,
            clauses: clauses.to_vec(),
        })
    };
    let ((goal, mut list), alternatives) = (sat(kept), sat(&spare[..8]).1);
    let mut session = Analyzer::new(&goal, &list).unwrap();
    for alternative in &alternatives {
        session.add_constraint(alternative.clone());
        assert!(session.is_consistent());
        session.remove_constraint(list.len());
    }
    let before = session.stats();
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..40 {
        let with = alternatives[rng.gen_range(0..alternatives.len())].clone();
        let at = if rng.gen_bool(0.7) { list.len() - 1 } else { 0 };
        session.replace_constraint(at, with.clone());
        list[at] = with;
        assert!(session.is_consistent());
        assert!(analysis::is_consistent(&goal, &list).unwrap());
    }
    let after = session.stats();
    assert_eq!(
        (after.entries, after.interned),
        (before.entries, before.interned)
    );
    session.compiled();
    assert!(session.stats().entries > after.entries, "a compile records");
}
