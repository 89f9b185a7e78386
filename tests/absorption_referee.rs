//! The referee of `∨`-absorption: `Apply` against the literal rule of
//! Theorem 5.11, at sizes `ctr::semantics` cannot enumerate.
//!
//! `Apply(C₁ ∨ … ∨ C_d, ·)` works one alternative of the goal at a time and
//! keeps an alternative some disjunct already holds on as it stands; the
//! literal rule (`ctr_bench::ablation::apply_literal`, composed from the
//! public per-conjunct API) rewrites the whole goal once per disjunct.
//! Absorb is refereed without Scope and Order: the constraints in list
//! order over the whole goal (`ctr_bench::ablation::apply_unscoped`),
//! whose output `tests/scope_referee.rs` holds `apply`'s to. The two must
//! agree up to the alternatives absorbed, and that is decided
//! structurally, per spec family of the benchmark's `compile_scratch`:
//!
//! 1. every alternative the compiler keeps **is** (`==`, channel numbers
//!    included) an alternative of the literal rule's output, and
//! 2. every alternative of the literal output [`refines`] one the compiler
//!    kept — so it adds no execution and dropping it loses none.
//!
//! [`refines`] itself is held to the trace semantics by a proptest:
//! `refines(b, a)` implies `traces(b) ⊆ traces(a)`.

use ctr::apply::{apply, apply_conjunct, apply_normal_form, ChannelAlloc};
use ctr::constraints::{Basic, Constraint};
use ctr::gen;
use ctr::goal::{conc, isolated, or, seq, Channel, Goal};
use ctr::semantics::event_traces;
use ctr::symbol::{sym, Symbol};
use ctr::term::Atom;
use ctr_bench::ablation::{apply_literal, apply_unscoped};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// `goal` without the operations on channels outside `keep`.
fn only_channels(goal: &Goal, keep: &BTreeSet<Channel>) -> Goal {
    let children = |gs: &[Goal]| gs.iter().map(|g| only_channels(g, keep)).collect();
    match goal {
        Goal::Send(xi) | Goal::Receive(xi) if !keep.contains(xi) => Goal::Empty,
        Goal::Seq(gs) => seq(children(gs)),
        Goal::Conc(gs) => conc(children(gs)),
        Goal::Or(gs) => or(children(gs)),
        Goal::Isolated(g) => isolated(only_channels(g, keep)),
        // No rewrite looks inside ◇; the other leaves hold no channel.
        _ => goal.clone(),
    }
}

/// True if `b` is `a` with `∨`-branches taken out and events dressed in
/// further channels: the same connectives over the same children, an atom
/// standing as `receive(ξ…) ⊗ atom ⊗ send(ξ…)` for the bare atom, `⊙`
/// congruent. Sufficient for `traces(b) ⊆ traces(a)`: synchronizing on a
/// channel `a` does not know only holds executions back, and so does
/// taking a choice away.
fn refines(b: &Goal, a: &Goal) -> bool {
    prunes(&only_channels(b, &a.channels()), a)
}

/// True if `b` is what the smart constructors make of `a` with some
/// `∨`-branches taken out.
fn prunes(b: &Goal, a: &Goal) -> bool {
    if b == a {
        return true;
    }
    // A choice is left of `a` if each of its branches is.
    if let Goal::Or(kept) = b {
        return kept.iter().all(|k| prunes(k, a));
    }
    match a {
        Goal::Or(branches) => branches.iter().any(|a| prunes(b, a)),
        Goal::Seq(children) | Goal::Conc(children) => {
            let serial = matches!(a, Goal::Seq(_));
            let items = match b {
                Goal::Seq(items) if serial => &items[..],
                Goal::Conc(items) if !serial => &items[..],
                Goal::Empty => &[],
                single => std::slice::from_ref(single),
            };
            reach(serial, children, items).contains(&items.len())
        }
        Goal::Isolated(inner) => match b {
            Goal::Isolated(kept) => prunes(kept, inner),
            Goal::Empty => prunes(b, inner),
            _ => false,
        },
        // A leaf is pruned to itself alone.
        _ => false,
    }
}

/// The lengths of the prefixes of `items` — children of a `⊗` (`serial`)
/// or `|` node — that may be what is left of `children` in that order.
fn reach(serial: bool, children: &[Goal], items: &[Goal]) -> Vec<usize> {
    let mut positions = vec![0];
    for child in children {
        let mut next = Vec::new();
        for &p in &positions {
            for k in consume(serial, child, &items[p..]) {
                if !next.contains(&(p + k)) {
                    next.push(p + k);
                }
            }
        }
        positions = next;
    }
    positions
}

/// How many leading `items` may be what is left of the single child `a`:
/// none when it was pruned to `ε`, one as a rule, several when a branch of
/// the list's own connective was chosen and flattened in.
fn consume(serial: bool, a: &Goal, items: &[Goal]) -> Vec<usize> {
    match a {
        Goal::Or(branches) => {
            let mut ks = Vec::new();
            if matches!(items.first(), Some(first @ Goal::Or(_)) if prunes(first, a)) {
                ks.push(1);
            }
            for branch in branches.iter() {
                for k in consume(serial, branch, items) {
                    if !ks.contains(&k) {
                        ks.push(k);
                    }
                }
            }
            ks
        }
        Goal::Seq(children) if serial => reach(serial, children, items),
        Goal::Conc(children) if !serial => reach(serial, children, items),
        _ => {
            let mut ks = Vec::new();
            if prunes(&Goal::Empty, a) {
                ks.push(0);
            }
            if items.first().is_some_and(|first| prunes(first, a)) {
                ks.push(1);
            }
            ks
        }
    }
}

/// The alternatives of a goal: the branches of a root `∨`, the goal
/// itself otherwise, none for `¬path`.
fn alternatives(goal: &Goal) -> &[Goal] {
    match goal {
        Goal::Or(gs) => gs,
        Goal::NoPath => &[],
        single => std::slice::from_ref(single),
    }
}

/// Absorb alone, numbered like the literal rule.
fn unscoped(constraints: &[Constraint], goal: &Goal) -> Goal {
    apply_unscoped(constraints, goal, &mut ChannelAlloc::fresh_for(goal))
}

/// The two assertions, on one spec.
fn assert_absorbed_is_literal(name: &str, goal: &Goal, constraints: &[Constraint]) {
    let absorbed = unscoped(constraints, goal);
    let literal = apply_literal(constraints, goal, &mut ChannelAlloc::fresh_for(goal));
    let (kept, all) = (alternatives(&absorbed), alternatives(&literal));
    assert!(
        absorbed.size() <= literal.size() && kept.len() <= all.len(),
        "{name}: {} nodes in {} alternatives, the literal rule {} in {}",
        absorbed.size(),
        kept.len(),
        literal.size(),
        all.len()
    );
    let events: Vec<BTreeSet<Symbol>> = kept.iter().map(Goal::events).collect();
    for k in kept {
        assert!(
            all.contains(k),
            "{name}: `{k}` is no alternative of the literal rule"
        );
    }
    for l in all {
        let named = l.events();
        let refined = kept.contains(l)
            || (kept.iter().zip(&events)).any(|(k, e)| named.is_subset(e) && refines(l, k));
        assert!(refined, "{name}: `{l}` refines nothing that was kept");
    }
}

/// One event per stage, lane and side drawn, over `stages` consecutive
/// stages of a layered workflow — how the benchmark constrains its grid.
fn stage_events(rng: &mut StdRng, layers: usize, lanes: usize, stages: usize) -> Vec<Symbol> {
    let first = rng.gen_range(0..=layers - stages);
    (first..first + stages)
        .map(|stage| {
            let (left, right) = gen::layered_events(stage, rng.gen_range(0..lanes));
            if rng.gen_bool(0.5) {
                left
            } else {
                right
            }
        })
        .collect()
}

#[test]
fn layered_klein_chains_keep_a_subset_of_the_literal_alternatives() {
    let mut rng = StdRng::seed_from_u64(24);
    for (layers, klein) in [(8, 5), (16, 4), (32, 3), (64, 2)] {
        for lanes in [2, 3] {
            let goal = gen::layered_workflow(layers, lanes);
            for draw in 0..2 {
                let constraints: Vec<Constraint> = stage_events(&mut rng, layers, lanes, klein + 1)
                    .windows(2)
                    .map(|w| Constraint::klein_order(w[0], w[1]))
                    .collect();
                let name = format!("layered{layers}x{lanes}_klein{klein}/{draw}");
                assert_absorbed_is_literal(&name, &goal, &constraints);
            }
        }
    }
}

#[test]
fn order_chains_are_the_literal_rule() {
    // d = 1 throughout: nothing to absorb, and a run is its fold.
    let mut rng = StdRng::seed_from_u64(24);
    for layers in [8, 16, 32, 64] {
        for lanes in [2, 3] {
            let constraints: Vec<Constraint> = stage_events(&mut rng, layers, lanes, layers)
                .windows(2)
                .map(|w| Constraint::order(w[0], w[1]))
                .collect();
            let goal = gen::layered_workflow(layers, lanes);
            let name = format!("layered{layers}x{lanes}_orders");
            assert_absorbed_is_literal(&name, &goal, &constraints);
            assert_eq!(
                apply(&constraints, &goal),
                apply_literal(&constraints, &goal, &mut ChannelAlloc::new())
            );
        }
    }
    for n in [16, 32, 64] {
        let (goal, constraints) = (gen::pipeline_workflow(2 * n + 2), gen::order_chain(n));
        assert_absorbed_is_literal(&format!("pipeline_orders{n}"), &goal, &constraints);
    }
}

#[test]
fn sat_reductions_keep_a_subset_of_the_literal_alternatives() {
    // The benchmark's five base instances (it only relabels them).
    for (vars, seed) in [(6, 2), (7, 2), (8, 5), (9, 3), (10, 3)] {
        let inst = gen::random_3sat(seed, vars, (vars as f64 * 4.3) as usize);
        let (goal, clauses) = gen::sat_to_workflow(&inst);
        assert_absorbed_is_literal(&format!("sat{vars}"), &goal, &clauses);
        assert_eq!(
            !apply(&clauses, &goal).is_nopath(),
            inst.brute_force_sat(),
            "sat{vars}"
        );
    }
}

#[test]
fn sat10_walks_a_third_of_the_literal_rules_pairs() {
    // What a clause costs is the alternatives it meets. Counted clause by
    // clause on the benchmark's `sat10`: (alternative, clause) pairs, the
    // first clause meeting the goal itself.
    let (goal, clauses) = gen::sat_to_workflow(&gen::random_3sat(3, 10, 43));
    let terms = |g: &Goal| alternatives(g).len();
    let (mut absorbed, mut literal) = (goal.clone(), goal);
    let (mut pairs, mut literal_pairs) = (0, 0);
    for clause in &clauses {
        pairs += terms(&absorbed);
        literal_pairs += terms(&literal);
        let channels = &mut ChannelAlloc::new();
        absorbed = apply_normal_form(&clause.normalize(), &absorbed, channels);
        literal = apply_literal(std::slice::from_ref(clause), &literal, channels);
    }
    assert_eq!((pairs, literal_pairs), (1_995, 5_718));
}

#[test]
fn random_specs_keep_a_subset_of_the_literal_alternatives() {
    for seed in 0..24 {
        let (goal, events) = gen::random_goal(seed, gen::GoalShape::default(), "r");
        if events.len() < 2 {
            continue;
        }
        let constraints = gen::random_constraints(seed + 100, &events, 3);
        assert_absorbed_is_literal(&format!("random{seed}"), &goal, &constraints);
    }
}

#[test]
fn the_checked_in_examples_keep_a_subset_of_the_literal_alternatives() {
    let examples = [
        ("knot", include_str!("../examples/specs/knot.ctr")),
        (
            "order_fulfilment",
            include_str!("../examples/specs/order_fulfilment.ctr"),
        ),
        (
            "payment_saga",
            include_str!("../examples/specs/payment_saga.ctr"),
        ),
        (
            "retry_polling",
            include_str!("../examples/specs/retry_polling.ctr"),
        ),
        ("trip", include_str!("../examples/specs/trip.ctr")),
    ];
    for (name, source) in examples {
        let spec = ctr_parser::parse_spec(source).expect("checked-in examples parse");
        assert_absorbed_is_literal(name, &spec.to_goal(), &spec.constraints);
    }
}

#[test]
fn blow_up_families_keep_a_subset_of_the_literal_alternatives() {
    // Longer Klein chains than the benchmark compiles: dependent ones
    // (consecutive stages, most alternatives absorbed) and independent
    // ones (a constraint per lane pair, nothing absorbed: the two rules
    // must then agree alternative for alternative).
    let goal = gen::layered_workflow(16, 2);
    for n in [6, 8] {
        assert_absorbed_is_literal(&format!("chain{n}"), &goal, &gen::klein_chain(n));
    }
    for k in [3, 5] {
        let (goal, constraints) = gen::independent_kleins(k);
        assert_absorbed_is_literal(&format!("independent{k}"), &goal, &constraints);
        let absorbed = unscoped(&constraints, &goal);
        let literal = apply_literal(&constraints, &goal, &mut ChannelAlloc::new());
        assert_eq!(alternatives(&absorbed).len(), 3usize.pow(k as u32));
        assert_eq!(absorbed.size(), literal.size());
    }
}

// ---------------------------------------------------------------------------
// `refines` against the trace semantics.

const BUDGET: usize = 20_000;

/// A run of one to three basics over the events of `goal`.
fn random_run(rng: &mut StdRng, goal: &Goal) -> Vec<Basic> {
    let named: Vec<Symbol> = goal.events().into_iter().collect();
    if named.is_empty() {
        return Vec::new();
    }
    (0..rng.gen_range(1..=3))
        .map(|_| {
            let mut pick = || named[rng.gen_range(0..named.len())];
            let (a, b) = (pick(), pick());
            match rng.gen_range(0..10) {
                0..=5 => Basic::Order(a, b),
                6..=7 => Basic::Must(a),
                _ => Basic::MustNot(a),
            }
        })
        .collect()
}

/// `goal` with one thing changed somewhere — a branch or a conjunct
/// dropped, two conjuncts swapped, a leaf replaced by another event, by a
/// choice, or by an operation on channel 0 or 99. Some of these refine
/// `goal`, most do not.
fn mutate(rng: &mut StdRng, goal: &Goal, pool: &[Symbol]) -> Goal {
    let rebuild = |children: Vec<Goal>| match goal {
        Goal::Seq(_) => seq(children),
        Goal::Conc(_) => conc(children),
        _ => or(children),
    };
    match goal {
        Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
            let mut children = gs.to_vec();
            let i = rng.gen_range(0..children.len());
            match rng.gen_range(0..6) {
                0 => {
                    children.remove(i);
                }
                1 => children.swap(0, i),
                _ => children[i] = mutate(rng, &children[i], pool),
            }
            rebuild(children)
        }
        Goal::Isolated(g) if rng.gen_bool(0.8) => isolated(mutate(rng, g, pool)),
        _ => {
            let other = Goal::Atom(Atom::prop(pool[rng.gen_range(0..pool.len())]));
            let xi = Channel(if rng.gen_bool(0.5) { 0 } else { 99 });
            match rng.gen_range(0..5) {
                0 => other,
                1 => or(vec![goal.clone(), other]),
                2 => seq(vec![Goal::Receive(xi), goal.clone()]),
                3 => seq(vec![goal.clone(), Goal::Send(xi)]),
                _ => Goal::Empty,
            }
        }
    }
}

/// A goal that may hold channels, and candidates to refine it: what a run
/// and a disjunctive constraint make of it, and mutants of both kinds.
fn refinement_case(seed: u64) -> (Goal, Vec<Goal>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<Symbol> = (0..6).map(|i| sym(&format!("w{i}"))).collect();
    let bare = gen::sharing_goal(&mut rng, &pool, &pool, 4);
    let channels = &mut ChannelAlloc::new();
    let dressed = apply_conjunct(&random_run(&mut rng, &bare), &bare, channels);
    let a = if dressed.is_nopath() { bare } else { dressed };
    let mut candidates = vec![
        apply_conjunct(&random_run(&mut rng, &a), &a, channels),
        unscoped(&gen::random_constraints(seed, &pool, 2), &a),
    ];
    for _ in 0..4 {
        let from = &candidates[rng.gen_range(0..candidates.len())];
        let from = if rng.gen_bool(0.5) { &a } else { from };
        candidates.push(mutate(&mut rng, from, &pool));
    }
    candidates.retain(|b| !b.is_nopath());
    (a, candidates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// What `refines` accepts adds no execution — on goals with `⊙`, `◇`,
    /// `ε`, channels and `∨`-branches that share events.
    #[test]
    fn what_refines_adds_no_execution(seed in 0u64..1_000_000) {
        let (a, candidates) = refinement_case(seed);
        // (A handful of seeds draw a `|` too wide to enumerate.)
        let Ok(allowed) = event_traces(&a, BUDGET) else {
            return Ok(());
        };
        for b in candidates {
            if refines(&b, &a) {
                // (Channel operations `a` lacks multiply the raw
                // interleavings to filter.)
                let Ok(traces) = event_traces(&b, BUDGET) else {
                    continue;
                };
                prop_assert!(traces.is_subset(&allowed), "`{}` against `{}`", b, a);
            }
        }
    }
}

#[test]
fn refines_accepts_what_apply_makes_and_refuses_most_mutants() {
    let (mut applied, mut accepted, mut mutants, mut refused) = (0, 0, 0, 0);
    for seed in 0..1024 {
        let (a, candidates) = refinement_case(seed);
        for (i, b) in candidates.iter().enumerate() {
            let verdict = refines(b, &a);
            // The first two candidates are `Apply`'s, unless one was ¬path.
            if i < 2 && candidates.len() == 6 {
                applied += 1;
                accepted += usize::from(verdict);
            } else {
                mutants += 1;
                refused += usize::from(!verdict);
            }
        }
    }
    assert!(
        applied >= 256 && 10 * accepted >= 9 * applied,
        "{accepted} of {applied} rewrites accepted"
    );
    assert!(
        4 * refused >= mutants,
        "{refused} of {mutants} mutants refused"
    );
}
