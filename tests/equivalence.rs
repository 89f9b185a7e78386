//! Property-based tests of the paper's central equivalences, with the
//! trace-semantics oracle as ground truth.
//!
//! The key equations under test:
//!
//! * Propositions 5.2/5.4/5.6: `Apply(σ, T) ≡ T ∧ σ` — the traces of the
//!   compiled goal are exactly the traces of `T` satisfying `σ`.
//! * `Excise` preserves trace semantics exactly (it only removes
//!   unexecutable structure).
//! * The SLD interpreter, the compiled scheduler, and the model-theoretic
//!   trace enumeration all denote the same execution sets.
//! * The passive baselines accept exactly the satisfying traces.
//!
//! Random inputs come from `ctr::gen` (unique-event by construction),
//! driven by proptest-chosen seeds; oversized interleaving spaces are
//! skipped via the enumeration budget.

use ctr::analysis::{compile, Verification};
use ctr::constraints::Constraint;
use ctr::excise::excise;
use ctr::gen::{
    layered_events, layered_workflow, random_constraints, random_goal, random_run_constraints,
    GoalShape,
};
use ctr::goal::Goal;
use ctr::memo::Analyzer;
use ctr::semantics::{event_traces, satisfies};
use ctr::symbol::Symbol;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const BUDGET: usize = 60_000;

fn shape() -> GoalShape {
    GoalShape {
        depth: 3,
        width: 3,
        or_bias: 0.35,
    }
}

/// Trace set of a goal, or `None` if enumeration exceeds the budget.
fn traces(goal: &Goal) -> Option<BTreeSet<Vec<Symbol>>> {
    event_traces(goal, BUDGET).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Apply + Excise computes exactly { t ∈ traces(G) | t ⊨ C }, for the
    /// catalogue's constraints and for runs of orders, serials, `∇` and
    /// `¬∇` (reflexive orders among them).
    #[test]
    fn compile_equals_filtered_semantics(seed in 0u64..5000, cseed in 0u64..5000, n in 1usize..4) {
        let (goal, events) = random_goal(seed, shape(), "e");
        prop_assume!(events.len() >= 2);
        let Some(base) = traces(&goal) else { return Ok(()) };
        for constraints in [random_constraints(cseed, &events, n), random_run_constraints(cseed, &events, n)] {
            let compiled = compile(&goal, &constraints).expect("generated goals are unique-event");
            let Some(got) = traces(&compiled.goal) else { continue };

            let want: BTreeSet<Vec<Symbol>> = base
                .iter()
                .filter(|t| constraints.iter().all(|c| satisfies(t, c)))
                .cloned()
                .collect();
            prop_assert_eq!(got, want, "goal {} constraints {:?}", goal, constraints);
        }
    }

    /// Scope on the shape it is for: Klein orders between adjacent stages
    /// of a layered workflow, their windows disjoint or overlapping, in
    /// either direction, compile to exactly the filtered traces — each
    /// applied over its own window of layers, not the whole goal.
    #[test]
    fn scoped_klein_chains_equal_filtered_semantics(
        seed in 0u64..5000, layers in 2usize..5, lanes in 1usize..3, k in 1usize..4
    ) {
        let goal = layered_workflow(layers, lanes);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pick = |stage| {
            let (left, right) = layered_events(stage, rng.gen_range(0..lanes));
            if rng.gen_bool(0.5) { left } else { right }
        };
        let stages: Vec<usize> = (0..k).map(|i| (3 * i + seed as usize) % (layers - 1)).collect();
        let constraints: Vec<Constraint> = (stages.iter().enumerate())
            .map(|(i, &stage)| {
                let (a, b) = (pick(stage), pick(stage + 1));
                if i % 2 == 0 { Constraint::klein_order(a, b) } else { Constraint::klein_order(b, a) }
            })
            .collect();
        let Some(base) = traces(&goal) else { return Ok(()) };
        let compiled = compile(&goal, &constraints).expect("layered goals are unique-event");
        let want: BTreeSet<Vec<Symbol>> = base
            .into_iter()
            .filter(|t| constraints.iter().all(|c| satisfies(t, c)))
            .collect();
        prop_assert_eq!(traces(&compiled.goal), Some(want), "{:?}", constraints);
        // A layer no window takes is still a layer of the compiled goal.
        if let (Goal::Seq(before), Goal::Seq(after)) = (&goal, &compiled.goal) {
            for (j, layer) in before.iter().enumerate() {
                if !stages.iter().any(|&s| s == j || s + 1 == j) {
                    prop_assert!(after.contains(layer), "layer {} in {}", j, compiled.goal);
                }
            }
        }
    }

    /// Excise never changes the trace semantics, only the structure.
    #[test]
    fn excise_preserves_traces(seed in 0u64..5000, cseed in 0u64..5000) {
        let (goal, events) = random_goal(seed, shape(), "x");
        prop_assume!(events.len() >= 2);
        // Produce channel-laden goals by applying an order constraint
        // without excising.
        let constraints = random_constraints(cseed, &events, 2);
        let applied = ctr::apply::apply(&constraints, &goal);
        let Some(before) = traces(&applied) else { return Ok(()) };
        let excised = excise(&applied);
        let Some(after) = traces(&excised) else { return Ok(()) };
        prop_assert_eq!(before, after, "applied {}", applied);
    }

    /// Consistency decided by compilation agrees with the semantics.
    #[test]
    fn consistency_matches_semantics(seed in 0u64..5000, cseed in 0u64..5000, n in 1usize..5) {
        let (goal, events) = random_goal(seed, shape(), "c");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, n);
        let Some(base) = traces(&goal) else { return Ok(()) };
        let semantically = base.iter().any(|t| constraints.iter().all(|c| satisfies(t, c)));
        let compiled = compile(&goal, &constraints).unwrap();
        prop_assert_eq!(compiled.is_consistent(), semantically);
    }

    /// The verification decision (Theorem 5.9) agrees with checking the
    /// property on every trace, and counterexamples are genuine — for a
    /// property from the catalogue and one from the run fragment.
    #[test]
    fn verification_matches_semantics(seed in 0u64..5000, cseed in 0u64..5000) {
        let (goal, events) = random_goal(seed, shape(), "v");
        prop_assume!(events.len() >= 2);
        let Some(base) = traces(&goal) else { return Ok(()) };
        let properties = [random_constraints(cseed, &events, 1), random_run_constraints(cseed, &events, 1)];
        for property in properties.iter().flatten() {
            let all_satisfy = base.iter().all(|t| satisfies(t, property));
            match ctr::analysis::verify(&goal, &[], property).unwrap() {
                ctr::analysis::Verification::Holds => prop_assert!(all_satisfy, "{} on {}", property, goal),
                ctr::analysis::Verification::CounterExample(ce) => {
                    prop_assert!(!all_satisfy, "{} on {}", property, goal);
                    if let Some(ce_traces) = traces(&ce) {
                        prop_assert!(!ce_traces.is_empty());
                        for t in &ce_traces {
                            prop_assert!(!satisfies(t, property), "counterexample trace {:?} satisfies {}", t, property);
                        }
                    }
                }
            }
        }
    }

    /// Interpreter, scheduler, and semantics agree on propositional goals.
    #[test]
    fn all_three_execution_layers_agree(seed in 0u64..5000) {
        let (goal, _) = random_goal(seed, shape(), "l");
        let Some(semantic) = traces(&goal) else { return Ok(()) };

        let engine = ctr_engine::Engine::new();
        // The exhaustive interpreter explores interleaved configurations,
        // which can exceed its step budget even when the trace set fits
        // ours; skip those goals.
        let Ok(execs) = engine.executions(&goal, &ctr_state::Database::new()) else {
            return Ok(());
        };
        let from_engine: BTreeSet<Vec<Symbol>> =
            execs.iter().map(ctr_engine::Execution::event_names).collect();
        prop_assert_eq!(&from_engine, &semantic, "interpreter vs semantics on {}", goal);

        let program = ctr_engine::Program::compile(&goal).expect("consistent");
        let from_scheduler = ctr_engine::Scheduler::new(&program).enumerate_traces(BUDGET * 4);
        prop_assert_eq!(&from_scheduler, &semantic, "scheduler vs semantics on {}", goal);
    }

    /// The passive validator and the automata product accept exactly the
    /// satisfying traces of real workflow executions.
    #[test]
    fn baselines_agree_with_semantics(seed in 0u64..5000, cseed in 0u64..5000, n in 1usize..4) {
        let (goal, events) = random_goal(seed, shape(), "b");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, n);
        let Some(base) = traces(&goal) else { return Ok(()) };

        let validator = ctr_baselines::PassiveValidator::new(&constraints);
        let product = ctr_baselines::ProductScheduler::new(&constraints);
        for t in base.iter().take(64) {
            let want = constraints.iter().all(|c| satisfies(t, c));
            prop_assert_eq!(validator.validate(t), want, "singh on {:?}", t);
            prop_assert_eq!(product.validate(t), want, "attie on {:?}", t);
        }
    }

    /// Scheduling a compiled workflow always yields a trace satisfying
    /// every constraint — no run-time checking needed (the §4 claim).
    #[test]
    fn scheduled_paths_need_no_validation(seed in 0u64..5000, cseed in 0u64..5000, n in 1usize..4) {
        let (goal, events) = random_goal(seed, shape(), "s");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, n);
        let compiled = compile(&goal, &constraints).unwrap();
        if !compiled.is_consistent() {
            return Ok(());
        }
        let program = ctr_engine::Program::compile(&compiled.goal).unwrap();
        let trace = ctr_engine::Scheduler::new(&program)
            .run_first()
            .expect("excised goals are knot-free");
        let names: Vec<Symbol> = trace.iter().filter_map(ctr::term::Atom::as_event).collect();
        for c in &constraints {
            prop_assert!(satisfies(&names, c), "constraint {} on scheduled {:?}", c, names);
        }
    }

    /// End-to-end: enumerating the compiled program's schedules yields
    /// exactly the constraint-satisfying traces of the original workflow
    /// — the full Apply → Excise → Program → Scheduler pipeline against
    /// the oracle.
    #[test]
    fn scheduler_enumeration_of_compiled_matches_filter(
        seed in 0u64..5000, cseed in 0u64..5000, n in 1usize..4
    ) {
        let (goal, events) = random_goal(seed, shape(), "sc");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, n);
        let Some(base) = traces(&goal) else { return Ok(()) };
        let want: BTreeSet<Vec<Symbol>> = base
            .into_iter()
            .filter(|t| constraints.iter().all(|c| satisfies(t, c)))
            .collect();

        let compiled = compile(&goal, &constraints).unwrap();
        if !compiled.is_consistent() {
            prop_assert!(want.is_empty());
            return Ok(());
        }
        let program = ctr_engine::Program::compile(&compiled.goal).unwrap();
        let got = ctr_engine::Scheduler::new(&program).enumerate_traces(BUDGET * 4);
        prop_assert_eq!(got, want, "goal {} constraints {:?}", goal, constraints);
    }

    /// The activity report (mandatory/optional/dead) agrees with the
    /// trace-level ground truth.
    #[test]
    fn activity_report_matches_semantics(seed in 0u64..5000, cseed in 0u64..5000, n in 1usize..4) {
        let (goal, events) = random_goal(seed, shape(), "ar");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, n);
        let compiled = compile(&goal, &constraints).unwrap();
        let Some(allowed) = traces(&compiled.goal) else { return Ok(()) };
        let report = ctr::analysis::activity_report(&goal, &constraints).unwrap();
        for (event, status) in report {
            let occurs_in = allowed.iter().filter(|t| t.contains(&event)).count();
            let expected = if occurs_in == 0 {
                ctr::analysis::ActivityStatus::Dead
            } else if occurs_in == allowed.len() {
                ctr::analysis::ActivityStatus::Mandatory
            } else {
                ctr::analysis::ActivityStatus::Optional
            };
            prop_assert_eq!(status, expected, "event {} on {}", event, goal);
        }
    }

    /// The declarative formula reading of `G ∧ C` (ctr::formula) agrees
    /// with the compiled pipeline — the headline equivalence restated at
    /// the full-CTR level.
    #[test]
    fn formula_spec_matches_compiled_pipeline(seed in 0u64..5000, cseed in 0u64..5000, n in 1usize..3) {
        let (goal, events) = random_goal(seed, GoalShape { depth: 3, width: 2, or_bias: 0.35 }, "f");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, n);
        let formula = ctr::Formula::spec(goal.clone(), &constraints);
        let Ok(declarative) = formula.executions_of(&goal, BUDGET) else { return Ok(()) };
        let compiled = compile(&goal, &constraints).unwrap();
        let Some(fast) = traces(&compiled.goal) else { return Ok(()) };
        prop_assert_eq!(fast, declarative, "goal {} constraints {:?}", goal, constraints);
    }

    /// The tabled path against the oracle itself. The one-shot functions
    /// and the `Analyzer` share their rule text, so parity between them
    /// cannot expose a wrong rule; here one warm session is driven through
    /// an add/remove/replace edit script and, after every edit, its
    /// compiled goal and a verification verdict are checked against the
    /// trace semantics: `compiled()` denotes exactly the traces of `G`
    /// satisfying the edited set, and a counterexample exactly those of
    /// them that violate the property.
    #[test]
    fn warm_analyzer_edit_script_matches_semantics(
        seed in 0u64..5000,
        cseed in 0u64..5000,
        n in 1usize..4,
        script in proptest::collection::vec((0u8..3, 0usize..64, 0usize..64), 1..7),
    ) {
        let (goal, events) = random_goal(seed, shape(), "w");
        prop_assume!(events.len() >= 2);
        let Some(base) = traces(&goal) else { return Ok(()) };
        let mut shadow = random_constraints(cseed, &events, n);
        let pool = random_constraints(cseed.wrapping_add(1), &events, 8);
        let mut analyzer = Analyzer::new(&goal, &shadow).expect("unique-event");
        // Warm the table on the unedited set.
        analyzer.compiled();

        for (kind, at, pick) in script {
            // One draw picks both the constraint an edit inserts and the
            // property asked afterwards, out of the pool of 8.
            let (with, ask) = (pick % 8, pick / 8);
            match kind {
                0 => {
                    prop_assert_eq!(analyzer.add_constraint(pool[with].clone()), shadow.len());
                    shadow.push(pool[with].clone());
                }
                1 if !shadow.is_empty() => {
                    let at = at % shadow.len();
                    prop_assert_eq!(analyzer.remove_constraint(at), shadow.remove(at));
                }
                2 if !shadow.is_empty() => {
                    let at = at % shadow.len();
                    let old = std::mem::replace(&mut shadow[at], pool[with].clone());
                    prop_assert_eq!(analyzer.replace_constraint(at, pool[with].clone()), old);
                }
                _ => {}
            }
            let allowed: BTreeSet<Vec<Symbol>> = base
                .iter()
                .filter(|t| shadow.iter().all(|c| satisfies(t, c)))
                .cloned()
                .collect();
            prop_assert_eq!(analyzer.is_consistent(), !allowed.is_empty(), "set {:?} on {}", shadow, goal);
            let compiled = analyzer.compiled().goal.clone();
            if let Some(got) = traces(&compiled) {
                prop_assert_eq!(&got, &allowed, "set {:?} on {}", shadow, goal);
            }

            let property = &pool[ask];
            let violating: BTreeSet<Vec<Symbol>> =
                allowed.iter().filter(|t| !satisfies(t, property)).cloned().collect();
            match analyzer.verify(property) {
                Verification::Holds => {
                    prop_assert!(violating.is_empty(), "{} under {:?} on {}", property, shadow, goal);
                }
                Verification::CounterExample(ce) => {
                    prop_assert!(!violating.is_empty(), "{} under {:?} on {}", property, shadow, goal);
                    if let Some(ce_traces) = traces(&ce) {
                        prop_assert_eq!(ce_traces, violating, "{} under {:?} on {}", property, shadow, goal);
                    }
                }
            }
        }
    }

    /// Constraint normalization preserves satisfaction (Cor 3.5), and
    /// double negation is involutive (Lemma 3.4).
    #[test]
    fn normalization_preserves_satisfaction(cseed in 0u64..5000, tlen in 0usize..5) {
        let events: Vec<Symbol> = (0..5).map(|i| ctr::sym(&format!("n{i}"))).collect();
        let c = random_constraints(cseed, &events, 1).pop().expect("one constraint");
        let nf = c.normalize();
        let neg_neg = Constraint::not(Constraint::not(c.clone()));

        // Unique-event traces over the pool.
        let mut trace: Vec<Symbol> = events.clone();
        // Deterministic pseudo-shuffle from the seed.
        trace.rotate_left((cseed as usize) % events.len().max(1));
        trace.truncate(tlen);

        prop_assert_eq!(
            satisfies(&trace, &c),
            ctr::semantics::satisfies_normal_form(&trace, &nf),
            "constraint {} trace {:?}", c, trace
        );
        prop_assert_eq!(
            satisfies(&trace, &c),
            satisfies(&trace, &neg_neg),
            "double negation on {}", c
        );
    }
}
