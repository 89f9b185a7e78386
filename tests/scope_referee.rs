//! The referee of Scope and Order: `compile` against the unscoped fold it
//! replaced, by trace equivalence of the compiled programs.
//!
//! `Apply` runs the single-disjunct constraints first and applies each
//! wider one at the lowest subgoal holding its events, so its output is
//! trace-equivalent to, not node-identical with, the constraints folded in
//! list order over the whole goal (`ctr_bench::ablation::apply_unscoped`,
//! whose absorption `tests/absorption_referee.rs` referees). On the
//! benchmark's `compile_scratch` specs — generated here by the
//! benchmark's own generator — the two pipelines' programs must be
//! `equivalent`; a scope that drops a sibling holding an event must not
//! be; and a list of runs alone compiles node for node as before.

use ctr::analysis::compile;
use ctr::apply::{apply, ChannelAlloc};
use ctr::constraints::Constraint;
use ctr::excise::excise;
use ctr::gen::{layered_workflow, random_goal, random_run_constraints, GoalShape};
use ctr::goal::{seq, Goal};
use ctr::semantics::{event_traces, satisfies};
use ctr::sym;
use ctr_baselines::{equivalent, Equivalence};
use ctr_bench::ablation::apply_unscoped;
use ctr_engine::Program;
use proptest::prelude::*;

#[allow(dead_code)]
#[path = "../benchmark/src/rng.rs"]
mod rng;

#[allow(dead_code)]
#[path = "../benchmark/src/inputs.rs"]
mod inputs;

/// Pairs of cursor sets the referee may walk per spec; the largest spec
/// needs about a tenth of it.
const CAP: usize = 200_000;

/// `Excise` of the unscoped fold: the pipeline as it was.
fn unscoped(goal: &Goal, constraints: &[Constraint]) -> Goal {
    let applied = apply_unscoped(constraints, goal, &mut ChannelAlloc::fresh_for(goal));
    excise(&applied)
}

fn program(goal: &Goal) -> Program {
    Program::compile(goal).expect("knot-free after Excise")
}

#[test]
fn compile_scratch_specs_compile_to_the_unscoped_folds_traces() {
    for seed in [1, 2] {
        let specs = inputs::compile_specs(seed, false);
        assert_eq!(specs.len(), 43);
        for spec in specs {
            let parsed = ctr_parser::parse_spec(&spec.source).expect("generated specs parse");
            let (goal, constraints) = (parsed.to_goal(), &parsed.constraints);
            let old = unscoped(&goal, constraints);
            let new = compile(&goal, constraints).expect("unique-event").goal;
            let name = format!("seed {seed}, {}", spec.name);
            let wide = (constraints.iter()).any(|c| c.normalize().disjunct_count() != 1);
            if !wide {
                assert_eq!(new, old, "{name}: a list of runs moved");
                continue;
            }
            assert_eq!(new.is_nopath(), old.is_nopath(), "{name}");
            if new.is_nopath() {
                continue;
            }
            let verdict = equivalent(&program(&old), &program(&new), CAP);
            assert_eq!(verdict, Equivalence::Equal, "{name}");
        }
    }
}

#[test]
fn a_scope_that_drops_a_sibling_differs() {
    // klein_order(l2_0, l1_0) over four layers: l1_0 runs first whenever
    // both run, so no execution may hold both. Its scope is layers 1 and
    // 2; applied to layer 1 alone, where l2_0 never occurs, it holds as
    // `¬∇l2_0` and rules nothing out.
    let goal = layered_workflow(4, 2);
    let constraint = Constraint::klein_order("l2_0", "l1_0");
    let Goal::Seq(layers) = &goal else {
        panic!("a layered workflow is a `⊗` of layers");
    };
    let narrow = apply(std::slice::from_ref(&constraint), &layers[1]);
    assert_eq!(narrow, layers[1]);
    let mutant = seq(vec![
        layers[0].clone(),
        narrow,
        layers[2].clone(),
        layers[3].clone(),
    ]);
    let compiled = compile(&goal, std::slice::from_ref(&constraint))
        .unwrap()
        .goal;
    let Equivalence::Differs(trace) = equivalent(&program(&compiled), &program(&mutant), CAP)
    else {
        panic!("the mutant adds executions");
    };
    // The trace semantics confirms it: the mutant completes the trace,
    // the compiled goal does not, and the constraint rules it out.
    let trace: Vec<_> = trace.iter().filter_map(|atom| atom.as_event()).collect();
    let traces = |g: &Goal| event_traces(g, 100_000).expect("small enough to enumerate");
    assert!(traces(&mutant).contains(&trace), "{trace:?}");
    assert!(!traces(&compiled).contains(&trace), "{trace:?}");
    assert!(!satisfies(&trace, &constraint), "{trace:?}");
    assert!(trace.contains(&sym("l1_0")) && trace.contains(&sym("l2_0")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A list of runs compiles node for node as the unscoped fold: Order
    /// keeps list order when there is nothing to sort, and runs are not
    /// scoped.
    #[test]
    fn a_list_of_runs_compiles_as_the_unscoped_fold(
        seed in 0u64..1_000_000, cseed in 0u64..1_000_000, n in 1usize..6
    ) {
        let (goal, events) = random_goal(seed, GoalShape::default(), "r");
        prop_assume!(!events.is_empty());
        let runs = random_run_constraints(cseed, &events, n);
        let applied = apply(&runs, &goal);
        let folded = apply_unscoped(&runs, &goal, &mut ChannelAlloc::fresh_for(&goal));
        prop_assert_eq!(&applied, &folded, "{} under {:?}", goal, runs);
        prop_assert_eq!(applied.to_string(), folded.to_string());
        let compiled = compile(&goal, &runs).expect("unique-event").goal;
        prop_assert_eq!(compiled, excise(&folded));
    }
}
