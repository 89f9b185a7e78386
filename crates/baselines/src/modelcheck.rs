//! Explicit-state model checking over the workflow marking graph — the
//! "standard model checking techniques \[9\]" baseline of §6.
//!
//! The paper's comparison: model checking is worst-case exponential in the
//! size of the control flow graph (the state-explosion problem), while
//! `Apply` is linear in the graph and exponential only in the (much
//! smaller) constraint set. This module makes that comparison measurable:
//! it builds the reachable marking graph of a workflow — every distinct
//! future of a scheduler cursor, [`Scheduler::residual_key`] being the
//! state identity — optionally in product with the constraint automata,
//! and verifies properties by exhaustive exploration.

use crate::attie::{AutoState, ConstraintAutomaton};
use ctr::constraints::Constraint;
use ctr::goal::Goal;
use ctr_engine::scheduler::{Program, ScheduleError, Scheduler};
use std::collections::{BTreeSet, VecDeque};

/// Result of an explicit-state exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exploration {
    /// Number of distinct reachable markings (× automaton states when a
    /// property is attached).
    pub states: usize,
    /// Whether exploration hit the state cap before exhausting the space.
    pub truncated: bool,
    /// A violating trace, if the property check failed.
    pub counterexample: Option<Vec<ctr::symbol::Symbol>>,
}

/// Explores the reachable marking graph of `goal`, up to `cap` states.
pub fn explore(goal: &Goal, cap: usize) -> Result<Exploration, ScheduleError> {
    explore_with_property(goal, None, cap)
}

/// Model-checks `property` over every execution of `goal` by exploring
/// the product of the marking graph with the property automaton. Returns
/// the exploration statistics and a counterexample trace if the property
/// can be violated.
pub fn check(goal: &Goal, property: &Constraint, cap: usize) -> Result<Exploration, ScheduleError> {
    explore_with_property(goal, Some(property), cap)
}

fn explore_with_property(
    goal: &Goal,
    property: Option<&Constraint>,
    cap: usize,
) -> Result<Exploration, ScheduleError> {
    let program = Program::compile(goal)?;
    let automaton = property.map(ConstraintAutomaton::new);

    struct Node<'p> {
        scheduler: Scheduler<&'p Program>,
        auto: AutoState,
    }

    let initial = Node {
        scheduler: Scheduler::new(&program),
        auto: AutoState::default(),
    };
    let key = |n: &Node| -> (Vec<u8>, AutoState) { (n.scheduler.residual_key(), n.auto.clone()) };

    let mut seen: BTreeSet<(Vec<u8>, AutoState)> = BTreeSet::from([key(&initial)]);
    let mut queue = VecDeque::from([initial]);
    let mut truncated = false;
    let mut counterexample = None;

    while let Some(node) = queue.pop_front() {
        if node.scheduler.is_complete() {
            if let Some(auto) = &automaton {
                if !auto.accepts(&node.auto) && counterexample.is_none() {
                    counterexample = Some(node.scheduler.trace_names());
                }
            }
            continue;
        }
        if seen.len() >= cap {
            truncated = true;
            continue;
        }
        for choice in node.scheduler.eligible() {
            let mut scheduler = node.scheduler.clone();
            scheduler.fire(choice.node);
            let auto = match (&automaton, program.event(choice.node)) {
                (Some(a), Some(atom)) => match atom.as_event() {
                    Some(e) => a.step(&node.auto, e),
                    None => node.auto.clone(),
                },
                _ => node.auto.clone(),
            };
            let next = Node { scheduler, auto };
            if seen.insert(key(&next)) {
                queue.push_back(next);
            }
        }
    }

    Ok(Exploration {
        states: seen.len(),
        truncated,
        counterexample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctr::goal::{conc, or, seq};
    use ctr::symbol::sym;

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    #[test]
    fn pipeline_has_linear_state_space() {
        let e = explore(&ctr::gen::pipeline_workflow(10), 1_000_000).unwrap();
        assert!(!e.truncated);
        // One marking per prefix (plus completion bookkeeping).
        assert!(e.states <= 12, "states = {}", e.states);
    }

    #[test]
    fn concurrent_width_explodes_the_state_space() {
        let w4 = explore(&ctr::gen::parallel_workflow(4), 1_000_000)
            .unwrap()
            .states;
        let w8 = explore(&ctr::gen::parallel_workflow(8), 1_000_000)
            .unwrap()
            .states;
        // Markings of n concurrent tasks = 2^n.
        assert!(w8 > 10 * w4, "w4 = {w4}, w8 = {w8}");
    }

    #[test]
    fn cap_truncates_exploration() {
        let e = explore(&ctr::gen::parallel_workflow(12), 100).unwrap();
        assert!(e.truncated);
    }

    #[test]
    fn check_confirms_structural_property() {
        let goal = seq(vec![g("a"), g("b")]);
        let e = check(&goal, &Constraint::order("a", "b"), 1_000_000).unwrap();
        assert_eq!(e.counterexample, None);
    }

    #[test]
    fn check_finds_counterexample() {
        let goal = conc(vec![g("a"), g("b")]);
        let e = check(&goal, &Constraint::order("a", "b"), 1_000_000).unwrap();
        let ce = e.counterexample.expect("a|b admits b before a");
        assert_eq!(ce, vec![sym("b"), sym("a")]);
    }

    #[test]
    fn check_agrees_with_ctr_verification() {
        use ctr::analysis::verify;
        let goals = [
            conc(vec![g("a"), or(vec![g("b"), g("c")])]),
            seq(vec![g("a"), or(vec![g("b"), g("c")]), g("d")]),
            or(vec![seq(vec![g("a"), g("b")]), seq(vec![g("b"), g("a")])]),
        ];
        let properties = [
            Constraint::klein_order("a", "b"),
            Constraint::klein_exists("a", "d"),
            Constraint::order("a", "b"),
        ];
        for goal in &goals {
            for prop in &properties {
                let mc = check(goal, prop, 1_000_000).unwrap();
                let logical = verify(goal, &[], prop).unwrap().holds();
                assert_eq!(
                    mc.counterexample.is_none(),
                    logical,
                    "goal {goal} property {prop}"
                );
            }
        }
    }

    #[test]
    fn counterexamples_violate_the_property() {
        use ctr::semantics::satisfies;
        let goal = conc(vec![g("a"), g("b"), g("c")]);
        let prop = Constraint::serial(vec![sym("a"), sym("b"), sym("c")]);
        let e = check(&goal, &prop, 1_000_000).unwrap();
        let ce = e
            .counterexample
            .expect("interleavings violate the serial constraint");
        assert!(!satisfies(&ce, &prop));
    }
}
