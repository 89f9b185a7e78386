//! Tabled analysis ≡ untabled analysis, pinned over the `gen` corpus.
//!
//! The memo tables in `ctr::memo` only change *how often* the structural
//! recursion runs — every tabled operation is a pure function of its key,
//! so the compiled goals, knot reports, verdicts, and counterexamples must
//! be **bit-identical** (structural `Goal` equality) to the one-shot
//! functions in `ctr::analysis`. These properties are the contract the
//! `verify_incr` benchmarks rely on when they compare wall-clock only.

use ctr::analysis;
use ctr::constraints::Constraint;
use ctr::gen::{random_constraints, random_goal, GoalShape};
use ctr::memo::Analyzer;
use proptest::prelude::*;

fn shape() -> GoalShape {
    GoalShape {
        depth: 3,
        width: 3,
        or_bias: 0.35,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A session's compile reproduces the untabled compilation exactly:
    /// same compiled goal, same knot reports in the same order, same sizes
    /// and flags. Compiling again in the same session — the cached compile
    /// dropped by a no-op edit, the tables warm — must also stay identical.
    #[test]
    fn tabled_compile_is_bit_identical(seed in 0u64..5000, cseed in 0u64..5000, n in 1usize..4) {
        let (goal, events) = random_goal(seed, shape(), "t");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, n);

        let reference = analysis::compile(&goal, &constraints).expect("unique-event by construction");
        let mut session = Analyzer::new(&goal, &constraints).expect("unique-event by construction");
        for round in 0..2 {
            if round > 0 {
                session.replace_constraint(0, constraints[0].clone());
            }
            let tabled = session.compiled();
            prop_assert_eq!(&tabled.goal, &reference.goal, "round {} goal {}", round, goal);
            prop_assert_eq!(&tabled.knots, &reference.knots, "round {}", round);
            prop_assert_eq!(tabled.applied_size, reference.applied_size, "round {}", round);
            prop_assert_eq!(
                tabled.guaranteed_knot_free,
                reference.guaranteed_knot_free,
                "round {}", round
            );
            prop_assert_eq!(tabled.has_conditions, reference.has_conditions, "round {}", round);
        }
        let stats = session.stats();
        prop_assert!(stats.hits > 0, "the second compile replays from the tables");
    }

    /// `Analyzer::verify` agrees with `analysis::verify` on every
    /// property, including the most-general counterexample goal — across
    /// a sequence of properties answered by one warm session.
    #[test]
    fn analyzer_verify_matches_one_shot(seed in 0u64..5000, cseed in 0u64..5000, n in 1usize..4) {
        let (goal, events) = random_goal(seed, shape(), "av");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, n);
        let properties = random_constraints(cseed.wrapping_add(1), &events, 3);

        let mut analyzer = Analyzer::new(&goal, &constraints).expect("unique-event");
        for property in &properties {
            prop_assert_eq!(
                analyzer.verify(property),
                analysis::verify(&goal, &constraints, property).unwrap(),
                "property {} on {}", property, goal
            );
        }
        prop_assert_eq!(
            analyzer.is_consistent(),
            analysis::is_consistent(&goal, &constraints).unwrap()
        );
    }

    /// Incremental re-verification after editing one constraint matches a
    /// from-scratch recompile of the edited set — for add, replace, and
    /// remove edits.
    #[test]
    fn analyzer_incremental_edit_matches_recompile(
        seed in 0u64..5000, cseed in 0u64..5000, n in 2usize..4
    ) {
        let (goal, events) = random_goal(seed, shape(), "ie");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, n);
        let edit = random_constraints(cseed.wrapping_add(7), &events, 1).pop().expect("one");
        let property = random_constraints(cseed.wrapping_add(13), &events, 1).pop().expect("one");

        let mut analyzer = Analyzer::new(&goal, &constraints).expect("unique-event");
        // Warm the tables on the original set.
        analyzer.compiled();

        // Replace the last constraint.
        let mut edited = constraints.clone();
        edited[n - 1] = edit.clone();
        analyzer.replace_constraint(n - 1, edit.clone());
        prop_assert_eq!(
            &analyzer.compiled().goal,
            &analysis::compile(&goal, &edited).unwrap().goal,
            "after replace on {}", goal
        );
        prop_assert_eq!(
            analyzer.verify(&property),
            analysis::verify(&goal, &edited, &property).unwrap(),
            "verify after replace"
        );

        // Remove it.
        analyzer.remove_constraint(n - 1);
        let removed = &edited[..n - 1];
        prop_assert_eq!(
            &analyzer.compiled().goal,
            &analysis::compile(&goal, removed).unwrap().goal,
            "after remove on {}", goal
        );

        // Add it back.
        analyzer.add_constraint(edit);
        prop_assert_eq!(
            &analyzer.compiled().goal,
            &analysis::compile(&goal, &edited).unwrap().goal,
            "after add on {}", goal
        );
    }

    /// The session-level reports agree with the one-shot functions, and
    /// the clone-free `minimize_constraints` (both paths) preserves the
    /// original elimination order and result.
    #[test]
    fn analyzer_reports_match_one_shot(seed in 0u64..5000, cseed in 0u64..5000, n in 1usize..4) {
        let (goal, events) = random_goal(seed, shape(), "rp");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, n);

        let mut analyzer = Analyzer::new(&goal, &constraints).expect("unique-event");
        prop_assert_eq!(
            analyzer.activity_report(),
            analysis::activity_report(&goal, &constraints).unwrap()
        );
        prop_assert_eq!(
            analyzer.minimize_constraints(),
            analysis::minimize_constraints(&goal, &constraints).unwrap(),
            "minimize on {}", goal
        );
        let a = events[0];
        let b = events[1];
        prop_assert_eq!(
            analyzer.ordering(a, b),
            analysis::ordering(&goal, &constraints, a, b).unwrap(),
            "ordering({}, {}) on {}", a, b, goal
        );
    }

    /// `is_redundant` (rebuilt to construct its probe set in one pass)
    /// still decides redundancy exactly: dropping a redundant constraint
    /// never changes the compiled goal's consistency against its negation.
    #[test]
    fn is_redundant_agrees_with_verify(seed in 0u64..5000, cseed in 0u64..5000, n in 1usize..4) {
        let (goal, events) = random_goal(seed, shape(), "ir");
        prop_assume!(events.len() >= 2);
        let constraints = random_constraints(cseed, &events, n);
        for index in 0..constraints.len() {
            let mut rest = constraints.clone();
            let phi = rest.remove(index);
            prop_assert_eq!(
                analysis::is_redundant(&goal, &constraints, index).unwrap(),
                analysis::verify(&goal, &rest, &phi).unwrap().holds(),
                "index {} of {:?}", index, constraints
            );
        }
    }
}

/// Deterministic regression: a worked spec where redundancy is known.
#[test]
fn minimize_drops_the_implied_constraint() {
    use ctr::goal::seq;
    let goal = seq(vec![
        ctr::goal::Goal::atom("a"),
        ctr::goal::Goal::atom("b"),
        ctr::goal::Goal::atom("c"),
    ]);
    // before(a, c) is implied by the sequential graph: redundant.
    let constraints = vec![Constraint::order("a", "c"), Constraint::must("b")];
    assert_eq!(
        analysis::minimize_constraints(&goal, &constraints).unwrap(),
        Vec::<usize>::new(),
        "both constraints are implied by the chain"
    );
    let mut analyzer = Analyzer::new(&goal, &constraints).unwrap();
    assert_eq!(analyzer.minimize_constraints(), Vec::<usize>::new());
}
