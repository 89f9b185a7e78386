//! Integration tests pinning the paper's named results, end to end across
//! the crates. Each test cites the claim it exercises.

use ctr::analysis::{compile, is_redundant, verify, Verification};
use ctr::apply::ChannelAlloc;
use ctr::constraints::Constraint;
use ctr::gen;
use ctr::goal::{conc, or, seq, Goal};
use ctr::semantics::{event_traces, satisfies};
use ctr::sym;
use ctr_baselines::{PassiveValidator, ProductScheduler};
use ctr_engine::{Program, Scheduler};
use ctr_parser::{parse_constraint, parse_goal};

fn g(name: &str) -> Goal {
    Goal::atom(name)
}

/// Equation (1): the Figure 1 graph, its textual form, and the Cfg
/// translation all denote the same executions.
#[test]
fn equation_1_three_ways() {
    let from_graph = ctr_workflow::Cfg::figure1().to_goal().unwrap();
    let from_text = parse_goal(
        "a * ((cond1 * b * ((d * cond3 * h) + e) * j) \
            # (cond2 * c * ((f * i * cond4) + (g * cond5)))) * k",
    )
    .unwrap();
    let built = seq(vec![
        g("a"),
        conc(vec![
            seq(vec![
                g("cond1"),
                g("b"),
                or(vec![seq(vec![g("d"), g("cond3"), g("h")]), g("e")]),
                g("j"),
            ]),
            seq(vec![
                g("cond2"),
                g("c"),
                or(vec![
                    seq(vec![g("f"), g("i"), g("cond4")]),
                    seq(vec![g("g"), g("cond5")]),
                ]),
            ]),
        ]),
        g("k"),
    ]);
    let t1 = event_traces(&from_graph, 1_000_000).unwrap();
    let t2 = event_traces(&from_text, 1_000_000).unwrap();
    let t3 = event_traces(&built, 1_000_000).unwrap();
    assert_eq!(t1, t2);
    assert_eq!(t2, t3);
}

/// Proposition 3.3: splitting serial constraints preserves semantics on
/// unique-event traces.
#[test]
fn proposition_3_3_splitting() {
    let c = Constraint::serial(vec![sym("p"), sym("q"), sym("r"), sym("s")]);
    let split = ctr::constraints::split_serials(&c);
    let universe = [sym("p"), sym("q"), sym("r"), sym("s"), sym("x")];
    // All unique-event traces of length ≤ 5 via permutation prefixes.
    let mut traces: Vec<Vec<ctr::Symbol>> = vec![vec![]];
    for _ in 0..universe.len() {
        let mut next = Vec::new();
        for t in &traces {
            for &e in &universe {
                if !t.contains(&e) {
                    let mut t2 = t.clone();
                    t2.push(e);
                    next.push(t2);
                }
            }
        }
        traces.extend(next);
    }
    for t in &traces {
        assert_eq!(satisfies(t, &c), satisfies(t, &split), "trace {t:?}");
    }
}

/// Lemma 3.4 / Corollary 3.5: CONSTR is closed under negation, with the
/// exact unfolding ¬(∇e₁ ⊗ ∇e₂) ≡ ¬∇e₁ ∨ ¬∇e₂ ∨ (∇e₂ ⊗ ∇e₁).
#[test]
fn lemma_3_4_negation_closure() {
    let neg = Constraint::not(Constraint::order("e1", "e2"));
    let unfolded = parse_constraint("absent(e1) or absent(e2) or before(e2, e1)").unwrap();
    assert_eq!(neg.normalize(), unfolded.normalize());
}

/// §4: verification reduces to consistency — `Φ` holds on every execution
/// iff `G ∧ C ∧ ¬Φ` is inconsistent. Both directions.
#[test]
fn verification_via_consistency() {
    let goal = conc(vec![g("a"), g("b"), g("c")]);
    let constraints = [Constraint::order("a", "b")];
    let holds = Constraint::klein_order("a", "b");
    let fails = Constraint::klein_order("c", "a");

    assert!(verify(&goal, &constraints, &holds).unwrap().holds());
    let mut augmented = constraints.to_vec();
    augmented.push(Constraint::not(holds));
    assert!(!compile(&goal, &augmented).unwrap().is_consistent());

    assert!(!verify(&goal, &constraints, &fails).unwrap().holds());
    let mut augmented = constraints.to_vec();
    augmented.push(Constraint::not(fails));
    assert!(compile(&goal, &augmented).unwrap().is_consistent());
}

/// Proposition 4.1's reduction: workflow consistency with existence
/// constraints decides 3-SAT (here cross-checked against brute force).
#[test]
fn proposition_4_1_sat_reduction() {
    for seed in 100..115 {
        let inst = gen::random_3sat(seed, 6, 25);
        let (goal, constraints) = gen::sat_to_workflow(&inst);
        assert!(constraints.iter().all(Constraint::is_existence));
        assert_eq!(
            compile(&goal, &constraints).unwrap().is_consistent(),
            inst.brute_force_sat(),
            "seed {seed}"
        );
    }
}

/// Theorem 5.11 (size): one Klein constraint (d = 3) at most triples the
/// goal plus constant sync overhead; N such constraints stay within
/// d^N · |G| plus sync; serial-only constraints (d = 1) stay linear.
#[test]
fn theorem_5_11_size_bounds() {
    let goal = gen::layered_workflow(6, 2);
    let base = goal.size();

    for n in 1..=4usize {
        let constraints = gen::klein_chain(n);
        let compiled = compile(&goal, &constraints).unwrap();
        let bound = 3usize.pow(n as u32) * (base + 8 * n);
        assert!(
            compiled.applied_size <= bound,
            "n={n}: {} > {bound}",
            compiled.applied_size
        );
    }

    // d = 1: linear in |G| regardless of N.
    let pipeline = gen::pipeline_workflow(64);
    let orders = gen::order_chain(16);
    let compiled = compile(&pipeline, &orders).unwrap();
    assert!(
        compiled.applied_size <= pipeline.size() + 4 * 16 + 8,
        "serial-only compiled size {} vs |G| {}",
        compiled.applied_size,
        pipeline.size()
    );
}

/// Theorem 5.9's counterexamples are *most general*: every execution of
/// the returned goal violates the property, and every violating execution
/// of the workflow is an execution of the counterexample.
#[test]
fn most_general_counterexamples() {
    let goal = seq(vec![
        g("s"),
        conc(vec![g("a"), g("b"), or(vec![g("c"), g("d")])]),
        g("t"),
    ]);
    let property = Constraint::klein_order("a", "b");
    let Verification::CounterExample(ce) = verify(&goal, &[], &property).unwrap() else {
        panic!("a|b is unordered, the property must fail");
    };
    let ce_traces = event_traces(&ce, 1_000_000).unwrap();
    let violating: std::collections::BTreeSet<_> = event_traces(&goal, 1_000_000)
        .unwrap()
        .into_iter()
        .filter(|t| !satisfies(t, &property))
        .collect();
    assert_eq!(ce_traces, violating);
}

/// Example 5.7, the full pipeline across crates: parse the goal, compile
/// the constraints, excise the knot, schedule the survivor.
#[test]
fn example_5_7_end_to_end() {
    let goal = parse_goal("gamma * (eta + (alpha # beta # eta))").unwrap();
    let constraints = vec![
        parse_constraint("causes(alpha, beta)").unwrap(),
        parse_constraint("causes(beta, eta)").unwrap(),
        parse_constraint("absent(alpha) or before(eta, alpha)").unwrap(),
    ];
    let compiled = compile(&goal, &constraints).unwrap();
    assert_eq!(compiled.goal, parse_goal("gamma * eta").unwrap());
    assert!(!compiled.knots.is_empty(), "the knot is reported as G_fail");

    let program = Program::compile(&compiled.goal).unwrap();
    let trace = Scheduler::new(&program).run_first().unwrap();
    let names: Vec<_> = trace.iter().filter_map(ctr::term::Atom::as_event).collect();
    assert_eq!(names, vec![sym("gamma"), sym("eta")]);
}

/// Theorem 5.10 via the spec layer, plus baseline agreement on the
/// compiled schedules.
#[test]
fn redundancy_and_baseline_agreement() {
    // Unordered concurrent events, so only the constraints impose order.
    let goal = conc(vec![g("a"), g("b"), g("c"), g("d")]);
    let constraints = vec![
        Constraint::order("a", "b"),
        Constraint::order("b", "c"),
        // Implied by the two above (transitivity).
        Constraint::order("a", "c"),
    ];
    assert!(is_redundant(&goal, &constraints, 2).unwrap());
    assert!(!is_redundant(&goal, &constraints, 0).unwrap());

    let compiled = compile(&goal, &constraints).unwrap();
    let program = Program::compile(&compiled.goal).unwrap();
    let validator = PassiveValidator::new(&constraints);
    let product = ProductScheduler::new(&constraints);
    for t in Scheduler::new(&program).enumerate_traces(200) {
        assert!(validator.validate(&t));
        assert!(product.validate(&t));
    }
}

/// §6: the model checker and the logical verifier agree; the marking
/// graph explodes with concurrency while Apply stays linear.
#[test]
fn model_checking_comparison() {
    let goal = gen::layered_workflow(3, 3);
    let property = Constraint::klein_order("l0_0", "l2_2");
    let mc = ctr_baselines::check(&goal, &property, 10_000_000).unwrap();
    let logical = verify(&goal, &[], &property).unwrap();
    assert_eq!(mc.counterexample.is_none(), logical.holds());

    // State explosion vs linear compilation.
    let wide = gen::parallel_workflow(10);
    let mc_states = ctr_baselines::explore(&wide, 10_000_000).unwrap().states;
    let compiled = compile(&wide, &[Constraint::must("t0")]).unwrap();
    assert!(
        mc_states >= 1 << 10,
        "marking graph of 10 parallel tasks: {mc_states}"
    );
    assert!(compiled.applied_size < 2 * wide.size());
}

/// §7 modular compilation: constraints whose events stay inside one
/// sub-workflow keep the exponent at M. Plain `compile` of the flat spec
/// scopes each to its sub-workflow, so it meets the modular bound that the
/// unscoped fold (every constraint over the whole goal) misses by far.
#[test]
fn modular_compilation_exponent() {
    use ctr_bench::ablation::apply_unscoped;
    use ctr_workflow::WorkflowSpec;

    let k = 5usize;
    let mut spec = WorkflowSpec::new(
        "modular",
        seq((0..k).map(|i| g(&format!("sub{i}"))).collect()),
    );
    for i in 0..k {
        spec.subworkflows
            .define(
                format!("sub{i}").as_str(),
                conc(vec![
                    or(vec![g(&format!("a{i}")), g(&format!("x{i}"))]),
                    g(&format!("b{i}")),
                ]),
            )
            .unwrap();
    }
    spec.constraints = (0..k)
        .map(|i| Constraint::klein_order(format!("a{i}").as_str(), format!("b{i}").as_str()))
        .collect();
    let compiled = spec.compile().unwrap();
    let goal = spec.to_goal();
    let unscoped = apply_unscoped(&spec.constraints, &goal, &mut ChannelAlloc::new());

    // M = 1 per sub-workflow vs N = 5 global: at least an order of
    // magnitude apart at d = 3, and each sub-workflow at most tripled.
    assert!(compiled.applied_size * 10 < unscoped.size());
    assert!(compiled.applied_size <= 3 * goal.size() + 8 * k);
    assert!(compiled.is_consistent() && !unscoped.is_nopath());
}
