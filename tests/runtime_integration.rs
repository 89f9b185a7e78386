//! Cross-crate integration at the operational layer: specifications flow
//! from text through deployment, instance management, enactment, and
//! simulation, with the passive baselines auditing every produced trace.

use ctr::constraints::Constraint;
use ctr::semantics::satisfies;
use ctr::sym;
use ctr_baselines::{PassiveValidator, ProductScheduler};
use ctr_engine::scheduler::Program;
use ctr_runtime::{simulate, ChoicePolicy, Enactor, Runtime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SPEC: &str = r"
    workflow claims {
        graph file * (triage # verify_policy) * (approve_claim + deny) * notify;
        constraint before(triage, verify_policy);
        constraint klein_order(verify_policy, approve_claim);
    }
";

fn constraints() -> Vec<Constraint> {
    vec![
        Constraint::order("triage", "verify_policy"),
        Constraint::klein_order("verify_policy", "approve_claim"),
    ]
}

/// Drive instances through the runtime and audit every journal with the
/// reimplemented related-work validators.
#[test]
fn runtime_journals_satisfy_constraints_per_baselines() {
    let rt = Runtime::new();
    rt.deploy_source(SPEC).unwrap();
    let validator = PassiveValidator::new(&constraints());
    let product = ProductScheduler::new(&constraints());

    // Drive a handful of instances with different decision patterns by
    // always firing the k-th eligible event.
    for k in 0..4usize {
        let id = rt.start("claims").unwrap();
        while !rt.is_complete(id).unwrap() {
            let eligible = rt.eligible(id).unwrap();
            if eligible.is_empty() {
                rt.try_complete(id).unwrap();
                continue;
            }
            let pick = eligible[k % eligible.len()].clone();
            rt.fire(id, &pick).unwrap();
        }
        let journal: Vec<ctr::Symbol> = rt.journal(id).unwrap().iter().map(|s| sym(s)).collect();
        assert!(validator.validate(&journal), "instance {k}: {journal:?}");
        assert!(product.validate(&journal), "instance {k}: {journal:?}");
        for c in constraints() {
            assert!(satisfies(&journal, &c));
        }
    }
}

/// Enact the same compiled workflow with real handlers under the random
/// policy; every run's trace satisfies the constraints and runs each
/// executed activity's handler exactly once.
#[test]
fn enactment_respects_compiled_constraints() {
    let spec = ctr_parser::parse_spec(SPEC).unwrap();
    let compiled = spec.compile().unwrap();
    let program = Program::compile(&compiled.goal).unwrap();

    for seed in 0..12u64 {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut enactor = Enactor::new().with_policy(ChoicePolicy::Random(seed));
        for event in [
            "file",
            "triage",
            "verify_policy",
            "approve_claim",
            "deny",
            "notify",
        ] {
            let c = Arc::clone(&counter);
            enactor.register(
                event,
                Box::new(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
            );
        }
        let trace = enactor.run(&program).unwrap();
        let names: Vec<ctr::Symbol> = trace.iter().filter_map(ctr::term::Atom::as_event).collect();
        assert_eq!(
            counter.load(Ordering::SeqCst),
            names.len(),
            "one handler call per event"
        );
        for c in constraints() {
            assert!(satisfies(&names, &c), "seed {seed}: {names:?}");
        }
    }
}

/// Every execution the compiled goal allows can be fired by name. Here
/// `a * send(ξ) * receive(ξ) * e + a * f` allows `a → f` (`ctr
/// enumerate` lists it, the enactor commits it), but `fire_named`
/// commits `a` to the first `∨`-alternative carrying it, which has no `f`.
#[test]
#[ignore = "ROADMAP item 7: by-name firing commits to the first ∨-alternative carrying the event"]
fn by_name_firing_admits_every_allowed_execution() {
    let rt = Runtime::new();
    rt.deploy_source(
        "workflow amb { graph a * (e + f); constraint (exists(e) and before(a, e)) or exists(f); }",
    )
    .unwrap();
    // `ctr enact --seed 0`'s policy.
    let enactor = Enactor::new().with_policy(ChoicePolicy::Random(0));
    let enacted = rt.enact("amb", &enactor).unwrap();
    assert_eq!(enacted.completed, vec![sym("a"), sym("f")]);
    let id = rt.start("amb").unwrap();
    rt.fire(id, "a").unwrap();
    assert_eq!(rt.fire(id, "f"), Ok(ctr_runtime::InstanceStatus::Completed));
}

/// Simulation statistics over the same program reflect the compiled
/// constraint structure.
#[test]
fn simulation_reflects_constraint_structure() {
    let spec = ctr_parser::parse_spec(SPEC).unwrap();
    let compiled = spec.compile().unwrap();
    let program = Program::compile(&compiled.goal).unwrap();
    let sim = simulate(&program, 400, 99);
    assert_eq!(sim.completed, 400);
    // The mandatory spine runs every time.
    for e in ["file", "triage", "verify_policy", "notify"] {
        assert_eq!(sim.frequency(sym(e)), 1.0, "{e}");
    }
    // Exactly one decision per run.
    let approve = sim.frequency(sym("approve_claim"));
    let deny = sim.frequency(sym("deny"));
    assert!((approve + deny - 1.0).abs() < f64::EPSILON);
    assert!(approve > 0.0 && deny > 0.0);
}

/// The cursor regression gate: per-fire work must not grow with
/// journal length. 10k incremental fires replay nothing; restore, the
/// one recovery path, replays each event exactly once.
#[test]
fn per_fire_work_is_flat_in_journal_length() {
    let n = 10_000usize;
    let rt = Runtime::new();
    rt.deploy_compiled("pipe", ctr::gen::pipeline_workflow(n))
        .unwrap();
    let id = rt.start("pipe").unwrap();
    for i in 0..n {
        rt.fire(id, &format!("t{i}")).unwrap();
    }
    assert!(rt.is_complete(id).unwrap());
    assert_eq!(
        rt.replayed_steps(),
        0,
        "incremental fires must advance the cursor without replaying the journal"
    );

    // Restoring from a snapshot replays each journal entry exactly once.
    let restored = Runtime::restore(&rt.snapshot()).unwrap();
    assert_eq!(restored.replayed_steps(), n as u64);
    assert!(restored.is_complete(id).unwrap());
    assert_eq!(restored.journal(id).unwrap(), rt.journal(id).unwrap());
}

mod cursor_oracle {
    use super::*;
    use proptest::prelude::*;

    fn shape() -> ctr::gen::GoalShape {
        ctr::gen::GoalShape {
            depth: 4,
            width: 3,
            or_bias: 0.35,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Interleaves fire / snapshot+restore over random workflows from
        /// the `gen` corpus, asserting at every step that the instance's
        /// eligibility set, status and history equal the
        /// replay-from-scratch oracle's (a fresh runtime rebuilt from the
        /// snapshot text): the cursor that was advanced in place is
        /// exactly what replaying its own history produces.
        #[test]
        fn cached_cursor_matches_replay_oracle(seed in 0u64..10_000, decisions in 0u64..u64::MAX) {
            let (goal, events) = ctr::gen::random_goal(seed, shape(), "w");
            prop_assume!(!events.is_empty());
            let mut rt = Runtime::new();
            prop_assume!(rt.deploy_compiled("w", goal).is_ok());
            let id = rt.start("w").unwrap();

            let mut rng = decisions;
            for step in 0..64usize {
                let oracle = Runtime::restore(&rt.snapshot()).unwrap();
                prop_assert_eq!(
                    rt.eligible(id).unwrap(),
                    oracle.eligible(id).unwrap(),
                    "step {}: cursor diverged from replay", step
                );
                prop_assert_eq!(rt.status(id).unwrap(), oracle.status(id).unwrap());
                prop_assert_eq!(rt.journal(id).unwrap(), oracle.journal(id).unwrap());
                prop_assert_eq!(rt.snapshot(), oracle.snapshot());

                let eligible = rt.eligible(id).unwrap();
                if eligible.is_empty() {
                    rt.try_complete(id).unwrap();
                    let oracle = Runtime::restore(&rt.snapshot()).unwrap();
                    prop_assert_eq!(rt.status(id).unwrap(), oracle.status(id).unwrap());
                    break;
                }
                // Go on from the replayed cursor every other step.
                if step % 2 == 1 {
                    rt = oracle;
                }
                let pick = eligible[(rng % eligible.len() as u64) as usize].clone();
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                rt.fire(id, &pick).unwrap();
            }
        }

        /// Batched firing is bit-identical to individual firing: a
        /// `fire_batch` of random (sometimes ineligible) events produces
        /// the same per-event outcomes, the same journal, and the same
        /// snapshot **bytes** as firing the events one by one — across
        /// restore interleavings.
        #[test]
        fn fire_batch_is_bit_identical_to_individual_fires(
            seed in 0u64..10_000,
            decisions in 0u64..u64::MAX,
        ) {
            use ctr_runtime::FireOutcome;
            let (goal, events) = ctr::gen::random_goal(seed, shape(), "b");
            prop_assume!(!events.is_empty());
            let mut batched = Runtime::new();
            prop_assume!(batched.deploy_compiled("w", goal.clone()).is_ok());
            let single = Runtime::new();
            single.deploy_compiled("w", goal).unwrap();
            let id = batched.start("w").unwrap();
            single.start("w").unwrap();

            let mut rng = decisions;
            let mut next = move || {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                rng
            };
            for round in 0..16usize {
                // Build a batch of 1–4 events: mostly eligible picks, with
                // a chance of an arbitrary (possibly ineligible) event so
                // rejection and skip paths are exercised.
                let size = (next() % 4 + 1) as usize;
                let mut batch: Vec<String> = Vec::new();
                for _ in 0..size {
                    let eligible = batched.eligible(id).unwrap();
                    let roll = next();
                    if eligible.is_empty() || roll % 5 == 0 {
                        batch.push(events[(roll % events.len() as u64) as usize].as_str().to_owned());
                    } else {
                        batch.push(eligible[(roll % eligible.len() as u64) as usize].clone());
                    }
                }
                // Exercise the recovery path between batches.
                if round % 2 == 1 {
                    batched = Runtime::restore(&batched.snapshot()).unwrap();
                }

                let outcomes = batched.fire_batch(id, &batch).unwrap();
                prop_assert_eq!(outcomes.len(), batch.len());
                // Mirror with individual fires, asserting per-event
                // outcome equivalence and stop-at-first-failure.
                let mut failed = false;
                for (event, outcome) in batch.iter().zip(&outcomes) {
                    if failed {
                        prop_assert_eq!(outcome, &FireOutcome::Skipped);
                        continue;
                    }
                    match single.fire(id, event) {
                        Ok(status) => prop_assert_eq!(outcome, &FireOutcome::Fired(status)),
                        Err(e) => {
                            prop_assert_eq!(outcome, &FireOutcome::Rejected(e));
                            failed = true;
                        }
                    }
                }
                prop_assert_eq!(batched.journal(id).unwrap(), single.journal(id).unwrap());
                prop_assert_eq!(
                    batched.snapshot(), single.snapshot(),
                    "snapshot bytes diverged after round {}", round
                );
                if batched.is_complete(id).unwrap() {
                    break;
                }
            }
        }
    }
}

/// Snapshot mid-enactment state consistency: runtime journals written by
/// a driver thread restore correctly at any point.
#[test]
fn concurrent_drive_and_snapshot() {
    let rt = ctr_runtime::Runtime::new();
    rt.deploy_source(SPEC).unwrap();
    let ids: Vec<_> = (0..6).map(|_| rt.start("claims").unwrap()).collect();
    let drivers: Vec<_> = ids
        .iter()
        .map(|&id| {
            let rt = rt.clone();
            std::thread::spawn(move || {
                while rt.status(id).unwrap() == ctr_runtime::InstanceStatus::Running {
                    let eligible = rt.eligible(id).unwrap();
                    match eligible.first() {
                        Some(e) => {
                            let _ = rt.fire(id, e);
                        }
                        None => {
                            let _ = rt.try_complete(id);
                        }
                    }
                }
            })
        })
        .collect();
    // Interleave snapshots with the drivers.
    for _ in 0..20 {
        let snap = rt.snapshot();
        Runtime::restore(&snap).expect("mid-flight snapshot restores");
    }
    for d in drivers {
        d.join().unwrap();
    }
    let final_rt = Runtime::restore(&rt.snapshot()).unwrap();
    for id in ids {
        assert!(final_rt.is_complete(id).unwrap());
    }
}
