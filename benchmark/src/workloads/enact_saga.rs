//! `enact_saga` — the fault-tolerant dispatcher.
//!
//! `Enactor::run_report` drives a 256-step pipeline and the
//! `payment_saga` example to completion, dispatching every activity to
//! a worker. Two runs in three are clean; the third carries a seeded
//! plan of fail-once faults recovered under `RetryPolicy::attempts(3)`.
//! One op is one step committed.
//!
//! The dispatcher spawns an OS thread per attempt, which makes it two
//! orders of magnitude slower per step than the scheduler it drives —
//! this is the only workload that can show the worker-pool decision.
//!
//! Check: every run must succeed, and its committed trace must be
//! accepted, event by event, by a fresh `Scheduler` over the same
//! program and leave it complete; a faulted run must record exactly one
//! extra attempt per injected fault.

use super::{self_cpu_s, Rep, RunConfig, Workload};
use crate::inputs;
use crate::rng::Rng;
use crate::trace::Tracer;
use ctr::gen;
use ctr::symbol::Symbol;
use ctr_engine::scheduler::{Program, Scheduler};
use ctr_runtime::{ChoicePolicy, Enactor, FaultPlan, RetryPolicy};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Steps of the long pipeline.
pub const PIPELINE_STEPS: usize = 256;
/// Runs per repetition at full size: `(pipeline runs, saga runs)`.
const RUNS: (usize, usize) = (81, 720);

/// One scheduled enactment.
#[derive(Clone, Debug)]
struct Run {
    /// Index into `programs`.
    program: usize,
    /// Events that fail once (empty = a clean run).
    faults: Vec<Symbol>,
    /// Seed of the branching policy and the fault plan.
    seed: u64,
}

/// The workload state.
pub struct EnactSaga {
    programs: Vec<Program>,
    compiled_nodes: u64,
    runs: Vec<Run>,
}

impl Workload for EnactSaga {
    fn generate(cfg: &RunConfig) -> EnactSaga {
        let steps = if cfg.smoke { 32 } else { PIPELINE_STEPS };
        let sources = [
            (
                "pipeline".to_owned(),
                inputs::render_spec("pipeline", &gen::pipeline_workflow(steps), &[]),
            ),
            (
                "payment_saga".to_owned(),
                inputs::example_source("payment_saga").to_owned(),
            ),
        ];
        let mut compiled_nodes = 0u64;
        let programs: Vec<Program> = sources
            .iter()
            .map(|(_, source)| {
                let compiled = ctr_parser::parse_spec(source)
                    .expect("benchmark specs parse")
                    .compile()
                    .expect("benchmark specs compile");
                compiled_nodes += compiled.goal.size() as u64;
                Program::compile(&compiled.goal).expect("consistent specs schedule")
            })
            .collect();
        let alphabets: Vec<Vec<Symbol>> = programs
            .iter()
            .map(|program| {
                (0..program.len())
                    .filter_map(|node| program.event(node).and_then(|atom| atom.as_event()))
                    .collect()
            })
            .collect();
        let (pipelines, sagas) = if cfg.smoke { (2, 6) } else { RUNS };
        let mut rng = Rng::new(cfg.seed).fork("enact");
        let mut runs = Vec::new();
        for (program, count) in [(0usize, pipelines), (1, sagas)] {
            for k in 0..count {
                // Every third run is faulted: each activity fails once
                // with probability 1/8 (at least one does).
                let mut faults = Vec::new();
                if k % 3 == 2 {
                    for &event in &alphabets[program] {
                        if rng.below(8) == 0 {
                            faults.push(event);
                        }
                    }
                    if faults.is_empty() {
                        faults.push(alphabets[program][rng.below(alphabets[program].len())]);
                    }
                }
                runs.push(Run {
                    program,
                    faults,
                    seed: rng.next_u64(),
                });
            }
        }
        rng.shuffle(&mut runs);
        let mut files = sources
            .iter()
            .map(|(name, source)| (format!("{name}.ctr"), source.clone()))
            .collect::<Vec<_>>();
        let mut listing = String::new();
        for run in &runs {
            let faults: Vec<&str> = run.faults.iter().map(|e| e.as_str()).collect();
            let _ = writeln!(
                listing,
                "enact {} seed={} fail-once=[{}]",
                sources[run.program].0,
                run.seed,
                faults.join(",")
            );
        }
        files.push(("runs.txt".to_owned(), listing));
        inputs::save_inputs("enact_saga", &files).expect("write generated inputs");
        EnactSaga {
            programs,
            compiled_nodes,
            runs,
        }
    }

    /// The referee is a fresh `Scheduler` per run, consulted in
    /// `repetition`; nothing to precompute.
    fn reference(&mut self) {}

    fn repetition(&mut self, tracer: &mut Tracer) -> Rep {
        let mut lat_ns: Vec<u32> = Vec::new();
        let mut ops = 0u64;
        let mut failed = 0u64;
        let mut checks: Vec<(usize, Vec<Symbol>)> = Vec::with_capacity(self.runs.len());
        let cpu0 = self_cpu_s();
        let t0 = Instant::now();
        for (i, run) in self.runs.iter().enumerate() {
            // Fresh state: a new enactor (and its worker threads) per run.
            let mut plan = FaultPlan::new(run.seed);
            for &event in &run.faults {
                plan = plan.fail(event, 1);
            }
            let enactor = Enactor::new()
                .with_policy(ChoicePolicy::Random(run.seed))
                .with_default_retry(RetryPolicy::attempts(3))
                .with_faults(plan)
                .with_seed(run.seed);
            let program = &self.programs[run.program];
            let report = tracer.span("op", i as u32, |t| {
                t.span("runtime.enact", i as u32, |_| enactor.run_report(program))
            });
            let steps = report.completed.len() as u64;
            ops += steps.max(1);
            tracer.count("runtime.enact.steps", steps);
            tracer.count("runtime.enact.attempts", report.attempts.len() as u64);
            tracer.count("runtime.enact.retries", u64::from(report.total_retries()));
            // A step's latency is dispatch-to-commit over all its attempts.
            let mut per_step: BTreeMap<Symbol, u128> = BTreeMap::new();
            for attempt in &report.attempts {
                *per_step.entry(attempt.event).or_insert(0) += attempt.latency.as_nanos();
            }
            lat_ns.extend(
                per_step
                    .values()
                    .map(|ns| (*ns).min(u128::from(u32::MAX)) as u32),
            );
            // A fault on a branch the run did not take never fires.
            let injected = run
                .faults
                .iter()
                .filter(|e| report.completed.contains(e))
                .count();
            let expected_attempts = report.completed.len() + injected;
            if !report.is_success() || report.attempts.len() != expected_attempts {
                failed += steps.max(1);
            }
            checks.push((run.program, report.completed));
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = self_cpu_s() - cpu0;
        // Untimed: a fresh scheduler must accept every committed trace.
        for (program, committed) in checks {
            let mut referee = Scheduler::new(&self.programs[program]);
            let accepted = committed.iter().all(|&event| referee.fire_event(event));
            if !(accepted && referee.is_complete()) {
                failed += committed.len().max(1) as u64;
            }
        }
        Rep {
            prepare_s: 0.0,
            wall_s,
            cpu_s,
            ops,
            failed: failed.min(ops),
            lat_ns,
            extra: vec![("output_nodes", self.compiled_nodes as f64)],
            ..Rep::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_and_faulted_runs_commit_traces_a_fresh_scheduler_accepts() {
        let cfg = RunConfig {
            seed: 2,
            seconds: 0.0,
            smoke: true,
        };
        let mut w = EnactSaga::generate(&cfg);
        assert!(w.runs.iter().any(|r| !r.faults.is_empty()));
        assert!(w.runs.iter().any(|r| r.faults.is_empty()));
        let mut tracer = Tracer::on(Instant::now());
        let rep = w.repetition(&mut tracer);
        assert_eq!(rep.failed, 0);
        assert!(rep.ops >= 2 * 32);
        assert!(tracer.counted("runtime.enact.retries") > 0);
        assert_eq!(
            tracer.counted("runtime.enact.attempts"),
            tracer.counted("runtime.enact.steps") + tracer.counted("runtime.enact.retries")
        );
    }
}
