//! `compile_scratch` — the designer's cold path.
//!
//! Every spec of the seeded set is taken from `.ctr` source through
//! `parse_spec` → lowering (`WorkflowSpec::to_goal`: define expansion,
//! triggers, timers) → the untabled `Apply`/`Excise` compile →
//! `Program::compile`, several passes per repetition. One op is one
//! spec compiled. `parser`, `workflow`, `core.constraints`,
//! `core.apply`, `core.excise` and `engine.program` do all the work;
//! `runtime`, `store` and `serve` none — so a change there must leave
//! this workload alone.
//!
//! The traced run calls the same pipeline stage by stage (`apply` and
//! `excise` instead of `compile`) so each stage gets its own span, and
//! checks that the staged result equals the one-call result.

use super::{self_cpu_s, LatencySampler, Rep, RunConfig, Workload};
use crate::inputs::{self, SpecInput};
use crate::trace::Tracer;
use ctr::analysis::{compile, Compiled};
use ctr::apply::Parallelism;
use ctr::constraints::Constraint;
use ctr::goal::Goal;
use ctr::semantics;
use ctr_engine::scheduler::{Program, Scheduler};
use std::time::Instant;

/// Passes over the spec set per repetition (~0.5 s on the reference
/// box).
const PASSES: usize = 10;
/// Trace-enumeration budget of the semantic oracle; specs whose trace
/// set is larger fall back to the witness check. Kept small on purpose:
/// the enumeration's memory is the referee's, and freed heap stays in
/// the process's resident set, where `peak_rss_mb` would report it as
/// the program's.
const ORACLE_BUDGET: usize = 2_000;

/// What a spec must compile to.
#[derive(Clone, Debug)]
struct Expected {
    consistent: bool,
    size: usize,
    hash: u64,
    /// False if the referee itself rejected the compile's verdict: every
    /// op on this spec then counts as failed.
    oracle_agrees: bool,
}

/// The workload state.
pub struct CompileScratch {
    specs: Vec<SpecInput>,
    expected: Option<Vec<Expected>>,
    passes: usize,
}

/// The oracle's verdict on `G ∧ C`, when `G` is small enough to
/// enumerate: are the compiled goal's executions exactly the executions
/// of `G` that satisfy every constraint?
fn semantic_oracle(goal: &Goal, constraints: &[Constraint], compiled: &Compiled) -> Option<bool> {
    let all = semantics::event_traces(goal, ORACLE_BUDGET).ok()?;
    let allowed: std::collections::BTreeSet<_> = all
        .into_iter()
        .filter(|trace| constraints.iter().all(|c| semantics::satisfies(trace, c)))
        .collect();
    if compiled.is_consistent() == allowed.is_empty() {
        return Some(false);
    }
    match semantics::event_traces(&compiled.goal, ORACLE_BUDGET) {
        Ok(compiled_traces) => Some(compiled_traces == allowed),
        // Verdict checked; the compiled goal's own trace set is too big
        // to enumerate.
        Err(_) => Some(true),
    }
}

/// Fallback for specs too large to enumerate: the tabled compile (a
/// second implementation of the same rules) must produce the identical
/// goal, and if it is consistent the first schedule of the compiled
/// program must run to completion and satisfy every constraint.
fn witness_check(goal: &Goal, constraints: &[Constraint], compiled: &Compiled) -> bool {
    let Ok(mut tabled) = ctr::memo::Analyzer::new(goal, constraints) else {
        return false;
    };
    if tabled.compiled().goal != compiled.goal {
        return false;
    }
    if !compiled.is_consistent() {
        return true;
    }
    let Ok(program) = Program::compile(&compiled.goal) else {
        return false;
    };
    let Some(trace) = Scheduler::new(&program).run_first() else {
        return false;
    };
    let events: Vec<_> = trace.iter().filter_map(|atom| atom.as_event()).collect();
    constraints.iter().all(|c| semantics::satisfies(&events, c))
}

impl CompileScratch {
    fn expected_for(spec: &SpecInput) -> Expected {
        let parsed = ctr_parser::parse_spec(&spec.source).expect("generated specs parse");
        let goal = parsed.to_goal();
        let compiled =
            compile(&goal, &parsed.constraints).expect("generated specs are unique-event");
        let again = compile(&goal, &parsed.constraints).expect("as above");
        let deterministic = compiled.goal == again.goal;
        let oracle_agrees = if let Some(inst) = &spec.sat {
            inst.brute_force_sat() == compiled.is_consistent()
        } else if compiled.has_conditions {
            // Transition conditions are outside the propositional trace
            // semantics (§7: sound, not complete); only determinism is
            // checked.
            true
        } else {
            semantic_oracle(&goal, &parsed.constraints, &compiled)
                .unwrap_or_else(|| witness_check(&goal, &parsed.constraints, &compiled))
        };
        Expected {
            consistent: compiled.is_consistent(),
            size: compiled.goal.size(),
            hash: compiled.goal.structural_hash(),
            oracle_agrees: oracle_agrees && deterministic,
        }
    }

    /// Σ compiled goal size over the spec set.
    pub fn output_nodes(&self) -> Option<u64> {
        self.expected
            .as_ref()
            .map(|exp| exp.iter().map(|e| e.size as u64).sum())
    }

    /// The generated specs.
    pub fn specs(&self) -> &[SpecInput] {
        &self.specs
    }

    /// One spec through the whole pipeline in one call per stage the
    /// designer's tools make. Returns the compiled goal.
    #[inline]
    fn compile_one(source: &str) -> Compiled {
        let spec = ctr_parser::parse_spec(source).expect("generated specs parse");
        let goal = spec.to_goal();
        let compiled = compile(&goal, &spec.constraints).expect("unique-event by construction");
        if compiled.is_consistent() {
            std::hint::black_box(Program::compile(&compiled.goal).expect("knot-free after Excise"));
        }
        compiled
    }

    /// The same pipeline stage by stage, one span per layer.
    fn compile_one_traced(&self, index: usize, op: u32, tracer: &mut Tracer) -> Goal {
        let source = &self.specs[index].source;
        let spec = tracer.span("parser", op, |_| {
            ctr_parser::parse_spec(source).expect("generated specs parse")
        });
        tracer.count("parser.bytes", source.len() as u64);
        let goal = tracer.span("workflow", op, |_| spec.to_goal());
        let disjuncts: usize = tracer.span("core.constraints", op, |_| {
            spec.constraints
                .iter()
                .map(|c| c.normalize().disjunct_count())
                .sum()
        });
        tracer.count("core.constraints.disjuncts", disjuncts as u64);
        tracer.count("core.constraints.count", spec.constraints.len() as u64);
        ctr::unique::check_unique_events(&goal).expect("unique-event by construction");
        let applied = tracer.span("core.apply", op, |_| {
            ctr::apply::apply_with(&spec.constraints, &goal, Parallelism::Auto)
        });
        tracer.count("core.apply.in_nodes", goal.size() as u64);
        tracer.count("core.apply.out_nodes", applied.size() as u64);
        let excised = tracer.span("core.excise", op, |_| {
            ctr::excise::excise_with_diagnostics_par(&applied, Parallelism::Auto)
        });
        tracer.count("core.excise.in_nodes", applied.size() as u64);
        tracer.count("core.excise.out_nodes", excised.goal.size() as u64);
        if !excised.goal.is_nopath() {
            let program = tracer.span("engine.program", op, |_| {
                Program::compile(&excised.goal).expect("knot-free after Excise")
            });
            tracer.count("engine.program.nodes", program.len() as u64);
            tracer.count("engine.program.builds", 1);
        }
        excised.goal
    }
}

impl Workload for CompileScratch {
    fn generate(cfg: &RunConfig) -> CompileScratch {
        let specs = inputs::compile_specs(cfg.seed, cfg.smoke);
        let files: Vec<(String, String)> = specs
            .iter()
            .map(|s| (format!("{}.ctr", s.name), s.source.clone()))
            .collect();
        inputs::save_inputs("compile_scratch", &files).expect("write generated inputs");
        CompileScratch {
            specs,
            expected: None,
            passes: if cfg.smoke { 1 } else { PASSES },
        }
    }

    fn reference(&mut self) {
        self.expected = Some(self.specs.iter().map(Self::expected_for).collect());
    }

    fn repetition(&mut self, tracer: &mut Tracer) -> Rep {
        // Nothing persists between compiles: fresh state is free here.
        let ops = self.passes * self.specs.len();
        let mut sampler = LatencySampler::new(1, ops);
        let mut failed = 0u64;
        let mut output_nodes = 0u64;
        let cpu0 = self_cpu_s();
        let t0 = Instant::now();
        for pass in 0..self.passes {
            for index in 0..self.specs.len() {
                let op = (pass * self.specs.len() + index) as u32;
                let (consistent, size, hash) = if tracer.is_on() {
                    let goal = sampler
                        .time(|| tracer.span("op", op, |t| self.compile_one_traced(index, op, t)));
                    (!goal.is_nopath(), goal.size(), goal.structural_hash())
                } else {
                    let compiled = sampler.time(|| Self::compile_one(&self.specs[index].source));
                    (
                        compiled.is_consistent(),
                        compiled.goal.size(),
                        compiled.goal.structural_hash(),
                    )
                };
                if pass == 0 {
                    output_nodes += size as u64;
                }
                if let Some(expected) = &self.expected {
                    let e = &expected[index];
                    if !(e.oracle_agrees
                        && e.consistent == consistent
                        && e.size == size
                        && e.hash == hash)
                    {
                        failed += 1;
                    }
                }
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = self_cpu_s() - cpu0;
        Rep {
            prepare_s: 0.0,
            wall_s,
            cpu_s,
            ops: ops as u64,
            failed,
            lat_ns: sampler.samples,
            extra: vec![("output_nodes", output_nodes as f64)],
            ..Rep::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            seconds: 0.0,
            smoke: true,
        }
    }

    #[test]
    fn staged_and_one_call_pipelines_agree_and_output_is_deterministic() {
        let mut w = CompileScratch::generate(&smoke_cfg(3));
        w.reference();
        let plain = w.repetition(&mut Tracer::off());
        assert_eq!(plain.failed, 0);
        let mut tracer = Tracer::on(Instant::now());
        let traced = w.repetition(&mut tracer);
        assert_eq!(traced.failed, 0, "staged pipeline must equal compile()");
        assert_eq!(plain.extra, traced.extra);
        assert!(tracer.layer("core.apply").spans > 0);
        assert!(tracer.layer("parser").self_ns > 0);
        // Two compiles in one process give the same goal, and a second
        // workload on the same seed counts the same nodes.
        let mut again = CompileScratch::generate(&smoke_cfg(3));
        again.reference();
        assert_eq!(again.output_nodes(), w.output_nodes());
    }

    #[test]
    fn a_wrong_reference_is_a_failed_op() {
        let mut w = CompileScratch::generate(&smoke_cfg(4));
        w.reference();
        w.expected.as_mut().unwrap()[0].size += 1;
        let rep = w.repetition(&mut Tracer::off());
        assert_eq!(rep.failed, w.passes as u64);
    }
}
