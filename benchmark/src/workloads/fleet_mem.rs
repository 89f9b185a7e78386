//! `fleet_mem` — the embedder's path.
//!
//! An in-process `SharedRuntime` without a store holds a fleet of
//! resident instances (70 % `layered16x2` with its stage orders, 20 %
//! `order_fulfilment`, 10 % a spec with `after`/`deadline` timers). Two
//! driver threads own disjoint instance sets and issue every
//! instance's ops — `start`, every scripted `fire`, an `eligible` probe
//! every 8 fires, one deliberately ineligible `fire` that must come
//! back as the typed refusal, `try_complete` — interleaved in seeded
//! random instance order, so the working set is the whole fleet rather
//! than one hot instance. One thread also moves the logical clock
//! (`advance`) once per 1024 of its ops. One op is one call returned.
//!
//! `engine.scheduler` and `runtime` do all the work, `store` and
//! `serve` none. Reads and refusals sit beside writes, so a fire-path
//! gain that taxes them shows here.
//!
//! Timer instances and `advance` all live on the first thread: the
//! clock is fleet-wide, and a tick's position in a journal must not
//! depend on how two threads race.

use super::fleet::{
    digest_names, layered_orders_source, PlanOp, PlanStyle, SpecPlan, ADVANCE_STEP_MS, TIMED_SOURCE,
};
use super::{self_cpu_s, LatencySampler, Rep, RunConfig, Workload};
use crate::host;
use crate::inputs;
use crate::rng::Rng;
use crate::trace::Tracer;
use ctr_runtime::{InstanceStatus, Runtime, RuntimeError, SharedRuntime};
use std::fmt::Write as _;
use std::sync::Barrier;
use std::time::Instant;

/// Resident instances at full size.
const FLEET: usize = 16_384;
/// The first thread advances the clock once per this many of its ops.
const ADVANCE_EVERY: usize = 1024;
/// Walk variants per spec.
const VARIANTS: usize = 32;
/// One op in this many is individually timed.
const SAMPLE_EVERY: u32 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Start,
    Fire,
    Eligible,
    Refuse,
    TryComplete,
    Advance,
}

/// One scripted call. `arg` is the event index for fires and refusals.
#[derive(Clone, Copy, Debug)]
struct Op {
    inst: u32,
    kind: Kind,
    arg: u16,
}

/// Result digests every op is compared on.
const RUNNING: u64 = 1;
const COMPLETED: u64 = 2;
const REFUSED: u64 = 3;
const WRONG: u64 = u64::MAX;

fn digest_status(result: Result<InstanceStatus, RuntimeError>) -> u64 {
    match result {
        Ok(InstanceStatus::Running) => RUNNING,
        Ok(InstanceStatus::Completed) => COMPLETED,
        Err(_) => WRONG,
    }
}

/// The calls both the fleet under test and the oracle answer.
trait FleetApi {
    fn start(&mut self, workflow: &str) -> Result<u64, RuntimeError>;
    fn fire(&mut self, id: u64, event: &str) -> Result<InstanceStatus, RuntimeError>;
    fn eligible(&mut self, id: u64) -> Result<Vec<String>, RuntimeError>;
    fn try_complete(&mut self, id: u64) -> Result<InstanceStatus, RuntimeError>;
    fn advance(&mut self, to_ms: u64) -> Result<usize, RuntimeError>;
}

impl FleetApi for Runtime {
    fn start(&mut self, workflow: &str) -> Result<u64, RuntimeError> {
        Runtime::start(self, workflow)
    }
    fn fire(&mut self, id: u64, event: &str) -> Result<InstanceStatus, RuntimeError> {
        Runtime::fire(self, id, event)
    }
    fn eligible(&mut self, id: u64) -> Result<Vec<String>, RuntimeError> {
        Runtime::eligible(self, id)
    }
    fn try_complete(&mut self, id: u64) -> Result<InstanceStatus, RuntimeError> {
        Runtime::try_complete(self, id)
    }
    fn advance(&mut self, to_ms: u64) -> Result<usize, RuntimeError> {
        Runtime::advance(self, to_ms).map(|fired| fired.len())
    }
}

impl FleetApi for &SharedRuntime {
    fn start(&mut self, workflow: &str) -> Result<u64, RuntimeError> {
        SharedRuntime::start(self, workflow)
    }
    fn fire(&mut self, id: u64, event: &str) -> Result<InstanceStatus, RuntimeError> {
        SharedRuntime::fire(self, id, event)
    }
    fn eligible(&mut self, id: u64) -> Result<Vec<String>, RuntimeError> {
        SharedRuntime::eligible(self, id)
    }
    fn try_complete(&mut self, id: u64) -> Result<InstanceStatus, RuntimeError> {
        SharedRuntime::try_complete(self, id)
    }
    fn advance(&mut self, to_ms: u64) -> Result<usize, RuntimeError> {
        SharedRuntime::advance(self, to_ms).map(|fired| fired.len())
    }
}

/// The workload state.
pub struct FleetMem {
    plans: Vec<SpecPlan>,
    /// Per instance: `(plan index, variant)`.
    assignment: Vec<(u8, u8)>,
    /// One script per driver thread.
    scripts: Vec<Vec<Op>>,
    /// Per thread, per op: the oracle's digest.
    expected_ops: Option<Vec<Vec<u64>>>,
    /// Per instance: digest of the oracle's journal.
    expected_journals: Option<Vec<u64>>,
}

/// Interleaves the ops of `instances` in seeded random order. When
/// `advance_every` is set the script also moves the clock, and an
/// instance waiting at a gate is passed over until the clock has moved
/// since it started.
fn interleave(
    plans: &[SpecPlan],
    assignment: &[(u8, u8)],
    instances: &[u32],
    advance_every: Option<usize>,
    rng: &mut Rng,
) -> Vec<Op> {
    struct Cursor {
        inst: u32,
        next: usize,
        started: bool,
        /// Advances done when the instance started.
        epoch: usize,
    }
    let mut live: Vec<Cursor> = instances
        .iter()
        .map(|&inst| Cursor {
            inst,
            next: 0,
            started: false,
            epoch: 0,
        })
        .collect();
    let mut out = Vec::new();
    let mut advances = 0usize;
    let mut since_advance = 0usize;
    while !live.is_empty() {
        if advance_every.is_some_and(|n| since_advance >= n) {
            out.push(Op {
                inst: 0,
                kind: Kind::Advance,
                arg: 0,
            });
            advances += 1;
            since_advance = 0;
        }
        // A gated pick is retried a few times before the clock is moved
        // early for it (only happens when almost everything left waits).
        let mut slot = rng.below(live.len());
        let mut tries = 0;
        loop {
            let cursor = &live[slot];
            let (plan, variant) = assignment[cursor.inst as usize];
            let ops = &plans[plan as usize].variants[variant as usize];
            let gated = cursor.started
                && ops.get(cursor.next) == Some(&PlanOp::Gate)
                && advances <= cursor.epoch;
            if !gated {
                break;
            }
            tries += 1;
            if tries > 16 {
                out.push(Op {
                    inst: 0,
                    kind: Kind::Advance,
                    arg: 0,
                });
                advances += 1;
                since_advance = 0;
            } else {
                slot = rng.below(live.len());
            }
        }
        let cursor = &mut live[slot];
        let (plan, variant) = assignment[cursor.inst as usize];
        let ops = &plans[plan as usize].variants[variant as usize];
        if !cursor.started {
            cursor.started = true;
            cursor.epoch = advances;
            out.push(Op {
                inst: cursor.inst,
                kind: Kind::Start,
                arg: 0,
            });
            since_advance += 1;
            continue;
        }
        if ops.get(cursor.next) == Some(&PlanOp::Gate) {
            // The gate is open: it costs no call of its own.
            cursor.next += 1;
        }
        match ops.get(cursor.next) {
            None => {
                live.swap_remove(slot);
            }
            Some(op) => {
                let (kind, arg) = match *op {
                    PlanOp::Fire(e) => (Kind::Fire, e),
                    PlanOp::Refuse(e) => (Kind::Refuse, e),
                    PlanOp::Eligible => (Kind::Eligible, 0),
                    PlanOp::TryComplete => (Kind::TryComplete, 0),
                    PlanOp::Gate => unreachable!("a walk never has two gates in a row"),
                };
                out.push(Op {
                    inst: cursor.inst,
                    kind,
                    arg,
                });
                cursor.next += 1;
                since_advance += 1;
            }
        }
    }
    out
}

impl FleetMem {
    /// Replays one thread's script against `api`, returning each op's
    /// digest. `ids` maps script instance → runtime id and is filled by
    /// the `start` ops. `clock` is the thread's own count of advances.
    #[inline]
    fn run_op(&self, api: &mut impl FleetApi, op: Op, ids: &mut [u64], clock_ms: &mut u64) -> u64 {
        let (plan, _) = self.assignment[op.inst as usize];
        let plan = &self.plans[plan as usize];
        match op.kind {
            Kind::Start => match api.start(&plan.name) {
                Ok(id) => {
                    ids[op.inst as usize] = id;
                    RUNNING
                }
                Err(_) => WRONG,
            },
            Kind::Fire => {
                digest_status(api.fire(ids[op.inst as usize], &plan.events[op.arg as usize]))
            }
            Kind::Refuse => match api.fire(ids[op.inst as usize], &plan.events[op.arg as usize]) {
                Err(RuntimeError::NotEligible { .. }) => REFUSED,
                _ => WRONG,
            },
            Kind::Eligible => api
                .eligible(ids[op.inst as usize])
                .map_or(WRONG, |names| digest_names(&names) | 4),
            Kind::TryComplete => digest_status(api.try_complete(ids[op.inst as usize])),
            Kind::Advance => {
                *clock_ms += ADVANCE_STEP_MS;
                api.advance(*clock_ms)
                    .map_or(WRONG, |fired| 8 + fired as u64)
            }
        }
    }

    fn deploy_all(&self, deploy: &mut dyn FnMut(&str)) {
        for plan in &self.plans {
            deploy(&plan.source);
        }
    }

    /// Σ compiled goal size of the deployed specs.
    pub fn output_nodes(&self) -> u64 {
        self.plans.iter().map(|p| p.compiled_nodes as u64).sum()
    }
}

impl Workload for FleetMem {
    fn generate(cfg: &RunConfig) -> FleetMem {
        let root = Rng::new(cfg.seed);
        let mut rng = root.fork("specs");
        let variants = if cfg.smoke { 4 } else { VARIANTS };
        let layered = layered_orders_source(&mut rng);
        let plans = vec![
            SpecPlan::build(&layered, &mut rng, variants, PlanStyle::Mixed),
            SpecPlan::build(
                inputs::example_source("order_fulfilment"),
                &mut rng,
                variants,
                PlanStyle::Mixed,
            ),
            SpecPlan::build(TIMED_SOURCE, &mut rng, variants, PlanStyle::Mixed),
        ];
        let fleet = if cfg.smoke { FLEET / 50 } else { FLEET };
        let mut rng = root.fork("fleet");
        let assignment: Vec<(u8, u8)> = (0..fleet)
            .map(|_| {
                let plan = match rng.below(10) {
                    0..=6 => 0u8,
                    7..=8 => 1,
                    _ => 2,
                };
                (plan, rng.below(variants) as u8)
            })
            .collect();
        // Disjoint instance sets; every timer instance on thread 0.
        let threads = host::clients(2);
        let mut sets: Vec<Vec<u32>> = vec![Vec::new(); threads];
        let (timed, plain): (Vec<u32>, Vec<u32>) =
            (0..fleet as u32).partition(|&i| assignment[i as usize].0 == 2);
        sets[0].extend(&timed);
        for inst in plain {
            let target = (0..threads)
                .min_by_key(|&t| sets[t].len())
                .expect("at least one thread");
            sets[target].push(inst);
        }
        let scripts: Vec<Vec<Op>> = sets
            .iter()
            .enumerate()
            .map(|(t, set)| {
                interleave(
                    &plans,
                    &assignment,
                    set,
                    (t == 0).then_some(ADVANCE_EVERY),
                    &mut root.fork(&format!("thread{t}")),
                )
            })
            .collect();

        let mut files: Vec<(String, String)> = plans
            .iter()
            .map(|p| (format!("{}.ctr", p.name), p.source.clone()))
            .collect();
        // One line per call: instance, verb, event index (`events.txt`
        // names them per spec).
        let mut legend = String::new();
        for plan in &plans {
            let _ = writeln!(legend, "{}: {}", plan.name, plan.events.join(" "));
        }
        files.push(("events.txt".to_owned(), legend));
        for (t, script) in scripts.iter().enumerate() {
            let mut listing = String::with_capacity(script.len() * 12);
            for op in script {
                let _ = match op.kind {
                    Kind::Start => {
                        let plan = &plans[assignment[op.inst as usize].0 as usize];
                        writeln!(listing, "{} start {}", op.inst, plan.name)
                    }
                    Kind::Fire => writeln!(listing, "{} fire {}", op.inst, op.arg),
                    Kind::Refuse => writeln!(listing, "{} refuse {}", op.inst, op.arg),
                    Kind::Eligible => writeln!(listing, "{} eligible", op.inst),
                    Kind::TryComplete => writeln!(listing, "{} try_complete", op.inst),
                    Kind::Advance => writeln!(listing, "- advance {ADVANCE_STEP_MS}"),
                };
            }
            files.push((format!("thread{t}.script"), listing));
        }
        inputs::save_inputs("fleet_mem", &files).expect("write generated inputs");
        FleetMem {
            plans,
            assignment,
            scripts,
            expected_ops: None,
            expected_journals: None,
        }
    }

    fn reference(&mut self) {
        // The single-threaded `Runtime` replays the same scripts, one
        // thread after the other (their instance sets are disjoint and
        // only the first moves the clock, so the order is immaterial).
        let mut oracle = Runtime::new();
        self.deploy_all(&mut |source| {
            oracle.deploy_source(source).expect("deploys");
        });
        let mut ids = vec![u64::MAX; self.assignment.len()];
        let mut clock_ms = 0u64;
        let mut expected_ops = Vec::new();
        for script in &self.scripts {
            let digests: Vec<u64> = script
                .iter()
                .map(|&op| self.run_op(&mut oracle, op, &mut ids, &mut clock_ms))
                .collect();
            expected_ops.push(digests);
        }
        self.expected_journals = Some(
            ids.iter()
                .map(|&id| digest_names(&oracle.journal(id).expect("started by the script")))
                .collect(),
        );
        self.expected_ops = Some(expected_ops);
    }

    fn repetition(&mut self, tracer: &mut Tracer) -> Rep {
        let t0 = Instant::now();
        let runtime = SharedRuntime::new();
        self.deploy_all(&mut |source| {
            runtime.deploy_source(source).expect("deploys");
        });
        let prepare_s = t0.elapsed().as_secs_f64();

        let barrier = Barrier::new(self.scripts.len());
        let this = &*self;
        let runtime_ref = &runtime;
        let cpu0 = self_cpu_s();
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = this
                .scripts
                .iter()
                .enumerate()
                .map(|(t, script)| {
                    let barrier = &barrier;
                    let mut tracer = tracer.sibling();
                    scope.spawn(move || {
                        let mut api = runtime_ref;
                        let mut ids = vec![u64::MAX; this.assignment.len()];
                        let mut clock_ms = 0u64;
                        let mut sampler = LatencySampler::new(SAMPLE_EVERY, script.len());
                        let mut failed = 0u64;
                        let expected = this.expected_ops.as_ref().map(|e| &e[t]);
                        barrier.wait();
                        let started = Instant::now();
                        for (i, &op) in script.iter().enumerate() {
                            let digest = if tracer.is_on() {
                                let layer = match op.kind {
                                    Kind::Start => "runtime.shared.start",
                                    Kind::Fire => "runtime.shared.fire",
                                    Kind::Refuse => "runtime.shared.refuse",
                                    Kind::Eligible => "runtime.shared.eligible",
                                    Kind::TryComplete => "runtime.shared.try_complete",
                                    Kind::Advance => "runtime.shared.advance",
                                };
                                sampler.time(|| {
                                    tracer.span("op", i as u32, |tr| {
                                        tr.span(layer, i as u32, |_| {
                                            this.run_op(&mut api, op, &mut ids, &mut clock_ms)
                                        })
                                    })
                                })
                            } else {
                                sampler.time(|| this.run_op(&mut api, op, &mut ids, &mut clock_ms))
                            };
                            match expected {
                                Some(expected) => failed += u64::from(expected[i] != digest),
                                None => failed += u64::from(digest == WRONG),
                            }
                        }
                        let finished = Instant::now();
                        (started, finished, sampler.samples, failed, ids, tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread"))
                .collect()
        });
        let cpu_s = self_cpu_s() - cpu0;
        let first_start = results.iter().map(|r| r.0).min().expect("one thread");
        let last_finish = results.iter().map(|r| r.1).max().expect("one thread");
        let wall_s = (last_finish - first_start).as_secs_f64();

        let mut failed = 0u64;
        let mut lat_ns = Vec::new();
        let mut ids = vec![u64::MAX; self.assignment.len()];
        for (_, _, samples, thread_failed, thread_ids, thread_tracer) in results {
            failed += thread_failed;
            lat_ns.extend(samples);
            for (slot, id) in ids.iter_mut().zip(thread_ids) {
                if id != u64::MAX {
                    *slot = id;
                }
            }
            tracer.merge(thread_tracer);
        }
        // Every journal must equal the oracle's replay of the same script.
        if let Some(expected) = &self.expected_journals {
            for (inst, &id) in ids.iter().enumerate() {
                let same = runtime
                    .journal(id)
                    .is_ok_and(|journal| digest_names(&journal) == expected[inst]);
                failed += u64::from(!same);
            }
        }
        let ops: usize = self.scripts.iter().map(Vec::len).sum();
        Rep {
            prepare_s,
            wall_s,
            cpu_s,
            ops: ops as u64,
            failed,
            lat_ns,
            extra: vec![("output_nodes", self.output_nodes() as f64)],
            ..Rep::default()
        }
    }

    fn clients(&self) -> usize {
        self.scripts.len()
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
    fn two_threads_reproduce_the_single_threaded_oracle() {
        let mut w = FleetMem::generate(&smoke_cfg(6));
        w.reference();
        assert_eq!(w.repetition(&mut Tracer::off()).failed, 0);
        let mut tracer = Tracer::on(Instant::now());
        let rep = w.repetition(&mut tracer);
        assert_eq!(rep.failed, 0);
        assert_eq!(tracer.layer("op").spans, rep.ops);
        assert!(tracer.layer("runtime.shared.advance").spans > 0);
        // The mix has every kind of call in it.
        for kind in [
            Kind::Start,
            Kind::Fire,
            Kind::Eligible,
            Kind::Refuse,
            Kind::TryComplete,
        ] {
            assert!(
                w.scripts.iter().flatten().any(|op| op.kind == kind),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn corrupting_one_expected_journal_fails_the_repetition() {
        let mut w = FleetMem::generate(&smoke_cfg(6));
        w.reference();
        w.expected_journals.as_mut().unwrap()[7] ^= 1;
        assert_eq!(w.repetition(&mut Tracer::off()).failed, 1);
    }

    #[test]
    fn scripts_are_a_function_of_the_seed() {
        let a = FleetMem::generate(&smoke_cfg(8));
        let b = FleetMem::generate(&smoke_cfg(8));
        assert_eq!(format!("{:?}", a.scripts), format!("{:?}", b.scripts));
        assert_eq!(a.plans[0].source, b.plans[0].source);
    }
}
