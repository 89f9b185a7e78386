//! The per-layer probes and the ladder.
//!
//! Each layer is measured **from outside**, by timing calls into its
//! public functions and reading the counters it already exports. The
//! probes do not depend on which workload is being traced: every
//! traced run executes all of them, so every per-layer metric is a
//! measurement, never a placeholder.
//!
//! The **ladder** pushes one script — instances of `layered16x2` with
//! its stage orders, every scripted fire, one driver thread, in the
//! arrival order the socket workloads use — through each rung of the
//! stack from fresh state: `Scheduler::fire_event`, `Runtime::fire`,
//! `SharedRuntime::fire`, `fire_runs` in bursts of 128, the same with a
//! `MemStore`, with the WAL (coalesced, strict), and over a loopback
//! socket (pipelined, one request per round trip). Each rung reports
//! nanoseconds and allocations per fire; the delta between adjacent
//! rungs is that layer's marginal cost. The slow rungs (an fsync or a
//! wake-up per fire) replay a prefix of the script: the per-fire cost
//! is the same and the run stays inside its time budget.

use crate::alloc;
use crate::inputs;
use crate::rng::Rng;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::workloads::compile_scratch::CompileScratch;
use crate::workloads::enact_saga;
use crate::workloads::fleet::{
    layered_orders_source, rotate_fires, PlanOp, PlanStyle, SpecPlan, ADVANCE_STEP_MS, TIMED_SOURCE,
};
use crate::workloads::verify_session::VerifySession;
use crate::workloads::{Metric, RunConfig, Workload};
use ctr::symbol::{sym, Symbol};
use ctr_engine::scheduler::{Program, Scheduler};
use ctr_runtime::{
    AttemptOutcome, Durability, Enactor, FaultPlan, FireOutcome, InstanceStatus, MemStore,
    RetryPolicy, Runtime, SharedRuntime, Store, TimerWheel, WalOptions, WalStore,
};
use ctr_serve::protocol::{self, FRAME_HEADER};
use ctr_serve::{Client, Request, Response, ServeOptions, Server, WireStatus};
use ctr_store::Record;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Instances in the ladder script.
const LADDER_INSTANCES: usize = 2048;
/// Burst size of the `fire_runs` and pipelined-socket rungs.
const BURST: usize = 128;
/// Active instances per burst window (as in `serve_pipelined`).
const WINDOW: usize = 8;
/// Fires replayed by the rungs that pay an fsync per fire.
const WAL_RUNG_FIRES: usize = 768;
/// Fires replayed by the rung that pays a socket round trip per fire.
const RTT_RUNG_FIRES: usize = 4096;
/// Repetitions per rung and probe; the median is reported.
const REPS: usize = 3;
/// The most one repetition of an fsync-per-op probe may take. A VM's
/// fsync can stall for tens of milliseconds while unrelated dirty pages
/// are written back; the probe then reports on the appends it got
/// through instead of blowing the run's time limit.
const FSYNC_PROBE_BUDGET: Duration = Duration::from_millis(400);
/// Rungs that never wait for a disk always finish their script.
const NO_BUDGET: Duration = Duration::from_secs(3600);

type Probe = Result<Vec<Metric>, String>;

fn metric(name: &str, value: f64, n: usize) -> Metric {
    Metric::single(name, crate::report::unit_of(name), value, n)
}

fn metric_of(name: &str, samples: &[f64]) -> Metric {
    Metric {
        name: name.to_owned(),
        unit: crate::report::unit_of(name),
        summary: Summary::of(samples).expect("at least one sample"),
    }
}

/// Runs `f` `REPS` times and returns its samples.
fn sample(mut f: impl FnMut() -> Result<f64, String>) -> Result<Vec<f64>, String> {
    (0..REPS).map(|_| f()).collect()
}

/// A scratch directory under `out/`, emptied first.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = inputs::out_dir().join("probe").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear a probe directory");
    }
    std::fs::create_dir_all(&dir).expect("create a probe directory");
    dir
}

// --- The ladder -------------------------------------------------------------

/// The one script every rung replays.
struct LadderScript {
    plan: SpecPlan,
    /// `(instance, event)` in arrival order.
    fires: Vec<(u32, u16)>,
    /// Per instance: its events in firing order (for `fire_runs`).
    sequences: Vec<Vec<String>>,
    instances: usize,
}

impl LadderScript {
    fn new(seed: u64, smoke: bool) -> LadderScript {
        let root = Rng::new(seed);
        let mut rng = root.fork("ladder");
        let source = layered_orders_source(&mut rng);
        let plan = SpecPlan::build(&source, &mut rng, 16, PlanStyle::FiresOnly);
        let instances = if smoke {
            LADDER_INSTANCES / 32
        } else {
            LADDER_INSTANCES
        };
        let ordinals: Vec<(u32, u8)> = (0..instances as u32)
            .map(|i| (i, rng.below(plan.variants.len()) as u8))
            .collect();
        let fires = rotate_fires(&plan, &ordinals, WINDOW);
        let sequences = ordinals
            .iter()
            .map(|&(_, variant)| {
                plan.variants[variant as usize]
                    .iter()
                    .map(|op| match op {
                        PlanOp::Fire(e) => plan.events[*e as usize].clone(),
                        _ => unreachable!("fires-only plan"),
                    })
                    .collect()
            })
            .collect();
        LadderScript {
            plan,
            fires,
            sequences,
            instances,
        }
    }

    fn event(&self, e: u16) -> &str {
        &self.plan.events[e as usize]
    }

    /// The script's bursts as `(instance, first position, length)` runs.
    fn bursts(&self, fires: &[(u32, u16)]) -> Vec<Vec<(u32, usize, usize)>> {
        let mut position = vec![0usize; self.instances];
        fires
            .chunks(BURST)
            .map(|chunk| {
                let mut runs: Vec<(u32, usize, usize)> = Vec::new();
                for &(inst, _) in chunk {
                    match runs.iter_mut().find(|run| run.0 == inst) {
                        Some(run) => run.2 += 1,
                        None => runs.push((inst, position[inst as usize], 1)),
                    }
                }
                for run in &runs {
                    position[run.0 as usize] += run.2;
                }
                runs
            })
            .collect()
    }
}

/// One rung's measurement from fresh state: `(nanoseconds,
/// allocations, fires done)`.
type RungRun<'a> = Box<dyn FnMut() -> Result<(u64, u64, usize), String> + 'a>;

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(u64, u64, T), String> {
    let allocs0 = alloc::allocations();
    let t0 = Instant::now();
    let out = f()?;
    let ns = t0.elapsed().as_nanos() as u64;
    let allocs1 = alloc::allocations();
    Ok((ns, allocs1 - allocs0, out))
}

fn check(ok: usize, wanted: usize, rung: &str) -> Result<(), String> {
    if ok == wanted {
        Ok(())
    } else {
        Err(format!(
            "ladder rung `{rung}`: {ok} of {wanted} fires accepted"
        ))
    }
}

fn shared_with(
    store: Option<Arc<dyn Store>>,
    script: &LadderScript,
) -> Result<(SharedRuntime, Vec<u64>), String> {
    let rt = store.map_or_else(SharedRuntime::new, SharedRuntime::with_store);
    rt.deploy_source(&script.plan.source)
        .map_err(|e| e.to_string())?;
    let ids = (0..script.instances)
        .map(|_| rt.start(&script.plan.name).map_err(|e| e.to_string()))
        .collect::<Result<Vec<u64>, String>>()?;
    Ok((rt, ids))
}

/// Fires `fires` one call at a time; stops early once `budget` has
/// passed (checked every 64 fires, so the check costs nothing that
/// shows). Returns `(nanoseconds, allocations, fires done)`.
fn fire_one_by_one(
    rt: &SharedRuntime,
    ids: &[u64],
    script: &LadderScript,
    fires: &[(u32, u16)],
    rung: &str,
    budget: Duration,
) -> Result<(u64, u64, usize), String> {
    let (ns, allocs, (ok, done)) = timed(|| {
        let started = Instant::now();
        let mut ok = 0usize;
        let mut done = 0usize;
        for chunk in fires.chunks(64) {
            ok += chunk
                .iter()
                .filter(|&&(inst, e)| rt.fire(ids[inst as usize], script.event(e)).is_ok())
                .count();
            done += chunk.len();
            if started.elapsed() > budget {
                break;
            }
        }
        Ok((ok, done))
    })?;
    check(ok, done, rung)?;
    Ok((ns, allocs, done))
}

/// An in-process `ctr_serve::Server` on an ephemeral loopback port, so
/// the allocation counters see both ends of the socket.
struct LocalServer {
    addr: String,
    handle: ctr_serve::ServerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LocalServer {
    fn start() -> Result<LocalServer, String> {
        let server = Server::bind(SharedRuntime::new(), "127.0.0.1:0", ServeOptions::default())
            .map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || {
            let _ = server.run();
        });
        Ok(LocalServer {
            addr,
            handle,
            thread: Some(thread),
        })
    }

    /// Connects, deploys the script's spec and starts every instance
    /// (pipelined, untimed).
    fn client_with_fleet(&self, script: &LadderScript) -> Result<(Client, Vec<u64>), String> {
        let mut client = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        client
            .deploy(&script.plan.source)
            .map_err(|e| e.to_string())?;
        let mut ids = Vec::with_capacity(script.instances);
        let mut remaining = script.instances;
        while remaining > 0 {
            let chunk = remaining.min(BURST);
            for _ in 0..chunk {
                client.send(&Request::Start {
                    workflow: script.plan.name.clone(),
                });
            }
            client.flush().map_err(|e| e.to_string())?;
            for _ in 0..chunk {
                match client.recv().map_err(|e| e.to_string())? {
                    Response::InstanceId(id) => ids.push(id),
                    other => return Err(format!("start answered {other:?}")),
                }
            }
            remaining -= chunk;
        }
        Ok((client, ids))
    }
}

impl Drop for LocalServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn socket_rung(
    script: &LadderScript,
    fires: &[(u32, u16)],
    depth: usize,
    rung: &str,
) -> Result<(u64, u64, usize), String> {
    let server = LocalServer::start()?;
    let (mut client, ids) = server.client_with_fleet(script)?;
    let (ns, allocs, ok) = timed(|| {
        let mut ok = 0usize;
        for burst in fires.chunks(depth) {
            for &(inst, e) in burst {
                client.send(&Request::Fire {
                    instance: ids[inst as usize],
                    event: script.event(e).to_owned(),
                });
            }
            client.flush().map_err(|e| e.to_string())?;
            for _ in burst {
                if matches!(
                    client.recv().map_err(|e| e.to_string())?,
                    Response::Status(_)
                ) {
                    ok += 1;
                }
            }
        }
        Ok(ok)
    })?;
    check(ok, fires.len(), rung)?;
    Ok((ns, allocs, fires.len()))
}

/// The nine rungs: `ladder.<rung>.ns_per_fire` / `.allocs_per_fire`.
fn ladder(seed: u64, smoke: bool) -> Probe {
    let script = LadderScript::new(seed, smoke);
    let all = script.fires.as_slice();
    let wal_fires = &all[..all.len().min(if smoke { 64 } else { WAL_RUNG_FIRES })];
    let rtt_fires = &all[..all.len().min(if smoke { 256 } else { RTT_RUNG_FIRES })];
    let program = Arc::new(
        Program::compile(
            &ctr_parser::parse_spec(&script.plan.source)
                .expect("parses")
                .compile()
                .expect("compiles")
                .goal,
        )
        .map_err(|e| e.to_string())?,
    );
    let symbols: Vec<Symbol> = script.plan.events.iter().map(|e| sym(e)).collect();
    let wal = |durability: Durability, name: &'static str| -> Result<Arc<dyn Store>, String> {
        let options = WalOptions {
            durability,
            ..WalOptions::default()
        };
        WalStore::open_with(scratch_dir(name), options)
            .map(|store| Arc::new(store) as Arc<dyn Store>)
            .map_err(|e| e.to_string())
    };
    let script = &script;
    let rungs: Vec<(&str, RungRun)> = vec![
        (
            "scheduler",
            Box::new(|| {
                let mut cursors: Vec<Scheduler<Arc<Program>>> = (0..script.instances)
                    .map(|_| Scheduler::new(Arc::clone(&program)))
                    .collect();
                let (ns, allocs, ok) = timed(|| {
                    Ok(all
                        .iter()
                        .filter(|&&(inst, e)| {
                            cursors[inst as usize].fire_event(symbols[e as usize])
                        })
                        .count())
                })?;
                check(ok, all.len(), "scheduler")?;
                Ok((ns, allocs, all.len()))
            }),
        ),
        (
            "runtime_single",
            Box::new(|| {
                let mut rt = Runtime::new();
                rt.deploy_source(&script.plan.source)
                    .map_err(|e| e.to_string())?;
                let ids: Vec<u64> = (0..script.instances)
                    .map(|_| rt.start(&script.plan.name).map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
                let (ns, allocs, ok) = timed(|| {
                    Ok(all
                        .iter()
                        .filter(|&&(inst, e)| rt.fire(ids[inst as usize], script.event(e)).is_ok())
                        .count())
                })?;
                check(ok, all.len(), "runtime_single")?;
                Ok((ns, allocs, all.len()))
            }),
        ),
        (
            "runtime_shared",
            Box::new(|| {
                let (rt, ids) = shared_with(None, script)?;
                fire_one_by_one(&rt, &ids, script, all, "runtime_shared", NO_BUDGET)
            }),
        ),
        (
            "runtime_shared_runs",
            Box::new(|| {
                let (rt, ids) = shared_with(None, script)?;
                let bursts = script.bursts(all);
                let (ns, allocs, ok) = timed(|| {
                    let mut ok = 0usize;
                    for burst in &bursts {
                        let runs: Vec<(u64, &[String])> = burst
                            .iter()
                            .map(|&(inst, at, len)| {
                                (
                                    ids[inst as usize],
                                    &script.sequences[inst as usize][at..at + len],
                                )
                            })
                            .collect();
                        ok += rt
                            .fire_runs(&runs)
                            .iter()
                            .flatten()
                            .filter(|o| matches!(o, FireOutcome::Fired(_)))
                            .count();
                    }
                    Ok(ok)
                })?;
                check(ok, all.len(), "runtime_shared_runs")?;
                Ok((ns, allocs, all.len()))
            }),
        ),
        (
            "store_mem",
            Box::new(|| {
                let (rt, ids) = shared_with(Some(Arc::new(MemStore::new())), script)?;
                fire_one_by_one(&rt, &ids, script, all, "store_mem", NO_BUDGET)
            }),
        ),
        (
            "store_wal_coalesced",
            Box::new(|| {
                let (rt, ids) = shared_with(
                    Some(wal(Durability::coalesced(), "ladder-coalesced")?),
                    script,
                )?;
                fire_one_by_one(
                    &rt,
                    &ids,
                    script,
                    wal_fires,
                    "store_wal_coalesced",
                    FSYNC_PROBE_BUDGET,
                )
            }),
        ),
        (
            "store_wal_strict",
            Box::new(|| {
                let (rt, ids) =
                    shared_with(Some(wal(Durability::Strict, "ladder-strict")?), script)?;
                fire_one_by_one(
                    &rt,
                    &ids,
                    script,
                    wal_fires,
                    "store_wal_strict",
                    FSYNC_PROBE_BUDGET,
                )
            }),
        ),
        (
            "socket_pipelined",
            Box::new(|| socket_rung(script, all, BURST, "socket_pipelined")),
        ),
        (
            "socket_rtt",
            Box::new(|| socket_rung(script, rtt_fires, 1, "socket_rtt")),
        ),
    ];
    let mut out = Vec::new();
    for (rung, mut run) in rungs {
        let mut ns = Vec::new();
        let mut allocs = Vec::new();
        for _ in 0..REPS {
            let (rung_ns, rung_allocs, fires) = run()?;
            ns.push(rung_ns as f64 / fires as f64);
            allocs.push(rung_allocs as f64 / fires as f64);
        }
        out.push(metric_of(&format!("ladder.{rung}.ns_per_fire"), &ns));
        out.push(metric_of(
            &format!("ladder.{rung}.allocs_per_fire"),
            &allocs,
        ));
    }
    // Client-side burst size of the pipelined rung, and what one round
    // trip costs over a bare `SharedRuntime::fire`.
    let value = |name: &str| {
        out.iter()
            .find(|m| m.name == name)
            .map_or(0.0, Metric::value)
    };
    let bursts = all.len().div_ceil(BURST);
    // Client-side burst size of the pipelined rung, what one round trip
    // costs over a bare `SharedRuntime::fire`, and the rungs that are
    // also their layer's own `fire` metric.
    let derived = vec![
        metric(
            "serve.socket.fires_per_burst",
            all.len() as f64 / bursts as f64,
            bursts,
        ),
        metric(
            "serve.socket.rtt_overhead_us",
            (value("ladder.socket_rtt.ns_per_fire") - value("ladder.runtime_shared.ns_per_fire"))
                / 1e3,
            REPS,
        ),
        metric(
            "runtime.single.fire_ns",
            value("ladder.runtime_single.ns_per_fire"),
            REPS,
        ),
        metric(
            "runtime.shared.fire_ns",
            value("ladder.runtime_shared.ns_per_fire"),
            REPS,
        ),
        metric(
            "runtime.shared.fire_runs_ns",
            value("ladder.runtime_shared_runs.ns_per_fire"),
            REPS,
        ),
    ];
    out.extend(derived);
    Ok(out)
}

// --- Compile and verify layers ------------------------------------------------

fn mean_us(tracer: &Tracer, layer: &str) -> f64 {
    let totals = tracer.layer(layer);
    totals.total_ns as f64 / totals.spans.max(1) as f64 / 1e3
}

/// Graph sizes of the Theorem 5.11 family: `layered_workflow(n, 2)`
/// under one fixed set of three Klein constraints (`N = 3`, `d = 3`).
const LINEARITY_LAYERS: [usize; 5] = [8, 16, 32, 64, 128];

/// Theorem 5.11 as fitted slopes: with the constraints fixed, `Apply`
/// time against `|Apply(C, G)|` and `Excise` time against its input
/// size, log-log, over graphs growing 16×. Linear is 1.0. (The legacy
/// `e1_apply_size` rows show a 5× step for 2× the output between 32 and
/// 64 layers; a slope well above 1 here would be that step, a slope near
/// 1 says it was noise.)
fn linearity_fits(cfg: &RunConfig) -> (f64, f64) {
    let constraints = ctr::gen::klein_chain(3);
    let layers: &[usize] = if cfg.smoke {
        &LINEARITY_LAYERS[..3]
    } else {
        &LINEARITY_LAYERS
    };
    let mut apply_points = Vec::new();
    let mut excise_points = Vec::new();
    for &n in layers {
        let goal = ctr::gen::layered_workflow(n, 2);
        let applied = ctr::apply::apply(&constraints, &goal);
        let mut apply_ns = Vec::new();
        let mut excise_ns = Vec::new();
        for _ in 0..if cfg.smoke { 3 } else { 9 } {
            let t0 = Instant::now();
            std::hint::black_box(ctr::apply::apply(&constraints, &goal));
            apply_ns.push(t0.elapsed().as_nanos() as f64);
            let t0 = Instant::now();
            std::hint::black_box(ctr::excise::excise(&applied));
            excise_ns.push(t0.elapsed().as_nanos() as f64);
        }
        apply_points.push((applied.size() as f64, stats::median(&apply_ns)));
        excise_points.push((applied.size() as f64, stats::median(&excise_ns)));
    }
    (
        stats::power_law_exponent(&apply_points),
        stats::power_law_exponent(&excise_points),
    )
}

/// `parser`, `workflow`, `core.constraints`, `core.apply`, `core.excise`
/// and `engine.program`, from a traced pass over the compile spec set.
fn compile_layers(cfg: &RunConfig) -> Probe {
    let mut workload = CompileScratch::generate(cfg);
    workload.reference();
    let mut tracer = Tracer::on(Instant::now());
    let mut failed = 0;
    let mut passes = 0.0;
    for _ in 0..if cfg.smoke { 1 } else { 2 } {
        let rep = workload.repetition(&mut tracer);
        failed += rep.failed;
        passes += rep.ops as f64 / workload.specs().len() as f64;
    }
    if failed > 0 {
        return Err(format!(
            "compile layers: {failed} staged compiles disagree with compile()"
        ));
    }
    let per_pass = |count: &str| tracer.counted(count) as f64 / passes;
    let parse_ns = tracer.layer("parser").total_ns.max(1) as f64;
    let apply_ns = tracer.layer("core.apply").total_ns as f64;
    let excise_ns = tracer.layer("core.excise").total_ns as f64;
    let (apply_exponent, excise_exponent) = linearity_fits(cfg);
    let spans = tracer.layer("core.apply").spans as usize;
    Ok(vec![
        metric("parser.parse_us", mean_us(&tracer, "parser"), spans),
        metric(
            "parser.bytes_per_s",
            tracer.counted("parser.bytes") as f64 / (parse_ns / 1e9),
            spans,
        ),
        metric("workflow.lower_us", mean_us(&tracer, "workflow"), spans),
        metric(
            "core.constraints.normalize_us",
            mean_us(&tracer, "core.constraints"),
            spans,
        ),
        metric(
            "core.constraints.disjuncts",
            per_pass("core.constraints.disjuncts"),
            spans,
        ),
        metric("core.apply.us", mean_us(&tracer, "core.apply"), spans),
        metric(
            "core.apply.out_nodes",
            per_pass("core.apply.out_nodes"),
            spans,
        ),
        metric(
            "core.apply.ns_per_out_node",
            apply_ns / tracer.counted("core.apply.out_nodes").max(1) as f64,
            spans,
        ),
        metric(
            "core.apply.fit_exponent",
            apply_exponent,
            LINEARITY_LAYERS.len(),
        ),
        metric("core.excise.us", mean_us(&tracer, "core.excise"), spans),
        metric(
            "core.excise.out_nodes",
            per_pass("core.excise.out_nodes"),
            spans,
        ),
        metric(
            "core.excise.ns_per_in_node",
            excise_ns / tracer.counted("core.excise.in_nodes").max(1) as f64,
            spans,
        ),
        metric(
            "core.excise.fit_exponent",
            excise_exponent,
            LINEARITY_LAYERS.len(),
        ),
        metric(
            "engine.program.build_us",
            mean_us(&tracer, "engine.program"),
            tracer.layer("engine.program").spans as usize,
        ),
        metric(
            "engine.program.nodes",
            per_pass("engine.program.nodes"),
            spans,
        ),
    ])
}

/// `core.analysis` (the untabled reference) and `core.memo`, from a
/// traced replay of the verify script.
fn verify_layers(cfg: &RunConfig) -> Probe {
    let mut workload = VerifySession::generate(cfg);
    workload.reference();
    let builds: Vec<f64> = (0..REPS)
        .map(|_| workload.session_build_ns() as f64 / 1e3)
        .collect();
    let mut tracer = Tracer::on(Instant::now());
    let mut failed = 0;
    for _ in 0..if cfg.smoke { 1 } else { 2 } {
        failed += workload.repetition(&mut tracer).failed;
    }
    if failed > 0 {
        return Err(format!(
            "verify layers: {failed} tabled answers disagree with the untabled reference"
        ));
    }
    let share = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let (tail, head) = (workload.tail, workload.head);
    let untabled: Vec<f64> = workload
        .untabled_verify_ns
        .iter()
        .map(|ns| *ns as f64 / 1e3)
        .collect();
    let queries = tracer.layer("core.memo.query").spans as usize;
    Ok(vec![
        metric(
            "core.analysis.verify_us",
            stats::median(&untabled),
            untabled.len(),
        ),
        metric_of("core.memo.session_build_us", &builds),
        metric(
            "core.memo.query_us",
            mean_us(&tracer, "core.memo.query"),
            queries,
        ),
        metric(
            "core.memo.edit_us",
            mean_us(&tracer, "core.memo.edit"),
            tracer.layer("core.memo.edit").spans as usize,
        ),
        metric(
            "core.memo.hit_share",
            share(tail.hits + head.hits, tail.misses + head.misses),
            queries,
        ),
        metric(
            "core.memo.hit_share_tail",
            share(tail.hits, tail.misses),
            queries,
        ),
        metric(
            "core.memo.hit_share_head",
            share(head.hits, head.misses),
            queries,
        ),
        metric("core.memo.entries", workload.table_entries as f64, 1),
        metric("core.memo.interned", workload.table_interned as f64, 1),
    ])
}

// --- Scheduler, runtime, wheel, enactor ---------------------------------------

/// `engine.scheduler`: the cursor's hot paths with nothing around them.
fn scheduler_layer(smoke: bool) -> Probe {
    let fires = if smoke { 500 } else { 10_000 };
    let program =
        Program::compile(&ctr::gen::pipeline_workflow(fires)).map_err(|e| e.to_string())?;
    let events: Vec<Symbol> = (0..fires).map(|i| sym(&format!("t{i}"))).collect();
    let fire = sample(|| {
        let mut cursor = Scheduler::new(&program);
        let t0 = Instant::now();
        let ok = events.iter().filter(|&&e| cursor.fire_event(e)).count();
        let ns = t0.elapsed().as_nanos() as f64;
        check(ok, fires, "engine.scheduler.fire")?;
        Ok(ns / fires as f64)
    })?;
    // Probes on a mid-flight layered schedule (several live branches).
    let layered = ctr::analysis::compile(&ctr::gen::layered_workflow(16, 2), &[])
        .map_err(|e| e.to_string())?;
    let program = Program::compile(&layered.goal).map_err(|e| e.to_string())?;
    let mut cursor = Scheduler::new(&program);
    let mut fired = Vec::new();
    for _ in 0..16 {
        let choice = cursor.eligible()[0];
        fired.extend(program.event(choice.node).and_then(|a| a.as_event()));
        cursor.fire(choice.node);
    }
    let probes = if smoke { 10_000 } else { 1_000_000 };
    let eligible = sample(|| {
        let t0 = Instant::now();
        let mut seen = 0usize;
        for _ in 0..probes {
            // Without the black box the O(1) read is hoisted out of the loop.
            seen += std::hint::black_box(&cursor).eligible().len();
        }
        let ns = t0.elapsed().as_nanos() as f64;
        if seen < probes {
            return Err("mid-flight frontier is empty".to_owned());
        }
        Ok(ns / probes as f64)
    })?;
    let refusals = probes / 10;
    let refuse = sample(|| {
        let t0 = Instant::now();
        let mut accepted = 0usize;
        for i in 0..refusals {
            // A fired event can never fire again (unique-event property).
            accepted += usize::from(cursor.fire_event(fired[i % fired.len()]));
        }
        let ns = t0.elapsed().as_nanos() as f64;
        check(accepted, 0, "engine.scheduler.refuse")?;
        Ok(ns / refusals as f64)
    })?;
    Ok(vec![
        metric_of("engine.scheduler.fire_ns", &fire),
        metric_of("engine.scheduler.eligible_ns", &eligible),
        metric_of("engine.scheduler.refuse_ns", &refuse),
    ])
}

/// `runtime.single` and `runtime.shared` calls the ladder does not
/// cover, on the ladder's fleet.
fn runtime_layers(seed: u64, smoke: bool) -> Probe {
    let script = LadderScript::new(seed, smoke);
    let n = script.instances as f64;
    let fires = script.fires.len() as f64;
    let mut single_start = Vec::new();
    let mut single_batch = Vec::new();
    let mut shared_start = Vec::new();
    let mut fire_many = Vec::new();
    let mut eligible = Vec::new();
    let mut try_complete = Vec::new();
    let mut snapshot_ms = Vec::new();
    let mut restore_ms = Vec::new();
    for _ in 0..REPS {
        let mut rt = Runtime::new();
        rt.deploy_source(&script.plan.source)
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let ids: Vec<u64> = (0..script.instances)
            .map(|_| rt.start(&script.plan.name).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        single_start.push(t0.elapsed().as_nanos() as f64 / n);
        let t0 = Instant::now();
        let mut ok = 0usize;
        for (id, sequence) in ids.iter().zip(&script.sequences) {
            ok += rt
                .fire_batch(*id, sequence)
                .map_err(|e| e.to_string())?
                .iter()
                .filter(|o| matches!(o, FireOutcome::Fired(_)))
                .count();
        }
        single_batch.push(t0.elapsed().as_nanos() as f64 / fires);
        check(ok, script.fires.len(), "runtime.single.fire_batch")?;

        let shared = SharedRuntime::new();
        shared
            .deploy_source(&script.plan.source)
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let ids: Vec<u64> = (0..script.instances)
            .map(|_| shared.start(&script.plan.name).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        shared_start.push(t0.elapsed().as_nanos() as f64 / n);
        // First half through fire_many in bursts, then probe mid-flight.
        let pairs: Vec<(u64, &str)> = script
            .fires
            .iter()
            .map(|&(inst, e)| (ids[inst as usize], script.event(e)))
            .collect();
        let t0 = Instant::now();
        let ok: usize = pairs
            .chunks(BURST)
            .map(|chunk| {
                shared
                    .fire_many(chunk)
                    .iter()
                    .filter(|o| matches!(o, FireOutcome::Fired(_)))
                    .count()
            })
            .sum();
        fire_many.push(t0.elapsed().as_nanos() as f64 / fires);
        check(ok, pairs.len(), "runtime.shared.fire_many")?;
        let t0 = Instant::now();
        for &id in &ids {
            std::hint::black_box(shared.eligible(id).map_err(|e| e.to_string())?);
        }
        eligible.push(t0.elapsed().as_nanos() as f64 / n);
        let t0 = Instant::now();
        let done = ids
            .iter()
            .filter(|&&id| shared.try_complete(id) == Ok(InstanceStatus::Completed))
            .count();
        try_complete.push(t0.elapsed().as_nanos() as f64 / n);
        check(done, ids.len(), "runtime.shared.try_complete")?;
        let t0 = Instant::now();
        let snapshot = shared.snapshot();
        snapshot_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let restored = SharedRuntime::restore(&snapshot).map_err(|e| e.to_string())?;
        restore_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if restored.snapshot() != snapshot {
            return Err("runtime.shared.restore: snapshot does not round-trip".to_owned());
        }
    }
    // Live heap bytes per mid-flight instance, from the counting
    // allocator (exact; RSS would hide it behind reused pages).
    let fleet = if smoke { 512 } else { 8192 };
    let before = alloc::live_bytes();
    let shared = SharedRuntime::new();
    shared
        .deploy_source(&script.plan.source)
        .map_err(|e| e.to_string())?;
    for i in 0..fleet {
        let id = shared.start(&script.plan.name).map_err(|e| e.to_string())?;
        for event in &script.sequences[i % script.sequences.len()][..16] {
            shared.fire(id, event).map_err(|e| e.to_string())?;
        }
    }
    let after = alloc::live_bytes();
    drop(shared);
    Ok(vec![
        metric_of("runtime.single.start_ns", &single_start),
        metric_of("runtime.single.fire_batch_ns", &single_batch),
        metric_of("runtime.shared.start_ns", &shared_start),
        metric_of("runtime.shared.fire_many_ns", &fire_many),
        metric_of("runtime.shared.eligible_ns", &eligible),
        metric_of("runtime.shared.try_complete_ns", &try_complete),
        metric_of("runtime.shared.snapshot_ms", &snapshot_ms),
        metric_of("runtime.shared.restore_ms", &restore_ms),
        metric(
            "runtime.shared.bytes_per_instance",
            after.saturating_sub(before) as f64 / fleet as f64,
            fleet,
        ),
    ])
}

/// `runtime.wheel` alone, and one fleet advance through the runtime.
fn wheel_layer(smoke: bool) -> Probe {
    let timers = if smoke { 2_000 } else { 100_000 };
    const HORIZON_MS: u64 = 86_400_000;
    let mut arm = Vec::new();
    let mut cancel = Vec::new();
    let mut expire = Vec::new();
    let mut advance = Vec::new();
    for rep in 0..REPS {
        let mut rng = Rng::new(rep as u64).fork("wheel");
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let t0 = Instant::now();
        let tokens: Vec<_> = (0..timers)
            .map(|i| wheel.arm(1 + rng.next_u64() % HORIZON_MS, i as u32))
            .collect();
        arm.push(t0.elapsed().as_nanos() as f64 / timers as f64);
        let t0 = Instant::now();
        let cancelled = tokens
            .into_iter()
            .filter(|&t| wheel.cancel(t).is_some())
            .count();
        cancel.push(t0.elapsed().as_nanos() as f64 / timers as f64);
        check(cancelled, timers, "runtime.wheel.cancel")?;
        for i in 0..timers {
            wheel.arm(1 + rng.next_u64() % HORIZON_MS, i as u32);
        }
        let t0 = Instant::now();
        let mut fired = 0usize;
        for step in 1..=1024u64 {
            fired += wheel.advance_to(step * (HORIZON_MS / 1024 + 1)).len();
        }
        expire.push(t0.elapsed().as_nanos() as f64 / timers as f64);
        check(fired, timers, "runtime.wheel.expire")?;

        let fleet = if smoke { 64 } else { 2048 };
        let rt = SharedRuntime::new();
        let name = rt.deploy_source(TIMED_SOURCE).map_err(|e| e.to_string())?;
        for _ in 0..fleet {
            rt.start(&name).map_err(|e| e.to_string())?;
        }
        let t0 = Instant::now();
        let fired = rt
            .advance(ADVANCE_STEP_MS)
            .map_err(|e| e.to_string())?
            .len();
        advance.push(t0.elapsed().as_nanos() as f64 / fleet as f64);
        check(fired, fleet, "runtime.shared.advance")?;
    }
    Ok(vec![
        metric_of("runtime.wheel.arm_ns", &arm),
        metric_of("runtime.wheel.cancel_ns", &cancel),
        metric_of("runtime.wheel.expire_ns", &expire),
        metric_of("runtime.shared.advance_ns_per_expiry", &advance),
    ])
}

/// `runtime.enact`: the dispatcher on a clean and a faulted pipeline.
fn enact_layer(smoke: bool) -> Probe {
    let steps = if smoke {
        32
    } else {
        enact_saga::PIPELINE_STEPS
    };
    let program =
        Program::compile(&ctr::gen::pipeline_workflow(steps)).map_err(|e| e.to_string())?;
    let mut step_us = Vec::new();
    let mut retry_us = Vec::new();
    let mut attempts_per_step = Vec::new();
    for rep in 0..REPS {
        let report = Enactor::new().run_report(&program);
        if !report.is_success() || report.completed.len() != steps {
            return Err("runtime.enact: the clean pipeline did not complete".to_owned());
        }
        step_us.push(report.elapsed.as_secs_f64() * 1e6 / steps as f64);
        let mut plan = FaultPlan::new(rep as u64);
        for i in (0..steps).step_by(8) {
            plan = plan.fail(format!("t{i}").as_str(), 1);
        }
        let report = Enactor::new()
            .with_default_retry(RetryPolicy::attempts(3))
            .with_faults(plan)
            .run_report(&program);
        if !report.is_success() {
            return Err("runtime.enact: the faulted pipeline did not recover".to_owned());
        }
        let failed: Vec<f64> = report
            .attempts
            .iter()
            .filter(|a| matches!(a.outcome, AttemptOutcome::Failed(_)))
            .map(|a| a.latency.as_secs_f64() * 1e6)
            .collect();
        retry_us.push(failed.iter().sum::<f64>() / failed.len().max(1) as f64);
        attempts_per_step.push(report.attempts.len() as f64 / steps as f64);
    }
    Ok(vec![
        metric_of("runtime.enact.step_us", &step_us),
        metric_of("runtime.enact.retry_us", &retry_us),
        metric_of("runtime.enact.attempts_per_step", &attempts_per_step),
    ])
}

// --- Store and wire ---------------------------------------------------------------

fn event_record(i: usize) -> Record {
    Record::Events {
        instance: (i % 64) as u64,
        events: vec!["l7_1".to_owned()],
    }
}

/// The value a power-of-two histogram's median lands on (lower bound of
/// its bucket).
fn hist_p50(hist: &[u64]) -> f64 {
    let total: u64 = hist.iter().sum();
    let mut seen = 0;
    for (bucket, count) in hist.iter().enumerate() {
        seen += count;
        if seen * 2 >= total && total > 0 {
            return (1u64 << bucket) as f64;
        }
    }
    0.0
}

/// `store.mem` and `store.wal`: appends under each durability, the
/// commit pipeline's own counters, replay and checkpoint.
fn store_layers(smoke: bool) -> Probe {
    let mem_records = if smoke { 2_000 } else { 100_000 };
    let mem = sample(|| {
        let store = MemStore::new();
        let t0 = Instant::now();
        for i in 0..mem_records {
            store.append(&event_record(i)).map_err(|e| e.to_string())?;
        }
        Ok(t0.elapsed().as_nanos() as f64 / mem_records as f64)
    })?;
    let mut out = vec![metric_of("store.mem.append_ns", &mem)];

    let open = |name: &str, durability: Durability, shards: usize| {
        let options = WalOptions {
            durability,
            shards,
            ..WalOptions::default()
        };
        WalStore::open_with(scratch_dir(name), options).map_err(|e| e.to_string())
    };
    let synced = if smoke { 24 } else { 200 };
    // How many records the last (periodic) log ended up holding.
    let mut relaxed = if smoke { 500 } else { 20_000 };
    for (mode, durability, records) in [
        ("strict", Durability::Strict, synced),
        ("coalesced", Durability::coalesced(), synced),
        ("periodic", Durability::periodic(), relaxed),
    ] {
        let mut micros = Vec::new();
        let mut stats = ctr_store::StoreStats::default();
        for _ in 0..REPS {
            let store = open(
                &format!("wal-{mode}"),
                durability,
                WalOptions::default().shards,
            )?;
            let t0 = Instant::now();
            let mut done = 0;
            while done < records && (done == 0 || t0.elapsed() < FSYNC_PROBE_BUDGET) {
                store
                    .append(&event_record(done))
                    .map_err(|e| e.to_string())?;
                done += 1;
            }
            micros.push(t0.elapsed().as_secs_f64() * 1e6 / done as f64);
            stats = store.stats();
            if mode == "periodic" {
                relaxed = done;
            }
        }
        // The commit pipeline's own counters, from the last repetition.
        if mode == "strict" {
            out.push(metric(
                "store.wal.fsync_p50_us",
                stats.fsync_p50_micros() as f64,
                records,
            ));
            out.push(metric(
                "store.wal.fsync_p99_us",
                stats.fsync_p99_micros() as f64,
                records,
            ));
        }
        if mode == "coalesced" {
            out.push(metric(
                "store.wal.fsyncs_per_record",
                stats.fsyncs as f64 / stats.appends.max(1) as f64,
                records,
            ));
        }
        out.push(metric_of(&format!("store.wal.append_us.{mode}"), &micros));
    }
    // The periodic log (flushed on drop) is the replay and checkpoint
    // subject.
    let dir = inputs::out_dir().join("probe").join("wal-periodic");
    out.push(metric(
        "store.wal.bytes_per_record",
        inputs::dir_bytes(&dir) as f64 / relaxed as f64,
        relaxed,
    ));
    // Open scans and verifies the log; replay hands the records back.
    let t0 = Instant::now();
    let store = WalStore::open(&dir).map_err(|e| e.to_string())?;
    let replay = store.replay().map_err(|e| e.to_string())?;
    let replay_ns = t0.elapsed().as_nanos() as f64;
    check(replay.records.len(), relaxed, "store.wal.replay")?;
    out.push(metric(
        "store.wal.replay_ns_per_record",
        replay_ns / relaxed as f64,
        relaxed,
    ));
    let snapshot = "ctr-runtime snapshot v1\n".repeat(if smoke { 100 } else { 4_000 });
    let t0 = Instant::now();
    store.checkpoint(&snapshot).map_err(|e| e.to_string())?;
    out.push(metric(
        "store.wal.checkpoint_ms",
        t0.elapsed().as_secs_f64() * 1e3,
        1,
    ));
    drop(store);
    out.push(metric(
        "store.wal.bytes_after_checkpoint",
        inputs::dir_bytes(&dir) as f64,
        1,
    ));

    // Group commit: every available driver thread appends to one stripe.
    let threads = crate::host::clients(2);
    let per_thread = if smoke { 16 } else { 150 };
    let store = open("wal-group", Durability::coalesced(), 1)?;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for i in 0..per_thread {
                    let _ = store.append(&event_record(i));
                }
            });
        }
    });
    let stats = store.stats();
    check(
        stats.appends as usize,
        threads * per_thread,
        "store.wal.group",
    )?;
    out.push(metric(
        "store.wal.group_frames_p50",
        hist_p50(&stats.group_size_hist),
        stats.fsyncs as usize,
    ));
    Ok(out)
}

/// `serve.protocol`: the codec alone.
fn protocol_layer(smoke: bool) -> Probe {
    let rounds = if smoke { 20_000 } else { 1_000_000 };
    let request = Request::Fire {
        instance: 123_456,
        event: "l12_1".to_owned(),
    };
    let response = Response::Status(WireStatus::Running);
    let mut request_payload = Vec::new();
    protocol::encode_request(&request, &mut request_payload);
    let mut response_payload = Vec::new();
    protocol::encode_response(&response, &mut response_payload);
    let mut buf = Vec::with_capacity(64);
    let per_round = |t0: Instant| Ok(t0.elapsed().as_nanos() as f64 / rounds as f64);
    let encode_request = sample(|| {
        let t0 = Instant::now();
        for _ in 0..rounds {
            buf.clear();
            protocol::encode_request(std::hint::black_box(&request), &mut buf);
        }
        per_round(t0)
    })?;
    let decode_request = sample(|| {
        let t0 = Instant::now();
        for _ in 0..rounds {
            let decoded = protocol::decode_request(std::hint::black_box(&request_payload));
            if std::hint::black_box(decoded).is_err() {
                return Err("serve.protocol: a request does not decode".to_owned());
            }
        }
        per_round(t0)
    })?;
    let encode_response = sample(|| {
        let t0 = Instant::now();
        for _ in 0..rounds {
            buf.clear();
            protocol::encode_response(std::hint::black_box(&response), &mut buf);
        }
        per_round(t0)
    })?;
    let decode_response = sample(|| {
        let t0 = Instant::now();
        for _ in 0..rounds {
            let decoded = protocol::decode_response(std::hint::black_box(&response_payload));
            if std::hint::black_box(decoded).is_err() {
                return Err("serve.protocol: a response does not decode".to_owned());
            }
        }
        per_round(t0)
    })?;
    if protocol::decode_request(&request_payload) != Ok(request)
        || protocol::decode_response(&response_payload) != Ok(response)
    {
        return Err("serve.protocol: the codec does not round-trip".to_owned());
    }
    Ok(vec![
        metric_of("serve.protocol.encode_request_ns", &encode_request),
        metric_of("serve.protocol.decode_request_ns", &decode_request),
        metric_of("serve.protocol.encode_response_ns", &encode_response),
        metric_of("serve.protocol.decode_response_ns", &decode_response),
        metric(
            "serve.protocol.request_bytes",
            (FRAME_HEADER + request_payload.len()) as f64,
            1,
        ),
        metric(
            "serve.protocol.response_bytes",
            (FRAME_HEADER + response_payload.len()) as f64,
            1,
        ),
    ])
}

/// `serve.socket.connect_us`: TCP connect to a listening server.
fn connect_layer(smoke: bool) -> Probe {
    let server = LocalServer::start()?;
    let connects = if smoke { 10 } else { 50 };
    let micros: Vec<f64> = (0..connects)
        .map(|_| {
            let t0 = Instant::now();
            let client = Client::connect(&server.addr).map_err(|e| e.to_string())?;
            let us = t0.elapsed().as_secs_f64() * 1e6;
            drop(client);
            Ok(us)
        })
        .collect::<Result<_, String>>()?;
    Ok(vec![metric_of("serve.socket.connect_us", &micros)])
}

/// A fixed arithmetic loop: how fast this host's CPU ran *this* run.
/// The sandbox's effective clock drifts by ±10 % between processes;
/// this makes the drift visible next to the numbers it moves.
pub fn host_spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0u64;
    for i in 0..50_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Every workload-independent per-layer metric.
pub fn probe_all(seed: u64, smoke: bool) -> Probe {
    let cfg = RunConfig {
        seed,
        seconds: 0.0,
        smoke,
    };
    let mut out = vec![metric("bench.host_spin_ms", host_spin_ms(), 1)];
    out.extend(compile_layers(&cfg)?);
    out.extend(verify_layers(&cfg)?);
    out.extend(scheduler_layer(smoke)?);
    out.extend(runtime_layers(seed, smoke)?);
    out.extend(wheel_layer(smoke)?);
    out.extend(enact_layer(smoke)?);
    out.extend(store_layers(smoke)?);
    out.extend(protocol_layer(smoke)?);
    out.extend(connect_layer(smoke)?);
    out.extend(ladder(seed, smoke)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;

    #[test]
    fn histogram_median_is_the_bucket_floor() {
        assert_eq!(hist_p50(&[10, 0, 0]), 1.0);
        assert_eq!(hist_p50(&[1, 1, 8]), 4.0);
        assert_eq!(hist_p50(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn ladder_bursts_cover_every_fire_once_in_order() {
        let script = LadderScript::new(3, true);
        let bursts = script.bursts(&script.fires);
        let mut next = vec![0usize; script.instances];
        let mut total = 0;
        for burst in &bursts {
            for &(inst, at, len) in burst {
                assert_eq!(at, next[inst as usize]);
                next[inst as usize] += len;
                total += len;
            }
            assert!(burst.len() <= WINDOW);
        }
        assert_eq!(total, script.fires.len());
        assert!(next
            .iter()
            .zip(&script.sequences)
            .all(|(n, s)| *n == s.len()));
    }

    #[test]
    fn probes_emit_every_workload_independent_per_layer_metric_once() {
        let metrics = probe_all(5, true).expect("probes run");
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a probe metric is reported twice");
        for layer in PER_LAYER {
            let from_workload = crate::report::GATED_EXTRAS
                .iter()
                .any(|g| g.name == layer.name)
                || layer.name.starts_with("trace.share.")
                || [
                    "bench.trace_overhead_share",
                    "bench.generator_cpu_share",
                    "bench.host_factor",
                ]
                .contains(&layer.name);
            assert_eq!(
                names.contains(&layer.name),
                !from_workload,
                "{} (probe vs workload-derived)",
                layer.name
            );
        }
        for m in &metrics {
            assert!(m.value().is_finite(), "{}", m.name);
            assert!(
                PER_LAYER.iter().any(|l| l.name == m.name),
                "{} is not in the catalogue",
                m.name
            );
        }
    }
}
