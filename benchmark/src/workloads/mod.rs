//! The seven named workloads and the loop that runs them.
//!
//! Every workload has the same shape. [`Workload::generate`] turns the
//! seed into inputs (pure, also saved under `out/inputs/`);
//! [`Workload::repetition`] builds **fresh state** (a new `Analyzer`,
//! runtime, `ctr serve` child or WAL directory), runs one fixed-size
//! closed-loop repetition against it and checks what came back against
//! the reference. A run is [`SETUP_SAMPLES`] set-up samples (one warm-up
//! each), then timed repetitions until `--seconds` have passed since the
//! first set-up began (never fewer than [`MIN_REPS`]), so a run takes
//! `--seconds` whatever its set-up costs. The work per repetition is
//! fixed by `(workload, seed, smoke)`, so exact-count metrics repeat
//! exactly whatever the clock does; every timing metric is the median
//! over repetitions, in **reference seconds**: each repetition's times
//! are divided by how much slower than the reference the host's memory
//! ran around it (`HostClock::factor`, `host::MemoryProbe`).

pub mod compile_scratch;
pub mod enact_saga;
pub mod fleet;
pub mod fleet_mem;
pub mod serve;
pub mod verify_session;

use crate::host::{self, MemoryProbe};
use crate::json::Value;
use crate::report;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use std::time::Instant;

/// Fewest timed repetitions a run reports on.
pub const MIN_REPS: usize = 7;
/// Most timed repetitions.
const MAX_REPS: usize = 256;
/// Most latency samples a repetition keeps ([`Rep::thin_latencies`]).
const KEPT_SAMPLES: usize = 1 << 12;
/// Set-up samples per run; `setup_s` is their median. The first second
/// of a process runs up to 3× slower here than the rest of it (a vCPU
/// coming out of idle), so the median has to sit clear of the first
/// sample or two.
pub const SETUP_SAMPLES: usize = 5;

/// The workload names, in report order. Later issues cite these.
pub const WORKLOADS: [&str; 7] = [
    "compile_scratch",
    "verify_session",
    "fleet_mem",
    "serve_pipelined",
    "serve_rtt",
    "serve_durable",
    "enact_saga",
];

/// Workloads that run confined to one CPU (`host::confine_to_one_cpu`):
/// the ones that hand work between threads or processes, because where
/// the guest's scheduler puts the two ends is then most of the number.
///
/// `serve_rtt` and `enact_saga` put a thread to sleep and wake another
/// once per op — a socket round trip, a worker thread per attempt — and
/// on this VM waking a halted vCPU costs 30–50 µs, or 3 µs when anything
/// else keeps it awake: the same binary measures 19 k or 130 k round
/// trips per second. `serve_pipelined`'s client and server, and the
/// threads `compile_scratch`'s `Apply` fans out to, are the same speed
/// or faster on one vCPU than on two (1.5 M against 1.5 M requests/s,
/// 900 against 570 specs/s: the two vCPUs behave like two hyperthreads
/// of one core), and ten seeds spread by 8 % and 9 % on one against
/// 31–46 % and 30 % on two (`results/README.md`). On one CPU the threads
/// take turns, the CPU never idles, and the number is the program's.
pub const ONE_CPU: [&str; 4] = [
    "compile_scratch",
    "serve_pipelined",
    "serve_rtt",
    "enact_saga",
];

/// Why each workload exists, one line each (`BENCHMARK.json: workloads`).
pub const WHY: [&str; 7] = [
    "designer's cold path: 43 seeded specs parsed, lowered, compiled untabled (Apply/Excise, Thm 5.11) and built into a Program, on one CPU; runtime, store and serve do nothing",
    "designer's warm path: four Analyzer sessions under a seeded edit/query script, 70% tail edits (table hits), 30% head edits (prefix lost); compile_scratch's rules through the table",
    "embedder's path: 16384 resident instances in a store-less SharedRuntime, 2 driver threads, start/fire/eligible/refusal/advance/try_complete in random instance order; scheduler and runtime only",
    "operator, codec-bound: ctr serve child without a store, 1 connection at depth 128 over 8 hot instances, both ends on one CPU; protocol decode/encode and burst coalescing into fire_runs dominate",
    "operator, round-trip-bound: ctr serve child without a store, one request per round trip, both ends on one CPU; syscalls, context switches and per-frame fixed cost dominate, the codec does little",
    "operator, production shape: ctr serve --store --durability coalesced at depth 128 on the real disk, each WAL recovered in a fresh process and compared with the acks; the store does most of the work",
    "fault-tolerant dispatcher: Enactor::run_report over a 256-step pipeline and payment_saga on one CPU, every third run with fail-once faults; an OS thread per attempt: shows the worker-pool decision",
];

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Wall-clock budget for the timed repetitions.
    pub seconds: f64,
    /// ~1/50 size, same checks.
    pub smoke: bool,
}

/// One repetition's measurements.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Seconds spent building fresh state before the timed region.
    pub prepare_s: f64,
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    /// User+system CPU seconds of the process under test over the timed
    /// region.
    pub cpu_s: f64,
    /// Operations attempted in the timed region.
    pub ops: u64,
    /// Operations that errored, were refused when they should not have
    /// been, or whose output disagreed with the reference.
    pub failed: u64,
    /// Sampled per-op latencies, nanoseconds.
    pub lat_ns: Vec<u32>,
    /// Peak RSS of the process under test, when it lives and dies with
    /// the repetition (a `ctr serve` child).
    pub peak_rss_mib: Option<f64>,
    /// CPU seconds the load generator itself burned (socket workloads).
    pub generator_cpu_s: f64,
    /// Workload-specific per-repetition values (`output_nodes`,
    /// `wire_bytes_per_op`, …).
    pub extra: Vec<(&'static str, f64)>,
    /// What [`Rep::calibrate`] divided the times by (0 before it ran).
    pub host_factor: f64,
}

impl Rep {
    /// Turns the repetition's times into reference seconds: divides
    /// every one of them by `factor`, how many times slower than the
    /// reference the host's memory ran around the repetition.
    fn calibrate(&mut self, factor: f64) {
        for seconds in [
            &mut self.prepare_s,
            &mut self.wall_s,
            &mut self.cpu_s,
            &mut self.generator_cpu_s,
        ] {
            *seconds /= factor;
        }
        for ns in &mut self.lat_ns {
            *ns = (f64::from(*ns) / factor).min(f64::from(u32::MAX)) as u32;
        }
        for (name, value) in &mut self.extra {
            if report::unit_of(name) == "s" {
                *value /= factor;
            }
        }
        self.host_factor = factor;
    }

    /// Sorts the latency samples and, beyond [`KEPT_SAMPLES`], keeps an
    /// evenly spaced subset of the sorted ones. Quantiles survive, and
    /// what a run holds no longer grows with its length: at depth 128 a
    /// socket repetition samples a million requests, and for the
    /// in-process workloads the samples count towards `peak_rss_mb`.
    fn thin_latencies(&mut self) {
        self.lat_ns.sort_unstable();
        let n = self.lat_ns.len();
        if n > KEPT_SAMPLES {
            let kept: Vec<u32> = (0..KEPT_SAMPLES)
                .map(|i| self.lat_ns[(2 * i + 1) * n / (2 * KEPT_SAMPLES)])
                .collect();
            self.lat_ns = kept;
        }
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Inputs from the seed; pure and cheap enough to repeat per set-up
    /// sample. Saves them under `out/inputs/<name>/`.
    fn generate(cfg: &RunConfig) -> Self
    where
        Self: Sized;

    /// Computes the reference outputs the repetitions are checked
    /// against. Untimed; called once per run, before the timed
    /// repetitions.
    fn reference(&mut self);

    /// Fresh state, one repetition, outputs checked against the
    /// reference (a warm-up before [`Workload::reference`] ran checks
    /// only what needs no reference).
    fn repetition(&mut self, tracer: &mut Tracer) -> Rep;

    /// Client threads/connections the workload ran with.
    fn clients(&self) -> usize {
        1
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit string (`us`, `1/s`, `MiB`, `count`, …).
    pub unit: &'static str,
    /// `n`, median and quartiles of the samples behind it.
    pub summary: Summary,
}

impl Metric {
    /// A metric over per-repetition samples.
    pub fn of(name: &str, unit: &'static str, samples: &[f64]) -> Option<Metric> {
        Some(Metric {
            name: name.to_owned(),
            unit,
            summary: Summary::of(samples)?,
        })
    }

    /// A metric with one value and the number of samples behind it.
    pub fn single(name: &str, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.to_owned(),
            unit,
            summary: Summary {
                n,
                q1: value,
                median: value,
                q3: value,
            },
        }
    }

    /// The reported value.
    pub fn value(&self) -> f64 {
        self.summary.median
    }

    /// `{"name", "unit", "n", "median", "q1", "q3"}`.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("name", self.name.as_str())
            .with("unit", self.unit)
            .with("n", self.summary.n)
            .with("median", self.summary.median)
            .with("q1", self.summary.q1)
            .with("q3", self.summary.q3)
    }
}

/// Everything one untraced run of one workload measured.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Client threads/connections used (≤ nproc).
    pub clients: usize,
    /// Operations attempted over all timed repetitions.
    pub attempted: u64,
    /// Operations failed, reference mismatches included.
    pub failed: u64,
    /// The metrics, end-to-end first.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Metric lookup.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The workload's row in a result file.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("workload", self.workload)
            .with("clients", self.clients)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "metrics",
                self.metrics.iter().map(Metric::to_json).collect::<Vec<_>>(),
            )
    }
}

/// CPU seconds this process has used so far.
pub fn self_cpu_s() -> f64 {
    host::cpu_seconds(std::process::id()).unwrap_or(0.0)
}

/// Records every `every`-th operation's latency: timing each op of a
/// 100 ns operation would measure the clock, not the operation.
pub struct LatencySampler {
    every: u32,
    countdown: u32,
    /// The samples, nanoseconds.
    pub samples: Vec<u32>,
}

impl LatencySampler {
    /// Samples one op in `every` (1 = all).
    pub fn new(every: u32, capacity: usize) -> LatencySampler {
        LatencySampler {
            every: every.max(1),
            countdown: 0,
            samples: Vec::with_capacity(capacity / every.max(1) as usize + 1),
        }
    }

    /// Runs `f`, timing it if this op is a sampled one.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.countdown == 0 {
            self.countdown = self.every - 1;
            let t0 = Instant::now();
            let out = f();
            self.samples
                .push(t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
            out
        } else {
            self.countdown -= 1;
            f()
        }
    }
}

/// Set-up samples plus timed repetitions of one workload.
pub struct Measured<W> {
    /// The workload after its last repetition.
    pub workload: W,
    /// `generate + prepare + warm-up` reference seconds, one per set-up
    /// sample.
    pub setup_s: Vec<f64>,
    /// The timed repetitions.
    pub reps: Vec<Rep>,
    clock: HostClock,
}

impl<W: Workload> Measured<W> {
    /// One more repetition, its times in reference seconds
    /// ([`HostClock::factor`]).
    pub fn repetition(&mut self, tracer: &mut Tracer) -> Rep {
        let mut rep = self.workload.repetition(tracer);
        rep.thin_latencies();
        rep.calibrate(self.clock.factor());
        rep
    }
}

/// The memory probe and its last reading.
struct HostClock {
    probe: MemoryProbe,
    last_ns: f64,
}

impl HostClock {
    fn start() -> HostClock {
        let mut probe = MemoryProbe::new();
        let last_ns = probe.ns_per_load();
        HostClock { probe, last_ns }
    }

    /// Reads the probe and returns how many times slower than the
    /// reference the host's memory ran since the last reading: the mean
    /// of the two readings over [`MemoryProbe::REFERENCE_NS`]. Times
    /// divided by it are in reference seconds. This box's memory slows
    /// down and recovers over seconds and over minutes, every workload
    /// with it: ten seeds of `fleet_mem` spread by 16 % in raw seconds
    /// and by 8 % in reference seconds (`results/README.md`).
    fn factor(&mut self) -> f64 {
        let before = self.last_ns;
        self.last_ns = self.probe.ns_per_load();
        (before + self.last_ns) / 2.0 / MemoryProbe::REFERENCE_NS
    }
}

/// How much a run measures around its time budget.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Set-up samples (`setup_s` is their median).
    pub setup_samples: usize,
    /// Fewest timed repetitions.
    pub min_reps: usize,
}

impl Effort {
    /// The untraced run: [`SETUP_SAMPLES`] set-ups, [`MIN_REPS`]
    /// repetitions (one and two at smoke size).
    pub fn full(cfg: &RunConfig) -> Effort {
        if cfg.smoke {
            Effort {
                setup_samples: 1,
                min_reps: 2,
            }
        } else {
            Effort {
                setup_samples: SETUP_SAMPLES,
                min_reps: MIN_REPS,
            }
        }
    }

    /// The untraced baseline inside a traced run: just enough for the
    /// overhead ratio and the exact counts.
    pub fn baseline(cfg: &RunConfig) -> Effort {
        Effort {
            setup_samples: 1,
            min_reps: if cfg.smoke { 1 } else { 3 },
        }
    }
}

/// Runs the set-up samples and the timed repetitions of `W`, together
/// `cfg.seconds` long.
pub fn measure<W: Workload>(cfg: &RunConfig, effort: Effort, tracer: &mut Tracer) -> Measured<W> {
    let started = Instant::now();
    let mut clock = HostClock::start();
    let mut setup_s = Vec::with_capacity(effort.setup_samples);
    let mut workload: Option<W> = None;
    let samples = effort.setup_samples;
    for sample in 0..samples {
        // Drop the previous sample's state before timing the next one.
        drop(workload.take());
        let t0 = Instant::now();
        let mut w = W::generate(cfg);
        let generate_s = t0.elapsed().as_secs_f64();
        // The reference is the referee, not part of the system's set-up;
        // only the sample the timed repetitions reuse needs one.
        if sample + 1 == samples {
            w.reference();
        }
        let warmup = w.repetition(&mut Tracer::off());
        setup_s.push((generate_s + warmup.prepare_s + warmup.wall_s) / clock.factor());
        workload = Some(w);
    }
    let mut measured = Measured {
        workload: workload.expect("at least one set-up sample"),
        setup_s,
        reps: Vec::new(),
        clock,
    };
    // From here on the peak RSS is the timed repetitions' own.
    host::reset_own_peak_rss();
    while measured.reps.len() < effort.min_reps
        || (started.elapsed().as_secs_f64() < cfg.seconds && measured.reps.len() < MAX_REPS)
    {
        let rep = measured.repetition(tracer);
        measured.reps.push(rep);
    }
    measured
}

/// Folds set-up samples and repetitions into the end-to-end metrics
/// every workload reports, then appends the workload's own.
pub fn summarise<W: Workload>(name: &'static str, measured: &Measured<W>) -> RunResult {
    let reps = &measured.reps;
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let mut metrics = Vec::new();
    metrics.extend(Metric::of("setup_s", "s", &measured.setup_s));
    metrics.extend(Metric::of(
        "ops_per_s",
        "1/s",
        &per_rep(&|r| r.ops as f64 / r.wall_s),
    ));
    let p50s: Vec<f64> = reps
        .iter()
        .filter_map(|r| {
            // Sorted by `Rep::thin_latencies`.
            stats::percentile_sorted(&r.lat_ns, 50.0).map(|ns| f64::from(ns) / 1e3)
        })
        .collect();
    metrics.extend(Metric::of("op_p50_us", "us", &p50s));
    let mut all: Vec<u32> = reps.iter().flat_map(|r| r.lat_ns.iter().copied()).collect();
    all.sort_unstable();
    if all.len() >= stats::samples_needed(99.0) {
        let p99 = stats::percentile_sorted(&all, 99.0).expect("non-empty");
        metrics.push(Metric::single(
            "op_p99_us",
            "us",
            f64::from(p99) / 1e3,
            all.len(),
        ));
    }
    metrics.extend(Metric::of(
        "cpu_us_per_op",
        "us",
        &per_rep(&|r| r.cpu_s * 1e6 / r.ops as f64),
    ));
    let child_rss: Vec<f64> = reps.iter().filter_map(|r| r.peak_rss_mib).collect();
    if child_rss.is_empty() {
        // The probe's array was resident before the peak was reset and
        // still is: the rest is the workload's.
        let own = host::peak_rss_mib(std::process::id()).unwrap_or(0.0)
            - MemoryProbe::BYTES as f64 / (1 << 20) as f64;
        metrics.push(Metric::single("peak_rss_mb", "MiB", own, 1));
    } else {
        metrics.extend(Metric::of("peak_rss_mb", "MiB", &child_rss));
    }
    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    // Workload-specific per-repetition metrics, in first-seen order.
    let mut extra_names: Vec<&'static str> = Vec::new();
    for rep in reps {
        for (name, _) in &rep.extra {
            if !extra_names.contains(name) {
                extra_names.push(name);
            }
        }
    }
    for extra in extra_names {
        let samples: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.extra.iter().find(|(n, _)| *n == extra).map(|(_, v)| *v))
            .collect();
        metrics.extend(Metric::of(extra, report::unit_of(extra), &samples));
    }
    let generator_cpu: f64 = reps.iter().map(|r| r.generator_cpu_s).sum();
    let total_cpu: f64 = generator_cpu + reps.iter().map(|r| r.cpu_s).sum::<f64>();
    if generator_cpu > 0.0 && total_cpu > 0.0 {
        metrics.push(Metric::single(
            "bench.generator_cpu_share",
            "ratio",
            generator_cpu / total_cpu,
            reps.len(),
        ));
    }
    metrics.extend(Metric::of(
        "bench.host_factor",
        "ratio",
        &per_rep(&|r| r.host_factor),
    ));
    metrics.push(Metric::single(
        "fail_share",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
        attempted as usize,
    ));
    RunResult {
        workload: name,
        clients: measured.workload.clients(),
        attempted,
        failed,
        metrics,
    }
}

/// Calls `$body` with `$W` bound to the workload type named `$name`.
macro_rules! with_workload {
    ($name:expr, $W:ident => $body:expr) => {
        match $name {
            "compile_scratch" => {
                type $W = compile_scratch::CompileScratch;
                Ok($body)
            }
            "verify_session" => {
                type $W = verify_session::VerifySession;
                Ok($body)
            }
            "fleet_mem" => {
                type $W = fleet_mem::FleetMem;
                Ok($body)
            }
            "serve_pipelined" => {
                type $W = serve::ServePipelined;
                Ok($body)
            }
            "serve_rtt" => {
                type $W = serve::ServeRtt;
                Ok($body)
            }
            "serve_durable" => {
                type $W = serve::ServeDurable;
                Ok($body)
            }
            "enact_saga" => {
                type $W = enact_saga::EnactSaga;
                Ok($body)
            }
            other => Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            )),
        }
    };
}

fn canonical(name: &str) -> &'static str {
    WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == name)
        .expect("checked by with_workload")
}

/// Runs one workload by name, untraced: the end-to-end numbers.
pub fn run_by_name(name: &str, cfg: &RunConfig) -> Result<RunResult, String> {
    with_workload!(name, W => {
        let measured = measure::<W>(cfg, Effort::full(cfg), &mut Tracer::off());
        summarise(canonical(name), &measured)
    })
}

/// What the traced run of one workload adds to the probes: the
/// workload's own exact counts (from a short untraced baseline), where
/// its traced time went, and what tracing cost.
pub struct TracedRun {
    /// The short untraced baseline.
    pub baseline: RunResult,
    /// `trace.share.*`, `bench.trace_overhead_share`.
    pub metrics: Vec<Metric>,
    /// The spans, for `out/trace-<workload>.json`.
    pub tracer: Tracer,
}

fn trace_one<W: Workload>(name: &'static str, cfg: &RunConfig) -> TracedRun {
    let budget = RunConfig {
        seconds: cfg.seconds * 0.25,
        ..*cfg
    };
    let mut measured = measure::<W>(&budget, Effort::baseline(cfg), &mut Tracer::off());
    let baseline = summarise(name, &measured);
    let mut tracer = Tracer::on(Instant::now());
    let traced: Vec<Rep> = (0..Effort::baseline(cfg).min_reps)
        .map(|_| measured.repetition(&mut tracer))
        .collect();
    let rate = |reps: &[Rep]| {
        stats::median(
            &reps
                .iter()
                .map(|r| r.ops as f64 / r.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let overhead = 1.0 - rate(&traced) / rate(&measured.reps);
    let mut metrics = vec![Metric::single(
        "bench.trace_overhead_share",
        "ratio",
        overhead,
        traced.len(),
    )];
    let spans = tracer.layer("op").spans as usize;
    for (metric, prefixes) in [
        ("trace.share.parser", &["parser"][..]),
        ("trace.share.workflow", &["workflow"]),
        ("trace.share.core", &["core."]),
        ("trace.share.engine", &["engine."]),
        ("trace.share.runtime", &["runtime."]),
        ("trace.share.serve_client", &["serve.client"]),
        ("trace.share.harness", &["op"]),
    ] {
        metrics.push(Metric::single(
            metric,
            "ratio",
            tracer.self_share(prefixes),
            spans,
        ));
    }
    let failed: u64 = traced.iter().map(|r| r.failed).sum();
    let mut baseline = baseline;
    baseline.failed += failed;
    baseline.attempted += traced.iter().map(|r| r.ops).sum::<u64>();
    TracedRun {
        baseline,
        metrics,
        tracer,
    }
}

/// Runs one workload by name under the tracer.
pub fn trace_by_name(name: &str, cfg: &RunConfig) -> Result<TracedRun, String> {
    with_workload!(name, W => trace_one::<W>(canonical(name), cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_times_and_leaves_counts() {
        let mut rep = Rep {
            wall_s: 2.0,
            cpu_s: 1.0,
            ops: 10,
            lat_ns: vec![100, 300],
            extra: vec![("recover_s", 0.5), ("output_nodes", 7.0)],
            ..Rep::default()
        };
        rep.calibrate(2.0);
        assert_eq!((rep.wall_s, rep.cpu_s, rep.ops), (1.0, 0.5, 10));
        assert_eq!(rep.lat_ns, [50, 150]);
        assert_eq!(rep.extra, [("recover_s", 0.25), ("output_nodes", 7.0)]);
        assert_eq!(rep.host_factor, 2.0);
    }

    #[test]
    fn thinning_keeps_the_quantiles() {
        let n = 10 * KEPT_SAMPLES as u32;
        let mut rep = Rep {
            lat_ns: (0..n).rev().collect(),
            ..Rep::default()
        };
        rep.thin_latencies();
        assert_eq!(rep.lat_ns.len(), KEPT_SAMPLES);
        for percentile in [1.0, 50.0, 99.0] {
            let kept = stats::percentile_sorted(&rep.lat_ns, percentile).unwrap();
            let exact = (percentile / 100.0 * f64::from(n)) as u32;
            assert!(
                kept.abs_diff(exact) <= 10,
                "{percentile}: {kept} vs {exact}"
            );
        }
    }
}
