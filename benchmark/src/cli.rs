//! Command line of `ctr-bench`.
//!
//! ```text
//! ctr-bench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! ctr-bench run     [--seed N] [--seconds S] [--smoke] [--workload W]… [--out FILE]
//! ctr-bench trace   [--seed N] [--seconds S] [--smoke] [--workload W]… [--out FILE]
//! ctr-bench compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` runs. Hidden
//! forms serve the benchmark itself: `__ctr …` is the `ctr` command
//! line (the `ctr serve` child of the socket workloads),
//! `__recover <dir>` reopens a WAL in a fresh process, `__one` is how
//! `run` and `trace` give every workload a fresh process, and
//! `__benchmark-json` prints `BENCHMARK.json` from the catalogue.

use crate::alloc;
use crate::compare;
use crate::host::{self, HostFacts};
use crate::inputs;
use crate::json::{self, Value};
use crate::layers;
use crate::report::{self, END_TO_END, LADDER_RUNGS, PER_LAYER};
use crate::workloads::{self, Metric, RunConfig, RunResult, WORKLOADS};
use std::path::{Path, PathBuf};

const USAGE: &str = "\
ctr-bench — the repository's benchmark

USAGE:
    ctr-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
        one workload; the last line of output is the JSON result
    ctr-bench run   [--seed N] [--seconds S] [--smoke] [--workload W]... [--out FILE]
        every workload untraced: the end-to-end metrics, outputs checked
    ctr-bench trace [--seed N] [--seconds S] [--smoke] [--workload W]... [--out FILE]
        the traced run: per-layer metrics, the ladder, trace files
    ctr-bench compare <a.json> <b.json>
        same / better / worse / unresolved per (workload, metric); exit 1 on worse

WORKLOADS:
    compile_scratch verify_session fleet_mem serve_pipelined serve_rtt
    serve_durable enact_saga
";

/// Seconds per workload when `run`/`trace` are not told otherwise, at
/// full and at smoke size.
const DEFAULT_SECONDS: (f64, f64) = (12.0, 1.0);

struct Options {
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    workloads: Vec<String>,
    out: Option<PathBuf>,
    trace: Option<bool>,
    row_out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        seed: 1,
        seconds: None,
        smoke: false,
        workloads: Vec::new(),
        out: None,
        trace: None,
        row_out: None,
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || -> Result<&String, String> {
            i += 1;
            args.get(i).ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--seed" => {
                options.seed = value()?
                    .parse()
                    .map_err(|_| "--seed wants a whole number")?
            }
            "--seconds" => {
                let seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds wants a non-negative number")?;
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".to_owned()),
                });
            }
            "--workload" => options.workloads.push(value()?.clone()),
            "--out" => options.out = Some(PathBuf::from(value()?)),
            "--row-out" => options.row_out = Some(PathBuf::from(value()?)),
            "--smoke" => options.smoke = true,
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => options.positional.push(other.to_owned()),
        }
        i += 1;
    }
    for w in &options.workloads {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(options)
}

impl Options {
    fn config(&self) -> RunConfig {
        RunConfig {
            seed: self.seed,
            seconds: self.seconds.unwrap_or(if self.smoke {
                DEFAULT_SECONDS.1
            } else {
                DEFAULT_SECONDS.0
            }),
            smoke: self.smoke,
        }
    }

    fn selected(&self) -> Vec<&str> {
        if self.workloads.is_empty() {
            WORKLOADS.to_vec()
        } else {
            self.workloads.iter().map(String::as_str).collect()
        }
    }
}

/// The traced sibling of this executable, built next to it.
fn traced_sibling() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let sibling = exe.with_file_name("ctr-bench-traced");
    sibling.exists().then_some(sibling)
}

/// Replaces this process with the traced binary: only it carries the
/// counting allocator the ladder's `allocs_per_fire` needs.
fn exec_traced(args: &[String]) -> String {
    use std::os::unix::process::CommandExt as _;
    match traced_sibling() {
        Some(sibling) => {
            let error = std::process::Command::new(sibling).args(args).exec();
            format!("cannot exec ctr-bench-traced: {error}")
        }
        None => "the traced run needs the `ctr-bench-traced` binary next to this one: build with \
                 `cargo build --release --manifest-path benchmark/Cargo.toml --bins` \
                 (benchmark/run.sh does), or run `cargo run --release --manifest-path \
                 benchmark/Cargo.toml --bin ctr-bench-traced -- trace`"
            .to_owned(),
    }
}

fn write_file(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, value.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn host_facts() -> HostFacts {
    let wal_parent = inputs::out_dir();
    let _ = std::fs::create_dir_all(&wal_parent);
    HostFacts::collect(&wal_parent)
}

/// The traced run of one workload: its own trace plus every probe.
fn traced(workload: &str, cfg: &RunConfig) -> Result<(RunResult, Vec<Metric>), String> {
    let run = workloads::trace_by_name(workload, cfg)?;
    write_file(
        &inputs::out_dir().join(format!("trace-{workload}.json")),
        &run.tracer.to_json(workload),
    )?;
    let mut metrics = run.metrics;
    // The workload-specific end-to-end metrics ride along (see
    // `report::GATED_EXTRAS`).
    for extra in &run.baseline.metrics {
        if PER_LAYER.iter().any(|l| l.name == extra.name) {
            metrics.push(extra.clone());
        }
    }
    Ok((run.baseline, metrics))
}

/// The driver-facing mode: one workload, one JSON line.
fn driver(options: &Options) -> Result<i32, String> {
    let [workload] = options.workloads.as_slice() else {
        return Err("give exactly one --workload".to_owned());
    };
    let cfg = options.config();
    if options.trace == Some(true) {
        let (baseline, mut metrics) = traced(workload, &cfg)?;
        let mut failed = baseline.failed;
        match layers::probe_all(cfg.seed, cfg.smoke) {
            Ok(probes) => metrics.extend(probes),
            Err(message) => {
                eprintln!("probe failed: {message}");
                failed += 1;
            }
        }
        let wanted: Vec<(&str, &str)> = PER_LAYER.iter().map(|l| (l.name, l.unit)).collect();
        print_metrics(&metrics);
        println!(
            "{}",
            report::driver_line(baseline.attempted, failed, &wanted, &metrics)
        );
        Ok(i32::from(failed > 0))
    } else {
        let result = workloads::run_by_name(workload, &cfg)?;
        print!("{}", report::table(&result));
        let wanted = END_TO_END.map(|m| (m.name, m.unit));
        println!(
            "{}",
            report::driver_line(result.attempted, result.failed, &wanted, &result.metrics)
        );
        Ok(i32::from(result.failed > 0))
    }
}

fn print_metrics(metrics: &[Metric]) {
    print!("{}", report::rows(metrics));
}

/// `__one <run|trace>`: one workload in this process, its table on
/// stdout and its result-file row in `--row-out`.
fn one(options: &Options) -> Result<i32, String> {
    let ([_, mode], [workload], Some(row_out)) = (
        options.positional.as_slice(),
        options.workloads.as_slice(),
        &options.row_out,
    ) else {
        return Err("__one wants a mode, one --workload and --row-out".to_owned());
    };
    let cfg = options.config();
    let row = match mode.as_str() {
        "run" => {
            let result = workloads::run_by_name(workload, &cfg)?;
            print!("{}", report::table(&result));
            result
        }
        "trace" => {
            let (baseline, metrics) = traced(workload, &cfg)?;
            println!("## {workload} (traced)");
            print_metrics(&metrics);
            RunResult {
                metrics,
                ..baseline
            }
        }
        other => return Err(format!("unknown mode `{other}`")),
    };
    write_file(row_out, &row.to_json())?;
    Ok(i32::from(row.failed > 0))
}

/// Runs one workload in a **fresh process** (`__one`) and returns its
/// result-file row: a workload must not inherit the previous one's heap
/// (`peak_rss_mb`), interned symbols or warmed caches.
fn in_fresh_process(mode: &str, workload: &str, options: &Options) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let row_path = inputs::out_dir().join(format!("row-{}-{workload}.json", std::process::id()));
    let mut command = std::process::Command::new(exe);
    command
        .args(["__one", mode, "--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.config().seconds.to_string()])
        .arg("--row-out")
        .arg(&row_path);
    if options.smoke {
        command.arg("--smoke");
    }
    let status = command
        .status()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let text = std::fs::read_to_string(&row_path);
    let _ = std::fs::remove_file(&row_path);
    match text {
        Ok(text) => json::parse(&text),
        Err(_) => Err(format!("{workload} ended with {status} and left no result")),
    }
}

fn failed_in(rows: &[Value]) -> u64 {
    rows.iter()
        .filter_map(|row| row.get("failed").and_then(Value::as_f64))
        .sum::<f64>() as u64
}

fn run(options: &Options) -> Result<i32, String> {
    let host = host_facts();
    let cfg = options.config();
    let mut rows = Vec::new();
    for workload in options.selected() {
        rows.push(in_fresh_process("run", workload, options)?);
    }
    let failed = failed_in(&rows);
    let file = report::result_file(&host, "run", cfg.seed, cfg.smoke, rows);
    let out = options
        .out
        .clone()
        .unwrap_or_else(|| inputs::out_dir().join(format!("run-seed{}.json", cfg.seed)));
    write_file(&out, &file)?;
    println!("wrote {}", out.display());
    if failed > 0 {
        eprintln!("{failed} operation(s) failed or disagreed with the reference");
    }
    Ok(i32::from(failed > 0))
}

/// The ladder as a table: each rung with its delta over the rung it
/// stands on (the store and socket rungs branch off the runtime ones).
fn ladder_table(metrics: &[Metric]) -> String {
    use std::fmt::Write as _;
    let ns = |rung: &str| {
        let name = format!("ladder.{rung}.ns_per_fire");
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, Metric::value)
    };
    let mut out = String::from("## ladder (one script through every rung)\n");
    for (rung, base) in LADDER_RUNGS.iter().zip(report::LADDER_BASES) {
        let allocs = format!("ladder.{rung}.allocs_per_fire");
        let allocs = metrics
            .iter()
            .find(|m| m.name == allocs)
            .map_or(0.0, Metric::value);
        let delta = ns(rung) - base.map_or(0.0, ns);
        let _ = writeln!(
            out,
            "  {rung:<22} {:>12.1} ns/fire  {delta:>+12.1} over {:<20} {allocs:>8.2} allocs/fire",
            ns(rung),
            base.unwrap_or("nothing"),
        );
    }
    out
}

fn trace(options: &Options) -> Result<i32, String> {
    let host = host_facts();
    let cfg = options.config();
    let mut rows = Vec::new();
    for workload in options.selected() {
        rows.push(in_fresh_process("trace", workload, options)?);
    }
    let mut failed = failed_in(&rows);
    // The probes do not depend on the workload: run them once.
    match layers::probe_all(cfg.seed, cfg.smoke) {
        Ok(probes) => {
            println!("## layers (the probes; the same for every workload)");
            print_metrics(&probes);
            print!("{}", ladder_table(&probes));
            let layers = RunResult {
                workload: "layers",
                clients: 1,
                attempted: 0,
                failed: 0,
                metrics: probes,
            };
            rows.push(layers.to_json());
        }
        Err(message) => {
            eprintln!("probe failed: {message}");
            failed += 1;
        }
    }
    let file = report::result_file(&host, "trace", cfg.seed, cfg.smoke, rows);
    let out = options
        .out
        .clone()
        .unwrap_or_else(|| inputs::out_dir().join(format!("trace-seed{}.json", cfg.seed)));
    write_file(&out, &file)?;
    println!("wrote {}", out.display());
    Ok(i32::from(failed > 0))
}

fn compare_files(options: &Options) -> Result<i32, String> {
    let [_, a, b] = options.positional.as_slice() else {
        return Err("compare wants two result files".to_owned());
    };
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    let (report, any_worse) = compare::compare(&read(Path::new(a))?, &read(Path::new(b))?)?;
    print!("{report}");
    Ok(i32::from(any_worse))
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("__ctr") => {
            return match ctr_cli::run(&args[1..]) {
                Ok(report) => {
                    print!("{report}");
                    0
                }
                Err(e) => {
                    eprint!("{}", e.message);
                    if !e.message.ends_with('\n') {
                        eprintln!();
                    }
                    e.code
                }
            };
        }
        Some("__benchmark-json") => {
            print!("{}", report::benchmark_json());
            return 0;
        }
        Some("__recover") => {
            return match args.get(1) {
                Some(dir) => workloads::serve::recover_main(dir),
                None => 2,
            };
        }
        _ => {}
    }
    let options = match parse(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n\n{USAGE}");
            return 2;
        }
    };
    let command = options.positional.first().map(String::as_str);
    let wants_trace =
        command == Some("trace") || (command.is_none() && options.trace == Some(true));
    if wants_trace && !alloc::installed() {
        eprintln!("{}", exec_traced(args));
        return 2;
    }
    // `driver` and `__one` run one workload in this process.
    if matches!(command, None | Some("__one")) && host::nproc() > 1 {
        if let [workload] = options.workloads.as_slice() {
            if workloads::ONE_CPU.contains(&workload.as_str()) {
                eprintln!(
                    "{workload} runs unconfined: {}",
                    host::confine_to_one_cpu(args)
                );
            }
        }
    }
    let outcome = match command {
        None if options.trace.is_some() => driver(&options),
        Some("run") => run(&options),
        Some("__one") => one(&options),
        Some("trace") => trace(&options),
        Some("compare") => compare_files(&options),
        _ => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ctr-bench: {message}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_driver_flags_parse_in_any_order() {
        let o = parse(&args(
            "--trace 0 --seconds 10 --workload serve_rtt --seed 42",
        ))
        .unwrap();
        assert_eq!(
            (o.seed, o.config().seconds, o.trace, o.smoke),
            (42, 10.0, Some(false), false)
        );
        assert_eq!(o.workloads, ["serve_rtt"]);
        assert!(o.positional.is_empty());
        let o = parse(&args(
            "run --smoke --seed 3 --workload fleet_mem --workload enact_saga",
        ))
        .unwrap();
        assert!(o.smoke);
        assert_eq!(o.config().seconds, DEFAULT_SECONDS.1);
        assert_eq!(o.selected(), ["fleet_mem", "enact_saga"]);
        assert_eq!(parse(&args("run")).unwrap().selected(), WORKLOADS);
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed x")).is_err());
        assert!(parse(&args("--seconds -1")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
        assert_eq!(main(&args("frobnicate")), 2);
        assert_eq!(main(&args("compare only-one.json")), 2);
    }

    #[test]
    fn the_ladder_table_shows_deltas() {
        let metrics = vec![
            Metric::single("ladder.scheduler.ns_per_fire", "ns", 50.0, 3),
            Metric::single("ladder.runtime_single.ns_per_fire", "ns", 210.0, 3),
        ];
        let table = ladder_table(&metrics);
        assert!(table.contains("+160.0 over scheduler"), "{table}");
    }
}
