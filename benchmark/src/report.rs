//! The metric catalogue and the output formats.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the lists `BENCHMARK.json`
//! carries (a unit test holds the two in step). The driver-facing mode
//! prints one JSON line with exactly those metrics; `run`/`trace` print
//! a table with `n`, median and quartiles and write a result file that
//! leads with the host facts.

use crate::host::HostFacts;
use crate::json::Value;
use crate::workloads::{Metric, RunResult};

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric with a regression bound: the share of the baseline's median
/// by which it may worsen before that counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct Gated {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening, as a share of the baseline median.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports from the untraced run
/// (`BENCHMARK.json: end_to_end`), times in reference seconds
/// (`host::MemoryProbe`). The driver has one bound per metric for all
/// listed workloads and wants the spread of ten runs on ten seeds inside
/// it, so each bound is set by the noisiest listed workload in a bad
/// hour: raw seconds spread by 12–15 % on the timings in most sets and by
/// 30–50 % in the worst (this host's memory slows down and recovers
/// under its neighbours), reference seconds by 5–15 % and by up to 20 %;
/// `peak_rss_mb` by up to 8 % (`compile_scratch`, whose 6 MiB move by
/// half a MiB with the seed and the allocator), which is a third of its
/// bound. `results/README.md` has the spreads.
pub const END_TO_END: [Gated; 5] = [
    Gated {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    Gated {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    Gated {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    Gated {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    Gated {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// End-to-end metrics the driver's contract cannot carry as
/// `end_to_end`: it wants every such metric on every workload, never 0,
/// and steady *across* seeds. Some of these exist on a few workloads
/// only, some are exact counts whose value depends on the seed, and
/// `op_p99_us` spreads by 15–17 % between identical runs here. They ride
/// in `per_layer` there; `compare` (same seed on both sides) still
/// gates them with these bounds.
pub const GATED_EXTRAS: [Gated; 7] = [
    Gated {
        name: "op_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    Gated {
        name: "fail_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
    },
    Gated {
        name: "output_nodes",
        unit: "count",
        better: Better::Lower,
        bound: 0.0,
    },
    Gated {
        name: "wire_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.0,
    },
    Gated {
        name: "fsyncs_per_op",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
    },
    Gated {
        name: "log_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.0,
    },
    Gated {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// Rows that failed the two-set agreement and are **demoted**: `compare`
/// prints their verdict with a `*` and does not fail on it.
///
/// `serve_durable` waits on the VM's fsync for most of every op, and
/// that fsync takes ≈ 90 µs or ≈ 165 µs for minutes at a time: the same
/// binary and seed measured 43.1 k and 70.3 k ops/s four minutes apart
/// (`results/durable-*.json`). Its CPU, memory, recovery time and exact
/// counts still gate. The 99th percentile of the two workloads that
/// context-switch once per op moved by +26 % and +39 % between two sets
/// (`results/README.md`).
pub const DEMOTED: [(&str, &str); 5] = [
    ("serve_durable", "ops_per_s"),
    ("serve_durable", "op_p50_us"),
    ("serve_durable", "op_p99_us"),
    ("serve_rtt", "op_p99_us"),
    ("enact_saga", "op_p99_us"),
];

/// The workloads `BENCHMARK.json` lists for the driver: one per part
/// of the stack (untabled compile, the table, the resident fleet, the
/// socket), each busy on the CPU from the first op to the last. The
/// driver runs every listed workload 22 times inside one hour and
/// refuses a benchmark whose ten-seed spread leaves a bound, so the list
/// is four workloads of [`RUN_SECONDS`] each, and the three below are
/// left to `run`, `trace` and `compare`:
///
/// * `serve_durable` waits on the VM's fsync ([`DEMOTED`]);
/// * `serve_rtt` and `enact_saga` sleep and wake a thread once per op,
///   which measures the hypervisor's scheduler more than the program:
///   the driver saw `cpu_us_per_op` of `serve_rtt` spread by 27 % and
///   `ops_per_s`, `cpu_us_per_op` and `peak_rss_mb` of `enact_saga` by
///   27 %, 35 % and 17 % over ten seeds at 10 s a run
///   (`results/README.md`).
pub const DRIVER_LISTED: [&str; 4] = [
    "compile_scratch",
    "verify_session",
    "fleet_mem",
    "serve_pipelined",
];

/// Whether `BENCHMARK.json` lists the workload for the driver.
pub fn driver_lists(workload: &str) -> bool {
    DRIVER_LISTED.contains(&workload)
}

/// A per-layer metric: no bound, reported by the traced run.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// Metric name, prefixed by its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics (`BENCHMARK.json: per_layer`), in the order
/// the stack is layered.
pub const PER_LAYER: &[Layer] = &[
    // The end-to-end metrics of GATED_EXTRAS.
    lower("op_p99_us", "us"),
    lower("fail_share", "ratio"),
    lower("output_nodes", "count"),
    lower("wire_bytes_per_op", "B"),
    lower("fsyncs_per_op", "ratio"),
    lower("log_bytes_per_op", "B"),
    lower("recover_s", "s"),
    lower("parser.parse_us", "us"),
    higher("parser.bytes_per_s", "B/s"),
    lower("workflow.lower_us", "us"),
    lower("core.constraints.normalize_us", "us"),
    lower("core.constraints.disjuncts", "count"),
    lower("core.apply.us", "us"),
    lower("core.apply.out_nodes", "count"),
    lower("core.apply.ns_per_out_node", "ns"),
    lower("core.apply.fit_exponent", "ratio"),
    lower("core.excise.us", "us"),
    lower("core.excise.out_nodes", "count"),
    lower("core.excise.ns_per_in_node", "ns"),
    lower("core.excise.fit_exponent", "ratio"),
    lower("core.analysis.verify_us", "us"),
    lower("core.memo.session_build_us", "us"),
    lower("core.memo.query_us", "us"),
    lower("core.memo.edit_us", "us"),
    higher("core.memo.hit_share", "ratio"),
    higher("core.memo.hit_share_tail", "ratio"),
    higher("core.memo.hit_share_head", "ratio"),
    lower("core.memo.entries", "count"),
    lower("core.memo.interned", "count"),
    lower("engine.program.build_us", "us"),
    lower("engine.program.nodes", "count"),
    lower("engine.scheduler.fire_ns", "ns"),
    lower("engine.scheduler.eligible_ns", "ns"),
    lower("engine.scheduler.refuse_ns", "ns"),
    lower("runtime.single.fire_ns", "ns"),
    lower("runtime.single.fire_batch_ns", "ns"),
    lower("runtime.single.start_ns", "ns"),
    lower("runtime.shared.fire_ns", "ns"),
    lower("runtime.shared.fire_many_ns", "ns"),
    lower("runtime.shared.fire_runs_ns", "ns"),
    lower("runtime.shared.start_ns", "ns"),
    lower("runtime.shared.eligible_ns", "ns"),
    lower("runtime.shared.try_complete_ns", "ns"),
    lower("runtime.shared.bytes_per_instance", "B"),
    lower("runtime.shared.snapshot_ms", "ms"),
    lower("runtime.shared.restore_ms", "ms"),
    lower("runtime.wheel.arm_ns", "ns"),
    lower("runtime.wheel.cancel_ns", "ns"),
    lower("runtime.wheel.expire_ns", "ns"),
    lower("runtime.shared.advance_ns_per_expiry", "ns"),
    lower("runtime.enact.step_us", "us"),
    lower("runtime.enact.retry_us", "us"),
    lower("runtime.enact.attempts_per_step", "ratio"),
    lower("store.mem.append_ns", "ns"),
    lower("store.wal.append_us.strict", "us"),
    lower("store.wal.append_us.coalesced", "us"),
    lower("store.wal.append_us.periodic", "us"),
    lower("store.wal.bytes_per_record", "B"),
    lower("store.wal.fsyncs_per_record", "ratio"),
    lower("store.wal.fsync_p50_us", "us"),
    lower("store.wal.fsync_p99_us", "us"),
    higher("store.wal.group_frames_p50", "count"),
    lower("store.wal.replay_ns_per_record", "ns"),
    lower("store.wal.checkpoint_ms", "ms"),
    lower("store.wal.bytes_after_checkpoint", "B"),
    lower("serve.protocol.encode_request_ns", "ns"),
    lower("serve.protocol.decode_request_ns", "ns"),
    lower("serve.protocol.encode_response_ns", "ns"),
    lower("serve.protocol.decode_response_ns", "ns"),
    lower("serve.protocol.request_bytes", "B"),
    lower("serve.protocol.response_bytes", "B"),
    lower("serve.socket.rtt_overhead_us", "us"),
    higher("serve.socket.fires_per_burst", "count"),
    lower("serve.socket.connect_us", "us"),
    lower("ladder.scheduler.ns_per_fire", "ns"),
    lower("ladder.scheduler.allocs_per_fire", "count"),
    lower("ladder.runtime_single.ns_per_fire", "ns"),
    lower("ladder.runtime_single.allocs_per_fire", "count"),
    lower("ladder.runtime_shared.ns_per_fire", "ns"),
    lower("ladder.runtime_shared.allocs_per_fire", "count"),
    lower("ladder.runtime_shared_runs.ns_per_fire", "ns"),
    lower("ladder.runtime_shared_runs.allocs_per_fire", "count"),
    lower("ladder.store_mem.ns_per_fire", "ns"),
    lower("ladder.store_mem.allocs_per_fire", "count"),
    lower("ladder.store_wal_coalesced.ns_per_fire", "ns"),
    lower("ladder.store_wal_coalesced.allocs_per_fire", "count"),
    lower("ladder.store_wal_strict.ns_per_fire", "ns"),
    lower("ladder.store_wal_strict.allocs_per_fire", "count"),
    lower("ladder.socket_pipelined.ns_per_fire", "ns"),
    lower("ladder.socket_pipelined.allocs_per_fire", "count"),
    lower("ladder.socket_rtt.ns_per_fire", "ns"),
    lower("ladder.socket_rtt.allocs_per_fire", "count"),
    // Where the traced workload's own time went, by layer group.
    lower("trace.share.parser", "ratio"),
    lower("trace.share.workflow", "ratio"),
    lower("trace.share.core", "ratio"),
    lower("trace.share.engine", "ratio"),
    lower("trace.share.runtime", "ratio"),
    lower("trace.share.serve_client", "ratio"),
    lower("trace.share.harness", "ratio"),
    lower("bench.trace_overhead_share", "ratio"),
    lower("bench.generator_cpu_share", "ratio"),
    lower("bench.host_spin_ms", "ms"),
    // How many times slower than the reference the host's memory ran
    // (`host::MemoryProbe`): reference seconds × this = seconds.
    lower("bench.host_factor", "ratio"),
];

/// The unit of a catalogued metric (`count` for an unknown name, which
/// the catalogue test would flag).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&GATED_EXTRAS)
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or("count")
}

/// The ladder's rungs, top (cheapest) to bottom.
pub const LADDER_RUNGS: [&str; 9] = [
    "scheduler",
    "runtime_single",
    "runtime_shared",
    "runtime_shared_runs",
    "store_mem",
    "store_wal_coalesced",
    "store_wal_strict",
    "socket_pipelined",
    "socket_rtt",
];

/// The rung each rung's delta is taken over: the runtime rungs stack,
/// the store rungs stand on `SharedRuntime::fire`, and the socket rungs
/// on the call the server makes for them.
pub const LADDER_BASES: [Option<&str>; 9] = [
    None,
    Some("scheduler"),
    Some("runtime_single"),
    Some("runtime_shared"),
    Some("runtime_shared"),
    Some("store_mem"),
    Some("store_mem"),
    Some("runtime_shared_runs"),
    Some("runtime_shared"),
];

/// Seconds one driver run measures (`BENCHMARK.json: run_seconds`):
/// the longest that lets the driver's 92 runs of four workloads and two
/// builds end inside its 3420 s with a tenth to spare.
pub const RUN_SECONDS: u64 = 30;

/// The whole of `BENCHMARK.json`, rendered from the catalogue. The file
/// at the repository root is this text (a unit test compares them);
/// `ctr-bench __benchmark-json` prints it.
pub fn benchmark_json() -> String {
    use crate::workloads::{WHY, WORKLOADS};
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .zip(WHY)
        .filter(|(name, _)| driver_lists(name))
        .map(|(name, why)| Value::obj().with("name", *name).with("why", why))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
                .with("bound", m.bound)
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
        })
        .collect();
    Value::obj()
        .with(
            "command",
            vec![Value::from("bash"), Value::from("benchmark/run.sh")],
        )
        .with("paths", vec![Value::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
        .render_pretty()
}

/// The last line the driver reads: `correct`, `attempted`, `failed` and
/// exactly the listed metrics (0 for one the workload does not have).
pub fn driver_line(
    attempted: u64,
    failed: u64,
    wanted: &[(&'static str, &'static str)],
    have: &[Metric],
) -> String {
    let metrics = Value::Obj(
        wanted
            .iter()
            .map(|(name, unit)| {
                let value = have
                    .iter()
                    .find(|m| m.name == *name)
                    .map_or(0.0, Metric::value);
                (
                    (*name).to_owned(),
                    Value::obj().with("value", value).with("unit", *unit),
                )
            })
            .collect(),
    );
    Value::obj()
        .with("correct", failed == 0)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", metrics)
        .render()
}

/// One workload's metrics as a table.
pub fn table(result: &RunResult) -> String {
    format!(
        "## {}  (clients={}, attempted={}, failed={})\n{}",
        result.workload,
        result.clients,
        result.attempted,
        result.failed,
        rows(&result.metrics)
    )
}

/// Metrics one per line: value, unit, `n`, quartiles, spread.
pub fn rows(metrics: &[Metric]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:width$}  {:>16} {:<6} n={:<8} q1={:<14} q3={:<14} spread={:.1}%",
            m.name,
            fmt_value(m.summary.median),
            m.unit,
            m.summary.n,
            fmt_value(m.summary.q1),
            fmt_value(m.summary.q3),
            m.summary.spread() * 100.0,
        );
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// A result file: host facts first, then one row per workload.
pub fn result_file(
    host: &HostFacts,
    mode: &str,
    seed: u64,
    smoke: bool,
    rows: Vec<Value>,
) -> Value {
    Value::obj()
        .with("host", host.to_json())
        .with("mode", mode)
        .with("seed", seed)
        .with("smoke", smoke)
        .with("workloads", rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::stats::Summary;
    use crate::workloads::WORKLOADS;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_is_the_rendered_catalogue_and_within_the_contract() {
        assert_eq!(
            BENCHMARK_JSON,
            benchmark_json(),
            "regenerate with `ctr-bench __benchmark-json > BENCHMARK.json`"
        );
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| driver_lists(w)).count()));
        // The driver's bounds are per metric, not per row: a workload
        // with a demoted `end_to_end` row cannot be listed.
        for (workload, metric) in DEMOTED {
            assert!(!driver_lists(workload) || END_TO_END.iter().all(|m| m.name != metric));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for why in crate::workloads::WHY {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in END_TO_END {
            assert!(m.bound <= 0.25 && m.bound <= setup.bound, "{}", m.name);
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.name));
        all.extend(WORKLOADS);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
        for name in all {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for rung in LADDER_RUNGS {
            assert!(PER_LAYER
                .iter()
                .any(|m| m.name == format!("ladder.{rung}.ns_per_fire")));
        }
    }

    #[test]
    fn the_driver_line_has_exactly_the_wanted_metrics() {
        let have = vec![Metric {
            name: "ops_per_s".to_owned(),
            unit: "1/s",
            summary: Summary {
                n: 9,
                q1: 1.0,
                median: 1234.5678,
                q3: 2.0,
            },
        }];
        let line = driver_line(10, 0, &[("ops_per_s", "1/s"), ("recover_s", "s")], &have);
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.as_obj().unwrap().len(), 2);
        assert_eq!(
            metrics
                .get("ops_per_s")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(1234.5678)
        );
        assert_eq!(
            metrics
                .get("recover_s")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(0.0)
        );
        assert!(!line.contains('\n'));
        let failing = driver_line(0, 3, &[], &[]);
        assert!(failing.contains("\"correct\": false"));
        assert!(failing.contains("\"attempted\": 1"));
    }
}
