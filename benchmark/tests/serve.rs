//! The socket workloads against a real `ctr serve` child (the built
//! `ctr-bench` binary in its `__ctr` personality), at smoke size.

use ctr_benchmark::trace::Tracer;
use ctr_benchmark::workloads::serve::{self, ServeDurable, ServePipelined, ServeRtt};
use ctr_benchmark::workloads::{run_by_name, RunConfig, Workload};
use std::time::Instant;

fn smoke(seed: u64) -> RunConfig {
    serve::use_child_exe(env!("CARGO_BIN_EXE_ctr-bench").into());
    RunConfig {
        seed,
        seconds: 0.0,
        smoke: true,
    }
}

fn extra(rep: &ctr_benchmark::workloads::Rep, name: &str) -> Option<f64> {
    rep.extra.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

#[test]
fn pipelined_responses_and_the_audited_snapshot_match_the_oracle() {
    let mut w = ServePipelined::generate(&smoke(1));
    w.reference();
    let rep = w.repetition(&mut Tracer::off());
    assert_eq!(rep.failed, 0);
    assert!(rep.ops > 0 && rep.peak_rss_mib.is_some());
    // Wire bytes are a function of the script, not of the clock.
    let again = w.repetition(&mut Tracer::off());
    assert_eq!(
        extra(&rep, "wire_bytes_per_op"),
        extra(&again, "wire_bytes_per_op")
    );
    let mut tracer = Tracer::on(Instant::now());
    assert_eq!(w.repetition(&mut tracer).failed, 0);
    assert!(tracer.layer("serve.client.recv").spans >= rep.ops);
}

#[test]
fn rtt_runs_one_request_per_round_trip() {
    let mut w = ServeRtt::generate(&smoke(2));
    w.reference();
    let rep = w.repetition(&mut Tracer::off());
    assert_eq!(rep.failed, 0);
    assert_eq!(rep.lat_ns.len() as u64, rep.ops);
    assert!(w.clients() >= 1);
}

#[test]
fn durable_journals_recover_to_what_was_acknowledged() {
    let mut w = ServeDurable::generate(&smoke(3));
    w.reference();
    let rep = w.repetition(&mut Tracer::off());
    assert_eq!(rep.failed, 0);
    assert!(extra(&rep, "recover_s").unwrap() > 0.0);
    assert!(extra(&rep, "fsyncs_per_op").unwrap() > 0.0);
    assert!(extra(&rep, "log_bytes_per_op").unwrap() > 0.0);
    let again = w.repetition(&mut Tracer::off());
    for exact in ["fsyncs_per_op", "log_bytes_per_op", "wire_bytes_per_op"] {
        assert_eq!(extra(&rep, exact), extra(&again, exact), "{exact}");
    }
}

#[test]
fn a_whole_smoke_run_reports_every_end_to_end_metric() {
    let result = run_by_name("serve_durable", &smoke(4)).unwrap();
    assert_eq!(result.failed, 0);
    for name in [
        "setup_s",
        "ops_per_s",
        "op_p50_us",
        "cpu_us_per_op",
        "peak_rss_mb",
        "fail_share",
    ] {
        assert!(result.metric(name).is_some(), "{name}");
    }
    assert!(run_by_name("no_such_workload", &smoke(4)).is_err());
}
