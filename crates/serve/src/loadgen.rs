//! The load driver behind `ctr load`.
//!
//! Drives a `ctr serve` endpoint with N connections × M active
//! instances per connection over a generated chain workflow, in two
//! traffic shapes:
//!
//! * **closed loop** — each connection keeps `depth` requests in
//!   flight and sends the next burst only after the previous one is
//!   fully answered. `depth = 1` is the honest one-request-per-round-
//!   trip baseline; larger depths are the pipelined shape the server's
//!   burst batching is built for.
//! * **open loop** — each connection *offers* a fixed request rate on
//!   a schedule, regardless of responses (a sender and a receiver
//!   thread per connection). Latency under an offered rate is the
//!   number capacity planning wants; a closed loop can never measure
//!   it because it self-throttles.
//!
//! The harness records client-observed p50/p99 latency, wall-clock
//! throughput, and — through the wire `stats` verb — the server's
//! fsyncs-per-fire, so a durability configuration's coalescing shows
//! up in the same report as its latency cost. It is a client for
//! driving a server by hand and for the CI kill-recover drill; serving
//! performance numbers come from `benchmark/`'s `serve_*` workloads.

use crate::client::{Client, ClientError};
use crate::protocol::{self, Request, Response};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Traffic shape; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// `depth` requests in flight per connection, burst by burst.
    Closed,
    /// Offered load: this many fires per second *per connection*.
    Open { rate_per_conn: u64 },
}

/// One load run's shape.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Concurrent connections.
    pub connections: usize,
    /// Active instances each connection rotates through — the
    /// per-burst fan-out a server burst can group by instance.
    pub active_instances: usize,
    /// Fire requests per connection.
    pub fires_per_conn: usize,
    /// Pipeline depth (closed loop; 1 = one request per round trip).
    pub depth: usize,
    /// Chain length of the generated workload workflow.
    pub events: usize,
    /// Closed or open loop.
    pub mode: Mode,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            connections: 4,
            active_instances: 8,
            fires_per_conn: 5_000,
            depth: 64,
            events: 32,
            mode: Mode::Closed,
        }
    }
}

/// What a load run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Fires acknowledged (every one `Fired` — the chain plan never
    /// offers an ineligible event).
    pub total_fires: usize,
    /// Instances started (setup, untimed).
    pub instances_started: usize,
    /// First-send to last-response across all connections.
    pub wall: Duration,
    /// `total_fires / wall`.
    pub fires_per_sec: f64,
    /// Client-observed median latency, microseconds.
    pub p50_us: u64,
    /// Client-observed 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Server store appends over the run (0 without a store).
    pub appends: u64,
    /// Server commit fsyncs over the run (0 without a store).
    pub fsyncs: u64,
    /// `fsyncs / total_fires`.
    pub fsyncs_per_fire: f64,
}

/// The generated workload: a chain workflow, so every instance accepts
/// exactly `e0 … e{n-1}` in order and the plan below is always
/// eligible.
pub fn chain_source(events: usize, name: &str) -> String {
    use std::fmt::Write as _;
    let mut src = format!("workflow {name} {{ graph ");
    for i in 0..events {
        if i > 0 {
            src.push_str(" * ");
        }
        let _ = write!(src, "e{i}");
    }
    src.push_str("; }");
    src
}

/// Deterministic fire plan for one connection: round-robin over a
/// window of `window` active slots, each slot walking the chain and
/// pulling a fresh instance ordinal when exhausted. Returns the
/// `(ordinal, event_index)` sequence and how many instances it needs.
fn build_plan(fires: usize, events: usize, window: usize) -> (Vec<(usize, usize)>, usize) {
    let window = window.max(1);
    let mut slots: Vec<(usize, usize)> = (0..window).map(|i| (i, 0)).collect();
    let mut next_ordinal = window;
    let mut pairs = Vec::with_capacity(fires);
    for k in 0..fires {
        let s = k % window;
        if slots[s].1 == events {
            slots[s] = (next_ordinal, 0);
            next_ordinal += 1;
        }
        pairs.push((slots[s].0, slots[s].1));
        slots[s].1 += 1;
    }
    (pairs, next_ordinal)
}

/// Starts `count` instances over one connection (pipelined, untimed).
/// Chunked well under the server's default burst budget so a large
/// plan's setup is never answered `Busy`.
fn start_instances(
    client: &mut Client,
    workflow: &str,
    count: usize,
) -> Result<Vec<u64>, ClientError> {
    const CHUNK: usize = 128;
    let mut ids = Vec::with_capacity(count);
    let mut remaining = count;
    while remaining > 0 {
        let chunk = remaining.min(CHUNK);
        for _ in 0..chunk {
            client.send(&Request::Start {
                workflow: workflow.to_owned(),
            });
        }
        client.flush()?;
        for _ in 0..chunk {
            match client.recv()? {
                Response::InstanceId(id) => ids.push(id),
                Response::Error(fault) => return Err(ClientError::Fault(fault)),
                _ => return Err(ClientError::Unexpected("start wants InstanceId")),
            }
        }
        remaining -= chunk;
    }
    Ok(ids)
}

struct ConnResult {
    latencies_us: Vec<u64>,
    started: Instant,
    finished: Instant,
    instances: usize,
}

/// Closed loop: bursts of `depth`, each fully answered before the
/// next. Latency is flush-to-response per request.
fn run_closed(
    client: &mut Client,
    plan: &[(usize, usize)],
    ids: &[u64],
    event_names: &[String],
    depth: usize,
    latencies_us: &mut Vec<u64>,
) -> Result<(), ClientError> {
    let depth = depth.max(1);
    let mut sent = 0;
    while sent < plan.len() {
        let burst = &plan[sent..(sent + depth).min(plan.len())];
        for &(ordinal, event) in burst {
            client.send(&Request::Fire {
                instance: ids[ordinal],
                event: event_names[event].clone(),
            });
        }
        let t0 = Instant::now();
        client.flush()?;
        for _ in burst {
            match client.recv()? {
                Response::Status(_) => {}
                Response::Error(fault) => return Err(ClientError::Fault(fault)),
                _ => return Err(ClientError::Unexpected("fire wants Status")),
            }
            latencies_us.push(t0.elapsed().as_micros() as u64);
        }
        sent += burst.len();
    }
    Ok(())
}

/// Open loop: a sender paces fires on a fixed schedule while a
/// receiver drains responses and stamps latency against the exact
/// send instants (FIFO responses make the pairing positional).
fn run_open(
    stream: &TcpStream,
    plan: &[(usize, usize)],
    ids: &[u64],
    event_names: &[String],
    rate_per_conn: u64,
    latencies_us: &mut Vec<u64>,
) -> Result<(), ClientError> {
    let interval = Duration::from_secs_f64(1.0 / rate_per_conn.max(1) as f64);
    let (stamp_tx, stamp_rx) = mpsc::channel::<Instant>();
    let mut sender = stream.try_clone().map_err(ClientError::Io)?;
    let mut receiver = stream.try_clone().map_err(ClientError::Io)?;
    std::thread::scope(|scope| -> Result<(), ClientError> {
        let send_side = scope.spawn(move || -> Result<(), ClientError> {
            let mut payload = Vec::new();
            let mut frame = Vec::new();
            let start = Instant::now();
            for (k, &(ordinal, event)) in plan.iter().enumerate() {
                let due = start + interval * (k as u32);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                payload.clear();
                protocol::encode_request(
                    &Request::Fire {
                        instance: ids[ordinal],
                        event: event_names[event].clone(),
                    },
                    &mut payload,
                );
                frame.clear();
                protocol::encode_frame(&payload, &mut frame);
                sender.write_all(&frame)?;
                let _ = stamp_tx.send(Instant::now());
            }
            Ok(())
        });
        let mut rx: Vec<u8> = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut answered = 0;
        while answered < plan.len() {
            if let Some((consumed, payload)) = protocol::split_frame(&rx)? {
                let resp = protocol::decode_response(payload)?;
                rx.drain(..consumed);
                match resp {
                    Response::Status(_) => {}
                    Response::Error(fault) => return Err(ClientError::Fault(fault)),
                    _ => return Err(ClientError::Unexpected("fire wants Status")),
                }
                let sent_at = stamp_rx
                    .recv()
                    .expect("sender stamps before receiver pairs");
                latencies_us.push(sent_at.elapsed().as_micros() as u64);
                answered += 1;
                continue;
            }
            let n = receiver.read(&mut chunk)?;
            if n == 0 {
                return Err(ClientError::Closed);
            }
            rx.extend_from_slice(&chunk[..n]);
        }
        send_side.join().expect("sender thread")?;
        Ok(())
    })
}

/// Runs one load shape against a serving endpoint. Deploys the chain
/// workload, pre-starts every instance the plan needs (untimed), then
/// fires the measured phase and reads the server's store counters
/// before and after.
pub fn drive(addr: &str, opts: &LoadOptions) -> Result<LoadReport, ClientError> {
    let workflow = "wireload";
    let source = chain_source(opts.events, workflow);
    let event_names: Vec<String> = (0..opts.events).map(|i| format!("e{i}")).collect();
    let mut control = Client::connect(addr)?;
    control.deploy(&source)?;
    let stats_before = control.stats()?;

    let (plan, instances_needed) =
        build_plan(opts.fires_per_conn, opts.events, opts.active_instances);
    let barrier = Barrier::new(opts.connections);
    let results: Vec<Result<ConnResult, ClientError>> = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..opts.connections {
            let plan = &plan;
            let event_names = &event_names;
            let barrier = &barrier;
            workers.push(scope.spawn(move || -> Result<ConnResult, ClientError> {
                let mut client = Client::connect(addr)?;
                let ids = start_instances(&mut client, workflow, instances_needed)?;
                let mut latencies_us = Vec::with_capacity(plan.len());
                barrier.wait();
                let started = Instant::now();
                match opts.mode {
                    Mode::Closed => run_closed(
                        &mut client,
                        plan,
                        &ids,
                        event_names,
                        opts.depth,
                        &mut latencies_us,
                    )?,
                    Mode::Open { rate_per_conn } => run_open(
                        client.raw_stream(),
                        plan,
                        &ids,
                        event_names,
                        rate_per_conn,
                        &mut latencies_us,
                    )?,
                }
                Ok(ConnResult {
                    latencies_us,
                    started,
                    finished: Instant::now(),
                    instances: ids.len(),
                })
            }));
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("connection thread"))
            .collect()
    });

    let mut latencies: Vec<u64> = Vec::new();
    let mut first_send: Option<Instant> = None;
    let mut last_recv: Option<Instant> = None;
    let mut instances_started = 0;
    for result in results {
        let conn = result?;
        latencies.extend(conn.latencies_us);
        first_send = Some(first_send.map_or(conn.started, |t| t.min(conn.started)));
        last_recv = Some(last_recv.map_or(conn.finished, |t| t.max(conn.finished)));
        instances_started += conn.instances;
    }
    let stats_after = control.stats()?;
    let wall = match (first_send, last_recv) {
        (Some(a), Some(b)) => b.duration_since(a),
        _ => Duration::ZERO,
    };
    latencies.sort_unstable();
    let pct = |p: usize| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        latencies[(latencies.len() * p / 100).min(latencies.len() - 1)]
    };
    let total_fires = latencies.len();
    let fsyncs = stats_after.fsyncs.saturating_sub(stats_before.fsyncs);
    Ok(LoadReport {
        total_fires,
        instances_started,
        wall,
        fires_per_sec: if wall.is_zero() {
            0.0
        } else {
            total_fires as f64 / wall.as_secs_f64()
        },
        p50_us: pct(50),
        p99_us: pct(99),
        appends: stats_after.appends.saturating_sub(stats_before.appends),
        fsyncs,
        fsyncs_per_fire: if total_fires == 0 {
            0.0
        } else {
            fsyncs as f64 / total_fires as f64
        },
    })
}

// --- CLI entry point (`ctr load`) ------------------------------------------

/// Usage text for `ctr load`.
pub const LOAD_USAGE: &str = "\
usage:
  load ADDR [flags]
      drive an external `ctr serve` endpoint and print one report
      --connections N   concurrent connections        (default 4)
      --instances M     active instances/connection   (default 8)
      --fires F         fire requests per connection  (default 5000)
      --depth D         pipeline depth; 1 = one request per round trip
                        (default 64)
      --events E        chain length of the generated workload
                        (default 32)
      --rate R          open loop: offered fires/sec per connection
                        (closed loop when absent)
      --shutdown        ask the server to exit after the run

examples:
  ctr serve --addr 127.0.0.1:7171 &
  ctr load 127.0.0.1:7171 --connections 8 --depth 64
  ctr load 127.0.0.1:7171 --connections 2 --depth 1 --fires 500
  ctr load 127.0.0.1:7171 --rate 5000 --fires 20000";

fn parse_flag_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses `load` arguments and runs the requested shape. Returns the
/// human-readable report text.
pub fn cli_main(args: &[String]) -> Result<String, String> {
    let Some(first) = args.first() else {
        return Err(LOAD_USAGE.to_owned());
    };
    if first == "--help" || first == "-h" || first == "help" {
        return Ok(LOAD_USAGE.to_owned());
    }
    if !first.contains(':') {
        return Err(format!("ADDR wants HOST:PORT, got {first}\n\n{LOAD_USAGE}"));
    }
    let addr = first.clone();
    let mut opts = LoadOptions::default();
    let mut shutdown = false;
    let mut rate: Option<u64> = None;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let int = |v: String| -> Result<usize, String> {
            v.parse::<usize>()
                .map_err(|_| format!("{flag} wants an integer, got {v}"))
        };
        match flag {
            "--connections" => opts.connections = int(parse_flag_value(args, &mut i, flag)?)?,
            "--instances" => opts.active_instances = int(parse_flag_value(args, &mut i, flag)?)?,
            "--fires" => opts.fires_per_conn = int(parse_flag_value(args, &mut i, flag)?)?,
            "--depth" => opts.depth = int(parse_flag_value(args, &mut i, flag)?)?,
            "--events" => opts.events = int(parse_flag_value(args, &mut i, flag)?)?.max(1),
            "--rate" => rate = Some(int(parse_flag_value(args, &mut i, flag)?)? as u64),
            "--shutdown" => shutdown = true,
            other => return Err(format!("unknown load flag {other}\n\n{LOAD_USAGE}")),
        }
        i += 1;
    }
    if let Some(rate_per_conn) = rate {
        opts.mode = Mode::Open { rate_per_conn };
    }
    let report = drive(&addr, &opts).map_err(|e| format!("load run failed: {e}"))?;
    let mut text = format!(
        "{} fires over {} connection(s) in {:.3}s\n\
         throughput  {:.0} fires/sec\n\
         latency     p50 {}us  p99 {}us\n\
         instances   {} started\n\
         store       {} appends, {} fsyncs ({:.4} fsyncs/fire)",
        report.total_fires,
        opts.connections,
        report.wall.as_secs_f64(),
        report.fires_per_sec,
        report.p50_us,
        report.p99_us,
        report.instances_started,
        report.appends,
        report.fsyncs,
        report.fsyncs_per_fire,
    );
    if shutdown {
        let mut control =
            Client::connect(&addr).map_err(|e| format!("shutdown connect failed: {e}"))?;
        control
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        text.push_str("\nserver    shutdown acknowledged");
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_address_without_a_port_is_rejected_with_the_usage_text() {
        for args in [&["bench"][..], &["bench", "--quick"]] {
            let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
            let err = cli_main(&args).expect_err("not HOST:PORT");
            assert!(
                err.contains("HOST:PORT") && err.contains(LOAD_USAGE),
                "{err}"
            );
        }
    }
}
