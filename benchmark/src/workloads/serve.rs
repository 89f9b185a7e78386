//! `serve_pipelined`, `serve_rtt` and `serve_durable` — the operator's
//! path, over the loopback socket, against a real `ctr serve` process.
//!
//! Every repetition spawns a **fresh child** (`ctr serve --addr
//! 127.0.0.1:0`, plus `--store <dir> --durability coalesced` for the
//! durable shape): instances are never retired, so a reused server
//! would make repetitions incomparable. The client side is
//! `ctr_serve::Client`; loops are closed (a burst is fully answered
//! before the next is sent). One op is one request acknowledged; only
//! `start` and `fire` are sent in the timed region.
//!
//! * `serve_pipelined` — 1 connection, depth 128, 8 active instances
//!   per burst window, both ends on one CPU (`workloads::ONE_CPU`):
//!   codec and burst coalescing into `fire_runs` dominate, the store
//!   does nothing.
//! * `serve_rtt` — depth 1, 2 connections clamped to `nproc`; the run
//!   is confined to one CPU (`workloads::ONE_CPU`), so that is one
//!   connection whose two ends take turns: syscalls, context switches
//!   and per-frame fixed cost dominate; the codec does little.
//! * `serve_durable` — 1 connection, depth 128, WAL on the real disk
//!   under `benchmark/out/`: frame, CRC, write, fsync and group commit
//!   do most of the work. After the last repetition the WAL is reopened
//!   in a fresh process and every journal compared with what was
//!   acknowledged.
//!
//! Checks: every response against the single-threaded `Runtime`'s
//! answer to the same request; the server's snapshot against the
//! oracle's after replaying the acknowledged requests (every
//! repetition where it fits the 1 MiB frame limit, and on a prefix of
//! the script otherwise).

use super::fleet::{layered_orders_source, rotate_fires, PlanStyle, SpecPlan};
use super::{self_cpu_s, Rep, RunConfig, Workload};
use crate::host;
use crate::inputs;
use crate::rng::Rng;
use crate::trace::Tracer;
use ctr_runtime::{InstanceStatus, Runtime};
use ctr_serve::protocol::{self, FRAME_HEADER};
use ctr_serve::{Client, Request, Response, WireStatus};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Walk variants of the served spec.
const VARIANTS: usize = 32;
/// A response that takes this long means the server is wedged; fail
/// the repetition instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// A snapshot line is ~250 bytes per finished instance and a wire frame
/// at most 1 MiB: this many instances always fit.
const SNAPSHOT_INSTANCES: usize = 3_500;
/// Shapes with more instances than that audit a script prefix of this
/// many instances instead, against a second fresh server.
const AUDIT_INSTANCES: u32 = 1_500;

static CHILD_EXE: OnceLock<PathBuf> = OnceLock::new();

/// Overrides the executable spawned as `<exe> __ctr serve …`. The
/// default is the running binary; integration tests point this at the
/// built `ctr-bench`.
pub fn use_child_exe(path: PathBuf) {
    let _ = CHILD_EXE.set(path);
}

fn child_exe() -> PathBuf {
    CHILD_EXE
        .get()
        .cloned()
        .unwrap_or_else(|| std::env::current_exe().expect("own executable path"))
}

/// A running `ctr serve` child. Dropping it kills the process.
pub struct ServeChild {
    child: Child,
    /// Held open until the child is gone: `ctr serve` prints a last line
    /// on exit and would die of a broken pipe instead of exiting 0.
    stdout: BufReader<std::process::ChildStdout>,
    /// `host:port` the server bound.
    pub addr: String,
}

impl ServeChild {
    /// Spawns `ctr serve` on an ephemeral loopback port and waits for
    /// its `serving on` line.
    pub fn spawn(store: Option<&Path>) -> std::io::Result<ServeChild> {
        let mut command = Command::new(child_exe());
        command.args(["__ctr", "serve", "--addr", "127.0.0.1:0"]);
        if let Some(dir) = store {
            command
                .arg("--store")
                .arg(dir)
                .args(["--durability", "coalesced"]);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        match line.trim().strip_prefix("serving on ") {
            Some(addr) => Ok(ServeChild {
                child,
                stdout,
                addr: addr.to_owned(),
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "`ctr serve` did not report its address (got {line:?})"
                )))
            }
        }
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends the wire `shutdown` verb and waits for the process to end.
    pub fn shutdown(mut self) -> bool {
        let asked = Client::connect(&self.addr)
            .ok()
            .is_some_and(|mut c| c.shutdown().is_ok());
        if asked {
            // Drain the farewell line; EOF means the process is exiting.
            let mut rest = String::new();
            let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        }
        let deadline = Instant::now() + IO_TIMEOUT;
        while asked && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => break,
            }
        }
        false // Drop kills it.
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request of a script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Req {
    Start(u32),
    Fire(u32, u16),
}

/// The shape of one serve workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Connections wanted (clamped to nproc).
    pub connections: usize,
    /// Requests in flight per connection.
    pub depth: usize,
    /// Active instances per connection's burst window.
    pub window: usize,
    /// Bursts on the wire at once: 1 is stop-and-wait, 2 puts burst
    /// `k + 1` out before burst `k`'s responses are read.
    pub in_flight: usize,
    /// `--store … --durability coalesced`.
    pub durable: bool,
    /// Instances per connection per repetition at full size.
    pub instances: usize,
}

/// `serve_pipelined`.
pub const PIPELINED: Shape = Shape {
    name: "serve_pipelined",
    connections: 1,
    depth: 128,
    window: 8,
    in_flight: 2,
    durable: false,
    instances: 40_000,
};
/// `serve_rtt`.
pub const RTT: Shape = Shape {
    name: "serve_rtt",
    connections: 2,
    depth: 1,
    window: 1,
    in_flight: 1,
    durable: false,
    instances: 5_000,
};
/// `serve_durable`.
pub const DURABLE: Shape = Shape {
    name: "serve_durable",
    connections: 1,
    depth: 128,
    window: 8,
    in_flight: 1,
    durable: true,
    instances: 1_500,
};

/// Groups one connection's instances into bursts of at most `depth`
/// requests. Fires rotate over `window` active instances. At depth 1
/// a burst is one request. With `in_flight` = 2 bursts are
/// **double-buffered**: the client puts burst `k + 1` on the wire before
/// it reads burst `k`'s responses, so the server always finds its next
/// burst waiting and never sleeps — on this VM a sleeping vCPU wakes in
/// anything from 3 to 25 µs depending on the hypervisor's mood, and a
/// stop-and-wait client would measure that instead of the server. (The
/// durable shape stays stop-and-wait: how the server's reads line up
/// with two bursts in flight decides its group commits, and
/// `fsyncs_per_op` and `log_bytes_per_op` would stop being exact.) An
/// instance's `start` travels `in_flight` bursts ahead of its first
/// fire, so its id is known when that fire is encoded.
fn bursts(plan: &SpecPlan, ordinals: &[(u32, u8)], shape: &Shape) -> Vec<Vec<Req>> {
    let Shape {
        depth,
        window,
        in_flight: lead,
        ..
    } = *shape;
    let fires = rotate_fires(plan, ordinals, window);
    if depth == 1 {
        let mut out = Vec::with_capacity(fires.len() + ordinals.len());
        let mut started = u32::MAX;
        for (ordinal, event) in fires {
            if ordinal != started {
                out.push(vec![Req::Start(ordinal)]);
                started = ordinal;
            }
            out.push(vec![Req::Fire(ordinal, event)]);
        }
        return out;
    }
    let chunks: Vec<&[(u32, u16)]> = fires.chunks(depth - window).collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut starts_for = |chunk: Option<&&[(u32, u16)]>| -> Vec<Req> {
        chunk
            .into_iter()
            .flat_map(|chunk| chunk.iter())
            .filter(|(ordinal, _)| seen.insert(*ordinal))
            .map(|(ordinal, _)| Req::Start(*ordinal))
            .collect()
    };
    // Burst `j` carries the starts chunk `j` needs and the fires of
    // chunk `j - lead`.
    (0..chunks.len() + lead)
        .map(|j| {
            let mut burst = starts_for(chunks.get(j));
            if let Some(chunk) = j.checked_sub(lead).and_then(|c| chunks.get(c)) {
                burst.extend(
                    chunk
                        .iter()
                        .map(|&(ordinal, event)| Req::Fire(ordinal, event)),
                );
            }
            burst
        })
        .collect()
}

/// What one connection saw.
struct ConnResult {
    started: Instant,
    finished: Instant,
    lat_ns: Vec<u32>,
    failed: u64,
    wire_bytes: u64,
    /// Per ordinal: the id the server assigned.
    ids: Vec<(u32, u64)>,
    tracer: Tracer,
}

/// What one session against one child measured.
struct Session {
    wall_s: f64,
    server_cpu_s: f64,
    generator_cpu_s: f64,
    ops: u64,
    failed: u64,
    lat_ns: Vec<u32>,
    wire_bytes: u64,
    fsyncs: u64,
    server_peak_rss_mib: Option<f64>,
}

/// The workload state (one struct, three shapes).
pub struct Serve {
    shape: Shape,
    plan: SpecPlan,
    /// Per connection: its bursts.
    scripts: Vec<Vec<Vec<Req>>>,
    /// Per connection, per request in burst order: the oracle's answer
    /// (`true` = the fire completed the instance).
    expected: Option<Vec<Vec<bool>>>,
    /// Bytes of each frame kind on the wire (ids and statuses are fixed
    /// width, so a fire's frame depends on its event name only).
    status_frame: u64,
    id_frame: u64,
    start_frame: u64,
    fire_frames: Vec<u64>,
    wal_dir: PathBuf,
    /// The snapshot the last repetition's server held — what recovery
    /// of its WAL must reproduce.
    last_snapshot: Option<String>,
    /// The prefix audit ran (shapes whose snapshot exceeds one frame).
    audited: bool,
}

fn frame_len(response: &Response) -> u64 {
    let mut payload = Vec::new();
    protocol::encode_response(response, &mut payload);
    (FRAME_HEADER + payload.len()) as u64
}

fn request_len(request: &Request) -> u64 {
    let mut payload = Vec::new();
    protocol::encode_request(request, &mut payload);
    (FRAME_HEADER + payload.len()) as u64
}

impl Serve {
    fn new(shape: Shape, cfg: &RunConfig) -> Serve {
        let root = Rng::new(cfg.seed);
        let mut rng = root.fork("specs");
        let variants = if cfg.smoke { 4 } else { VARIANTS };
        let source = layered_orders_source(&mut rng);
        let plan = SpecPlan::build(&source, &mut rng, variants, PlanStyle::FiresOnly);
        let connections = host::clients(shape.connections);
        let per_conn = if cfg.smoke {
            (shape.instances / 50).max(shape.window * 2)
        } else {
            shape.instances
        };
        let mut rng = root.fork("instances");
        let mut ordinal = 0u32;
        let instances: Vec<Vec<(u32, u8)>> = (0..connections)
            .map(|_| {
                (0..per_conn)
                    .map(|_| {
                        ordinal += 1;
                        (ordinal - 1, rng.below(variants) as u8)
                    })
                    .collect()
            })
            .collect();
        let scripts: Vec<Vec<Vec<Req>>> = instances
            .iter()
            .map(|ordinals| bursts(&plan, ordinals, &shape))
            .collect();
        // The script is a function of these: the spec, each walk variant,
        // and per connection the `(instance, variant)` list that
        // `bursts` deals into requests.
        let mut files = vec![(format!("{}.ctr", plan.name), plan.source.clone())];
        let mut listing = format!(
            "depth {} window {} bursts_in_flight {}\n",
            shape.depth, shape.window, shape.in_flight
        );
        for (v, ops) in plan.variants.iter().enumerate() {
            let events: Vec<&str> = ops
                .iter()
                .filter_map(|op| match op {
                    super::fleet::PlanOp::Fire(e) => Some(plan.events[*e as usize].as_str()),
                    _ => None,
                })
                .collect();
            let _ = writeln!(listing, "variant {v}: {}", events.join(" "));
        }
        files.push(("variants.txt".to_owned(), listing));
        for (c, ordinals) in instances.iter().enumerate() {
            let mut listing = String::with_capacity(ordinals.len() * 10);
            for (ordinal, variant) in ordinals {
                let _ = writeln!(listing, "#{ordinal} variant {variant}");
            }
            files.push((format!("connection{c}.instances"), listing));
        }
        inputs::save_inputs(shape.name, &files).expect("write generated inputs");
        let start_frame = request_len(&Request::Start {
            workflow: plan.name.clone(),
        });
        let fire_frames = plan
            .events
            .iter()
            .map(|event| {
                request_len(&Request::Fire {
                    instance: 0,
                    event: event.clone(),
                })
            })
            .collect();
        Serve {
            shape,
            plan,
            scripts,
            expected: None,
            status_frame: frame_len(&Response::Status(WireStatus::Running)),
            id_frame: frame_len(&Response::InstanceId(0)),
            start_frame,
            fire_frames,
            wal_dir: {
                // One directory per workload object: concurrent runs (the
                // test harness) must not share a log.
                static NEXT: AtomicU64 = AtomicU64::new(0);
                let unique = NEXT.fetch_add(1, Ordering::Relaxed);
                inputs::out_dir().join("wal").join(format!(
                    "{}-{}-{unique}",
                    shape.name,
                    std::process::id()
                ))
            },
            last_snapshot: None,
            audited: false,
        }
    }

    /// The oracle's snapshot after replaying exactly the requests of
    /// `scripts`, with instances started in the id order the server
    /// chose.
    fn oracle_snapshot(&self, scripts: &[&[Vec<Req>]], ids: &[(u32, u64)]) -> Option<String> {
        let mut oracle = Runtime::new();
        oracle.deploy_source(&self.plan.source).ok()?;
        let mut by_id: Vec<(u64, u32)> = ids.iter().map(|&(ordinal, id)| (id, ordinal)).collect();
        by_id.sort_unstable();
        let max_ordinal = ids.iter().map(|&(o, _)| o).max()? as usize;
        let mut id_of = vec![u64::MAX; max_ordinal + 1];
        for (id, ordinal) in by_id {
            // A gap or reorder in the server's ids shows up as a
            // mismatch here or in the snapshot text.
            if oracle.start(&self.plan.name).ok()? != id {
                return None;
            }
            id_of[ordinal as usize] = id;
        }
        for script in scripts {
            for req in script.iter().flatten() {
                if let Req::Fire(ordinal, event) = *req {
                    oracle
                        .fire(id_of[ordinal as usize], &self.plan.events[event as usize])
                        .ok()?;
                }
            }
        }
        Some(oracle.snapshot())
    }

    /// Drives `scripts` (one per connection) against `child`.
    fn session(
        &self,
        child: &ServeChild,
        scripts: &[&[Vec<Req>]],
        expected: Option<&[Vec<bool>]>,
        check_snapshot: bool,
        tracer: &mut Tracer,
    ) -> Result<(Session, Option<String>), String> {
        let io = |e: std::io::Error| format!("{}: {e}", self.shape.name);
        let wire = |e: ctr_serve::ClientError| format!("{}: {e}", self.shape.name);
        let mut control = Client::connect(&child.addr).map_err(io)?;
        control
            .raw_stream()
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(io)?;
        control.deploy(&self.plan.source).map_err(wire)?;
        let mut clients = Vec::new();
        for _ in scripts {
            let client = Client::connect(&child.addr).map_err(io)?;
            client
                .raw_stream()
                .set_read_timeout(Some(IO_TIMEOUT))
                .map_err(io)?;
            clients.push(client);
        }
        let stats_before = control.stats().map_err(wire)?;
        let server_cpu0 = host::cpu_seconds(child.pid()).unwrap_or(0.0);
        let own_cpu0 = self_cpu_s();
        let barrier = Barrier::new(scripts.len());
        let results: Vec<Result<ConnResult, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .zip(scripts)
                .enumerate()
                .map(|(c, (client, script))| {
                    let barrier = &barrier;
                    let tracer = tracer.sibling();
                    let expected = expected.map(|e| e[c].as_slice());
                    scope.spawn(move || self.drive(client, script, expected, barrier, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread"))
                .collect()
        });
        let generator_cpu_s = self_cpu_s() - own_cpu0;
        let server_cpu_s = host::cpu_seconds(child.pid()).unwrap_or(0.0) - server_cpu0;
        let stats_after = control.stats().map_err(wire)?;
        let mut conns = Vec::new();
        for result in results {
            conns.push(result?);
        }
        let first = conns.iter().map(|c| c.started).min().expect("a connection");
        let last = conns
            .iter()
            .map(|c| c.finished)
            .max()
            .expect("a connection");
        let mut session = Session {
            wall_s: (last - first).as_secs_f64(),
            server_cpu_s,
            generator_cpu_s,
            ops: scripts
                .iter()
                .map(|s| s.iter().map(Vec::len).sum::<usize>())
                .sum::<usize>() as u64,
            failed: 0,
            lat_ns: Vec::new(),
            wire_bytes: 0,
            fsyncs: stats_after.fsyncs - stats_before.fsyncs,
            server_peak_rss_mib: host::peak_rss_mib(child.pid()),
        };
        let mut ids = Vec::new();
        for conn in conns {
            session.failed += conn.failed;
            session.wire_bytes += conn.wire_bytes;
            session.lat_ns.extend(conn.lat_ns);
            ids.extend(conn.ids);
            tracer.merge(conn.tracer);
        }
        let started: u64 = ids.len() as u64;
        if stats_after.instances - stats_before.instances != started {
            session.failed += 1;
        }
        let mut snapshot = None;
        if check_snapshot {
            let served = control.snapshot().map_err(wire)?;
            if self.oracle_snapshot(scripts, &ids).as_deref() != Some(served.as_str()) {
                session.failed += 1;
            }
            snapshot = Some(served);
        }
        Ok((session, snapshot))
    }

    /// One connection's closed loop.
    fn drive(
        &self,
        mut client: Client,
        script: &[Vec<Req>],
        expected: Option<&[bool]>,
        barrier: &Barrier,
        mut tracer: Tracer,
    ) -> Result<ConnResult, String> {
        let wire = |e: ctr_serve::ClientError| format!("{}: {e}", self.shape.name);
        let requests: usize = script.iter().map(Vec::len).sum();
        // A connection's ordinals are one contiguous range; every one of
        // them appears in a `start`.
        let starts = script.iter().flatten().filter_map(|req| match req {
            Req::Start(ordinal) => Some(*ordinal as usize),
            Req::Fire(..) => None,
        });
        let first_ordinal = starts.clone().min().unwrap_or(0);
        let mut id_of = vec![u64::MAX; starts.count()];
        let mut ids = Vec::new();
        let mut lat_ns = Vec::with_capacity(requests);
        let mut failed = 0u64;
        let mut wire_bytes = 0u64;
        let mut answered = 0usize;
        barrier.wait();
        let started = Instant::now();
        // Bursts flushed whose responses are still to be read, and when
        // each one's first send began; `in_flight - 1` of them stay unread while
        // the next burst goes out.
        let in_flight = self.shape.in_flight - 1;
        let mut unread: std::collections::VecDeque<(usize, Instant)> =
            std::collections::VecDeque::new();
        for b in 0..script.len() + in_flight {
            let op = b as u32;
            let outcome: Result<(), String> = tracer.span("op", op, |tracer| {
                if let Some(burst) = script.get(b) {
                    // An op's latency runs from its burst's first send.
                    let t0 = Instant::now();
                    for req in burst {
                        let request = match *req {
                            Req::Start(_) => {
                                wire_bytes += self.start_frame;
                                Request::Start {
                                    workflow: self.plan.name.clone(),
                                }
                            }
                            Req::Fire(ordinal, event) => {
                                wire_bytes += self.fire_frames[event as usize];
                                Request::Fire {
                                    instance: id_of[ordinal as usize - first_ordinal],
                                    event: self.plan.events[event as usize].clone(),
                                }
                            }
                        };
                        tracer.span("serve.client.send", op, |_| client.send(&request));
                    }
                    tracer
                        .span("serve.client.flush", op, |_| client.flush())
                        .map_err(|e| format!("{}: {e}", self.shape.name))?;
                    unread.push_back((b, t0));
                }
                if unread.len() <= in_flight && b < script.len() {
                    return Ok(());
                }
                let Some((sent, t0)) = unread.pop_front() else {
                    return Ok(());
                };
                for req in &script[sent] {
                    let response = tracer
                        .span("serve.client.recv", op, |_| client.recv())
                        .map_err(wire)?;
                    lat_ns.push(t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
                    let ok = match (*req, &response) {
                        (Req::Start(ordinal), Response::InstanceId(id)) => {
                            id_of[ordinal as usize - first_ordinal] = *id;
                            ids.push((ordinal, *id));
                            wire_bytes += self.id_frame;
                            true
                        }
                        (Req::Fire(..), Response::Status(status)) => {
                            wire_bytes += self.status_frame;
                            let completed = *status == WireStatus::from(InstanceStatus::Completed);
                            expected.is_none_or(|e| e[answered] == completed)
                        }
                        _ => false,
                    };
                    failed += u64::from(!ok);
                    answered += 1;
                }
                Ok(())
            });
            outcome?;
        }
        let finished = Instant::now();
        Ok(ConnResult {
            started,
            finished,
            lat_ns,
            failed,
            wire_bytes,
            ids,
            tracer,
        })
    }

    fn fresh_wal_dir(&self) -> Option<PathBuf> {
        if !self.shape.durable {
            return None;
        }
        if self.wal_dir.exists() {
            std::fs::remove_dir_all(&self.wal_dir).expect("clear the previous WAL");
        }
        std::fs::create_dir_all(&self.wal_dir).expect("create the WAL directory");
        Some(self.wal_dir.clone())
    }

    /// The first bursts of every connection, covering at most
    /// [`AUDIT_INSTANCES`] instances in total.
    fn audit_prefix(&self) -> Vec<&[Vec<Req>]> {
        let per_conn = AUDIT_INSTANCES / self.scripts.len() as u32;
        self.scripts
            .iter()
            .map(|script| {
                let mut started = 0u32;
                let mut take = 0;
                for burst in script {
                    started += burst.iter().filter(|r| matches!(r, Req::Start(_))).count() as u32;
                    if started > per_conn {
                        break;
                    }
                    take += 1;
                }
                &script[..take]
            })
            .collect()
    }

    /// Whether a whole repetition's snapshot fits one wire frame.
    fn snapshot_fits(&self) -> bool {
        let instances: usize = self
            .scripts
            .iter()
            .map(|s| {
                s.iter()
                    .flatten()
                    .filter(|r| matches!(r, Req::Start(_)))
                    .count()
            })
            .sum();
        instances <= SNAPSHOT_INSTANCES
    }

    /// Σ compiled goal size of the deployed spec.
    pub fn output_nodes(&self) -> u64 {
        self.plan.compiled_nodes as u64
    }
}

/// How long the fresh process keeps recovering. One recovery of a
/// repetition's WAL takes ≈ 20 ms here, and a fleet large enough to take
/// 0.3 s in one go would cost every durable repetition 15 s of fsyncs;
/// a process's first half second also runs up to 3× slower than the
/// rest of it on this VM, so the median recovery has to sit clear of it.
const RECOVER_FOR: Duration = Duration::from_secs(1);

/// `ctr-bench __recover <dir>`: what the fresh process does — open the
/// WAL (coalesced, like the server that wrote it) and recover the
/// fleet, again and again from the files for [`RECOVER_FOR`] (opening a
/// cleanly shut down log writes nothing), and print the median seconds
/// one recovery took and the recovered snapshot.
pub fn recover_main(dir: &str) -> i32 {
    use ctr_runtime::{Durability, SharedRuntime, WalOptions, WalStore};
    use std::sync::Arc;
    let started = Instant::now();
    let mut passes = Vec::new();
    let runtime = loop {
        let t0 = Instant::now();
        let options = WalOptions {
            durability: Durability::coalesced(),
            ..WalOptions::default()
        };
        let store = match WalStore::open_with(dir, options) {
            Ok(store) => Arc::new(store),
            Err(e) => {
                eprintln!("recover: cannot open `{dir}`: {e}");
                return 1;
            }
        };
        let runtime = match SharedRuntime::open(store) {
            Ok(runtime) => runtime,
            Err(e) => {
                eprintln!("recover: `{dir}`: {e}");
                return 1;
            }
        };
        passes.push(t0.elapsed().as_secs_f64());
        if started.elapsed() >= RECOVER_FOR {
            break runtime;
        }
    };
    println!("recover_s {}", crate::stats::median(&passes));
    print!("{}", runtime.snapshot());
    0
}

/// The three shapes as distinct workload types.
macro_rules! serve_workload {
    ($ty:ident, $shape:expr) => {
        /// See the module docs.
        pub struct $ty(Serve);

        impl Workload for $ty {
            fn generate(cfg: &RunConfig) -> $ty {
                $ty(Serve::new($shape, cfg))
            }
            fn reference(&mut self) {
                self.0.reference()
            }
            fn repetition(&mut self, tracer: &mut Tracer) -> Rep {
                self.0.repetition(tracer)
            }
            fn clients(&self) -> usize {
                self.0.scripts.len()
            }
        }
    };
}
serve_workload!(ServePipelined, PIPELINED);
serve_workload!(ServeRtt, RTT);
serve_workload!(ServeDurable, DURABLE);

impl Serve {
    fn reference(&mut self) {
        // The oracle answers every request of every script once.
        let mut oracle = Runtime::new();
        oracle.deploy_source(&self.plan.source).expect("deploys");
        let mut id_of = std::collections::BTreeMap::new();
        let expected: Vec<Vec<bool>> = self
            .scripts
            .iter()
            .map(|script| {
                script
                    .iter()
                    .flatten()
                    .map(|req| match *req {
                        Req::Start(ordinal) => {
                            id_of.insert(ordinal, oracle.start(&self.plan.name).expect("deployed"));
                            false
                        }
                        Req::Fire(ordinal, event) => {
                            oracle
                                .fire(id_of[&ordinal], &self.plan.events[event as usize])
                                .expect("scripted fires are eligible")
                                == InstanceStatus::Completed
                        }
                    })
                    .collect()
            })
            .collect();
        self.expected = Some(expected);
    }

    fn repetition(&mut self, tracer: &mut Tracer) -> Rep {
        let t0 = Instant::now();
        let wal = self.fresh_wal_dir();
        let child = ServeChild::spawn(wal.as_deref()).expect("spawn `ctr serve`");
        let prepare_s = t0.elapsed().as_secs_f64();

        let mut audit_failed = 0u64;
        let full: Vec<&[Vec<Req>]> = self.scripts.iter().map(Vec::as_slice).collect();
        let fits = self.snapshot_fits();
        let outcome = self.session(&child, &full, self.expected.as_deref(), fits, tracer);
        let (session, snapshot) = match outcome {
            Ok(pair) => pair,
            Err(message) => {
                // A wedged or crashed server fails every op of the
                // repetition rather than the whole run.
                eprintln!("{message}");
                let ops: usize = self.scripts.iter().flatten().map(Vec::len).sum();
                return Rep {
                    prepare_s,
                    wall_s: t0.elapsed().as_secs_f64(),
                    cpu_s: 0.0,
                    ops: ops as u64,
                    failed: ops as u64,
                    ..Rep::default()
                };
            }
        };
        let log_bytes = wal.as_deref().map(inputs::dir_bytes);
        if !child.shutdown() {
            audit_failed += 1;
        }
        if !fits && self.expected.is_some() && !self.audited {
            self.audited = true;
            // Too many instances for one snapshot frame: audit a prefix
            // of the same script against a second fresh server, once.
            let prefix = self.audit_prefix();
            let audited =
                ServeChild::spawn(None)
                    .map_err(|e| e.to_string())
                    .and_then(|audit_child| {
                        let result =
                            self.session(&audit_child, &prefix, None, true, &mut Tracer::off());
                        audit_child.shutdown();
                        result
                    });
            match audited {
                Ok((audit, _)) => audit_failed += audit.failed,
                Err(message) => {
                    eprintln!("{message}");
                    audit_failed += 1;
                }
            }
        }
        if fits {
            self.last_snapshot = snapshot;
        }
        let mut extra = vec![
            ("output_nodes", self.output_nodes() as f64),
            (
                "wire_bytes_per_op",
                session.wire_bytes as f64 / session.ops as f64,
            ),
        ];
        if self.shape.durable {
            match self.recover(self.last_snapshot.as_deref()) {
                Some(seconds) => extra.push(("recover_s", seconds)),
                None => audit_failed += 1,
            }
            let _ = std::fs::remove_dir_all(&self.wal_dir);
            extra.push(("fsyncs_per_op", session.fsyncs as f64 / session.ops as f64));
            extra.push((
                "log_bytes_per_op",
                log_bytes.unwrap_or(0) as f64 / session.ops as f64,
            ));
        }
        Rep {
            prepare_s,
            wall_s: session.wall_s,
            cpu_s: session.server_cpu_s,
            ops: session.ops,
            failed: session.failed + audit_failed,
            lat_ns: session.lat_ns,
            peak_rss_mib: session.server_peak_rss_mib,
            generator_cpu_s: session.generator_cpu_s,
            extra,
            ..Rep::default()
        }
    }

    /// A fresh process reopens the WAL the repetition wrote; what it
    /// recovers must be what the server acknowledged. Returns the
    /// seconds `SharedRuntime::open` took there.
    fn recover(&self, served_snapshot: Option<&str>) -> Option<f64> {
        let output = Command::new(child_exe())
            .arg("__recover")
            .arg(&self.wal_dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .ok()?;
        let text = String::from_utf8_lossy(&output.stdout);
        let (first, snapshot) = text.split_once('\n')?;
        let seconds: f64 = first.strip_prefix("recover_s ")?.parse().ok()?;
        (output.status.success() && served_snapshot == Some(snapshot)).then_some(seconds)
    }
}
