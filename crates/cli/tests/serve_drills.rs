//! Drills against the real `ctr` binary: a `ctr serve` child process
//! driven over the wire by [`Client`].
//!
//! * **Smoke** — a server on an ephemeral port takes a deploy, starts,
//!   and fires at depth 1 and pipelined at depth 64 from two connections
//!   at once. Every answer equals what an in-process [`Runtime`]
//!   answers to the same requests, and a wire `shutdown` ends the process
//!   with exit 0 and "server exited".
//! * **Kill drill** — a store-backed server, under `strict` and then under
//!   `coalesced` durability, is SIGKILLed while pipelined fires are in
//!   flight. The journal is an instance's sole persistent state, and both
//!   levels acknowledge only what is durable, so every acknowledged start
//!   and fire must be there after recovery and after a checkpoint of it,
//!   and nothing past the chain may be. An idle instance started before
//!   the load keeps its armed deadline, due as before, and `advance`
//!   fires it.

use ctr_runtime::{Runtime, WalStore};
use ctr_serve::{Client, ClientError, Fault, Request, Response};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CTR: &str = env!("CARGO_BIN_EXE_ctr");
const WORKFLOW: &str = "chain";
/// Steps of the chain workflow.
const EVENTS: usize = 16;
/// Instances each connection keeps in flight.
const WINDOW: usize = 8;
/// Pipeline depth; well under the server's burst budget of 256.
const DEPTH: usize = 64;

/// The chain workflow: every instance accepts exactly `e0 … e15`, in
/// that order.
fn chain_source() -> String {
    let steps: Vec<String> = (0..EVENTS).map(event).collect();
    format!("workflow {WORKFLOW} {{ graph {}; }}", steps.join(" * "))
}

fn event(step: usize) -> String {
    format!("e{step}")
}

/// A `ctr serve` child, killed on drop so a failing drill leaves no
/// server behind.
struct Served {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Served {
    /// Runs `ctr serve --addr 127.0.0.1:0 ARGS…` and reads the bound
    /// address off its first line.
    fn spawn(args: &[&str]) -> Served {
        let mut child = Command::new(CTR)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn `ctr serve`");
        let stdout = BufReader::new(child.stdout.take().unwrap());
        let mut served = Served {
            child,
            stdout,
            addr: String::new(),
        };
        let mut first = String::new();
        served.stdout.read_line(&mut first).unwrap();
        served.addr = first
            .strip_prefix("serving on ")
            .unwrap_or_else(|| panic!("first line of `ctr serve`: {first:?}"))
            .trim()
            .to_owned();
        served
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr).unwrap()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts `n` instances of the chain in pipelined bursts, pushing each
/// acknowledged id onto `ids`.
fn start(client: &mut Client, n: usize, ids: &mut Vec<u64>) -> Result<(), ClientError> {
    let mut left = n;
    while left > 0 {
        let burst = left.min(DEPTH);
        for _ in 0..burst {
            client.send(&Request::Start {
                workflow: WORKFLOW.to_owned(),
            });
        }
        client.flush()?;
        for _ in 0..burst {
            match client.recv()? {
                Response::InstanceId(id) => ids.push(id),
                other => panic!("start answered {other:?}"),
            }
        }
        left -= burst;
    }
    Ok(())
}

/// Sends `burst` as pipelined fires in one flush and hands each answer,
/// in order, to `answered`.
fn fire(
    client: &mut Client,
    burst: &[(u64, String)],
    mut answered: impl FnMut(u64, &str, Response),
) -> Result<(), ClientError> {
    for (instance, event) in burst {
        client.send(&Request::Fire {
            instance: *instance,
            event: event.clone(),
        });
    }
    client.flush()?;
    for (instance, event) in burst {
        answered(*instance, event, client.recv()?);
    }
    Ok(())
}

/// One smoke connection's fires as `(instance ordinal, event)`:
/// round-robin over `WINDOW` chains, a slot taking the next ordinal when
/// its chain is done. Every seventh fire names the step after the due
/// one, which the instance must refuse. Also returns how many instances
/// the plan needs.
fn plan(fires: usize) -> (Vec<(usize, String)>, usize) {
    let mut slots: Vec<(usize, usize)> = (0..WINDOW).map(|i| (i, 0)).collect();
    let mut instances = WINDOW;
    let mut plan = Vec::with_capacity(fires);
    for k in 0..fires {
        let (ordinal, step) = &mut slots[k % WINDOW];
        if *step == EVENTS {
            (*ordinal, *step) = (instances, 0);
            instances += 1;
        }
        if k % 7 == 6 {
            plan.push((*ordinal, event(*step + 1)));
        } else {
            plan.push((*ordinal, event(*step)));
            *step += 1;
        }
    }
    (plan, instances)
}

/// What one smoke connection sent and was answered: the instances it
/// started, then every fire in order with its answer.
struct Log {
    starts: Vec<u64>,
    fires: Vec<(u64, String, Response)>,
}

/// 300 fires at depth 1, then 3 000 at depth 64, over instances this
/// connection started.
fn smoke_connection(mut client: Client) -> Log {
    const RTT_FIRES: usize = 300;
    let (plan, instances) = plan(RTT_FIRES + 3_000);
    let mut starts = Vec::new();
    start(&mut client, instances, &mut starts).unwrap();
    let plan: Vec<(u64, String)> = plan
        .into_iter()
        .map(|(ordinal, event)| (starts[ordinal], event))
        .collect();
    let (rtt, pipelined) = plan.split_at(RTT_FIRES);
    let mut fires = Vec::with_capacity(plan.len());
    for burst in rtt.chunks(1).chain(pipelined.chunks(DEPTH)) {
        fire(&mut client, burst, |id, event, resp| {
            fires.push((id, event.to_owned(), resp));
        })
        .unwrap();
    }
    Log { starts, fires }
}

#[test]
fn serve_smoke_answers_what_one_runtime_answers_then_shuts_down() {
    let mut served = Served::spawn(&[]);
    let mut control = served.connect();
    let source = chain_source();
    let deployed = control.deploy(&source).unwrap();
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let client = served.connect();
                scope.spawn(move || smoke_connection(client))
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // The oracle: the same requests, one connection after the other.
    // Connections share no instance, so each instance sees its requests
    // in the order the server did.
    let oracle = Runtime::new();
    assert_eq!(deployed, oracle.deploy_source(&source).unwrap());
    let mut refused = 0;
    for log in &logs {
        let local: BTreeMap<u64, u64> = log
            .starts
            .iter()
            .map(|&wire| (wire, oracle.start(WORKFLOW).unwrap()))
            .collect();
        for (i, (wire, event, got)) in log.fires.iter().enumerate() {
            let want = match oracle.fire(local[wire], event) {
                Ok(status) => Response::Status(status.into()),
                Err(e) => {
                    refused += 1;
                    Response::Error(Fault::from_runtime(&e))
                }
            };
            assert_eq!(got, &want, "fire {i}: `{event}` on instance {wire}");
        }
    }
    assert!(
        refused > 0,
        "the plan's out-of-order fires were all accepted"
    );

    control.shutdown().unwrap();
    let status = served.child.wait().unwrap();
    assert!(status.success(), "`ctr serve` exited with {status}");
    let mut rest = String::new();
    served.stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("server exited"), "{rest:?}");
}

/// Fires until the server goes away: a window of instances started in
/// one burst, their chains walked `DEPTH` fires a burst, then the next
/// window. Each burst's count of acknowledged fires goes to `acks`.
/// Returns every acknowledged instance with its count of acknowledged
/// fires (each chain is fired in order, so that count is the acknowledged
/// prefix).
fn fire_until_killed(mut client: Client, acks: Sender<usize>) -> BTreeMap<u64, usize> {
    let mut acked = BTreeMap::new();
    loop {
        let mut ids = Vec::new();
        let started = start(&mut client, WINDOW, &mut ids);
        acked.extend(ids.iter().map(|&id| (id, 0)));
        if started.is_err() {
            return acked;
        }
        let plan: Vec<(u64, String)> = (0..EVENTS)
            .flat_map(|step| ids.iter().map(move |&id| (id, event(step))))
            .collect();
        for burst in plan.chunks(DEPTH) {
            let mut fired = 0;
            let answered = fire(&mut client, burst, |id, event, resp| match resp {
                Response::Status(_) => {
                    *acked.get_mut(&id).unwrap() += 1;
                    fired += 1;
                }
                other => panic!("`{event}` on instance {id} answered {other:?}"),
            });
            let _ = acks.send(fired);
            if answered.is_err() {
                return acked;
            }
        }
    }
}

/// The workflow of the drill's idle instance: its deadline is armed at
/// start and stays pending while nothing fires.
const TIMED: &str = "workflow timed { graph a * b; deadline(b, 1s); }";

/// Runs `ctr run --store STORE ARGS…`, which must succeed, and returns
/// what it printed.
fn ctr_run(store: &str, args: &[&str]) -> String {
    let run = Command::new(CTR)
        .args(["run", "--store", store])
        .args(args)
        .output()
        .unwrap();
    let out = String::from_utf8_lossy(&run.stdout).into_owned();
    assert!(
        run.status.success(),
        "`ctr run {}`: {out}{}",
        args.join(" "),
        String::from_utf8_lossy(&run.stderr)
    );
    out
}

#[test]
fn every_acknowledged_fire_survives_kill_9() {
    for durability in ["strict", "coalesced"] {
        kill_drill(durability);
    }
}

/// SIGKILLs a store-backed server at `durability` under pipelined load,
/// then checks what recovery finds against what the server acknowledged.
fn kill_drill(durability: &str) {
    const KILL_AFTER: usize = 1_000;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "serve_drills_kill_{durability}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.to_str().unwrap();
    let mut served = Served::spawn(&["--store", store, "--durability", durability]);
    let mut control = served.connect();
    assert_eq!(control.deploy(&chain_source()).unwrap(), WORKFLOW);
    assert_eq!(control.deploy(TIMED).unwrap(), "timed");
    let idle = control.start("timed").unwrap();
    let deadline = ("b@deadline1000".to_owned(), 1000);
    assert_eq!(control.timers(idle).unwrap(), [deadline]);

    let (acks, acked_so_far) = mpsc::channel();
    let acked: BTreeMap<u64, usize> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (client, acks) = (served.connect(), acks.clone());
                scope.spawn(move || fire_until_killed(client, acks))
            })
            .collect();
        drop(acks);
        // Kill once enough fires are acknowledged, or once every worker
        // has stopped or the deadline passed (the count check below then
        // fails).
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut seen = 0;
        while seen < KILL_AFTER {
            match acked_so_far.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(fired) => seen += fired,
                Err(_) => break,
            }
        }
        served.child.kill().unwrap();
        served.child.wait().unwrap();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    let fires: usize = acked.values().sum();
    assert!(
        fires >= KILL_AFTER,
        "{durability}: only {fires} fires acknowledged before the kill"
    );

    // Recover, checkpoint what came back, and recover from the checkpoint.
    assert!(ctr_run(store, &["recover"]).contains("recovered"));
    ctr_run(store, &["snapshot"]);
    assert!(ctr_run(store, &["recover"]).contains("recovered"));

    let rt = Runtime::open(Arc::new(WalStore::open(&dir).unwrap())).unwrap();
    let chain: Vec<String> = (0..EVENTS).map(event).collect();
    let mut journaled = 0;
    for (&id, &n) in &acked {
        let journal = rt
            .journal(id)
            .unwrap_or_else(|e| panic!("acknowledged instance {id} is gone: {e}"));
        // The acknowledged fires are the chain's first `n` steps.
        assert!(
            n <= journal.len() && chain.starts_with(&journal),
            "instance {id}: {n} fires acknowledged, journal {journal:?}"
        );
        journaled += journal.len();
    }
    println!(
        "{durability}: {fires} acknowledged fires over {} instances, all recovered \
         ({journaled} journaled)",
        acked.len()
    );
    drop(rt);

    // The idle instance's deadline is back with the same due, and
    // advancing the recovered clock fires it.
    let idle = idle.to_string();
    let timers = ctr_run(store, &["timers", &idle]);
    assert!(timers.contains("b@deadline1000 due 1000ms"), "{timers}");
    let advanced = ctr_run(store, &["advance", "1000"]);
    assert!(
        advanced.contains(&format!("instance {idle}: b@deadline1000")),
        "{advanced}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
