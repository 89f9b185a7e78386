//! Thread-per-connection TCP server over one [`SharedRuntime`].
//!
//! ## Burst batching — the perf core
//!
//! A connection thread's read loop does not process one request per
//! socket read. It blocks for the *first* byte, then drains everything
//! the kernel has already buffered (a non-blocking drain, bounded at
//! 256 KiB), decodes every complete frame, and executes the whole
//! **burst** before writing any response:
//!
//! * the hot verbs are decoded *in place* — a `fire`'s event name is a
//!   `&str` into the receive buffer, not a `String`
//!   ([`protocol::decode_request_view`]);
//! * maximal runs of adjacent `fire` / `fire_batch` requests are
//!   submitted as **one** [`SharedRuntime::fire_runs_into`] burst — one
//!   shard-lock resolution, one instance-lock acquisition per
//!   referenced instance, and one WAL append (one group commit) per
//!   instance per burst, instead of one of each per request — and
//!   answered from the burst's one outcome vector;
//! * every other verb is a barrier executed in arrival order;
//! * all responses of the burst leave in one `write` + flush.
//!
//! Every vector this takes belongs to the connection and is reused, so
//! serving a fire allocates nothing the fire itself does not.
//!
//! Request *semantics* are untouched: `fire_runs_into` keeps every
//! pipelined request's identity (its failure stops only itself), and
//! responses are FIFO, so a client cannot distinguish a batching
//! server from a naive one except by throughput. Per-instance journal
//! order is the connection's request order — the server batches, it
//! never reorders.
//!
//! ## Admission control
//!
//! In-flight state per connection is bounded twice over: the drain
//! stops at 256 KiB (the kernel's socket buffer then applies
//! TCP backpressure to the client), and a burst executes at most
//! [`ServeOptions::max_burst_requests`] requests — the excess is
//! answered with a typed [`FaultCode::Busy`] error instead of queueing
//! without bound. A `Busy` request was **not** executed; the client
//! retries it after draining its responses.
//!
//! ## Protocol faults
//!
//! A frame that fails CRC, oversteps [`protocol::MAX_FRAME`], carries
//! an unknown verb, or decodes short/long earns a best-effort
//! [`FaultCode::Protocol`] error response and a closed connection —
//! once framing is in doubt every later byte is, so the server never
//! guesses. Requests of the same burst that decoded cleanly *before*
//! the corrupt frame are executed and answered first; the corrupt
//! frame itself commits nothing.
//!
//! ## Locks held
//!
//! A connection thread calls into the runtime with **no** locks of its
//! own, so the runtime's lock order is the whole story: in particular
//! a `snapshot` request (which takes every shard and instance lock)
//! runs *between* `fire_runs_into` bursts, never inside one, so it cannot
//! deadlock against this or any other connection's burst.

use crate::protocol::{
    self, Fault, FaultCode, Request, RequestView, Response, WireOutcome, WireStats,
};
use ctr_runtime::{BurstScratch, FireOutcome, SharedRuntime};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Stop draining the socket once this many unprocessed bytes are
/// buffered (TCP backpressure bounds the rest).
const MAX_BURST_BYTES: usize = 256 * 1024;

/// Tuning knobs for [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Most requests one burst will execute; the rest get
    /// [`FaultCode::Busy`].
    pub max_burst_requests: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_burst_requests: 256,
        }
    }
}

struct Inner {
    shutdown: AtomicBool,
    /// Clones of live connection streams, so shutdown can unblock
    /// their reads with `Shutdown::Both`.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    opts: ServeOptions,
    addr: SocketAddr,
}

impl Inner {
    /// Flips the shutdown flag, kicks every blocked connection read,
    /// and unblocks the accept loop. Idempotent.
    fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for conn in lock(&self.conns).values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // A throwaway connection unblocks `accept`; the loop re-checks
        // the flag before serving it.
        let _ = TcpStream::connect(self.addr);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A handle that can stop a running [`Server`] from another thread
/// (the in-process equivalent of the wire `shutdown` verb).
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Stops the server: wakes the accept loop and every connection.
    pub fn shutdown(&self) {
        self.inner.trigger_shutdown();
    }
}

/// The TCP front-end: `bind`, then `run` (which blocks until the wire
/// `shutdown` verb or a [`ServerHandle::shutdown`]).
pub struct Server {
    runtime: SharedRuntime,
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port; read it back
    /// with [`Server::local_addr`]).
    pub fn bind(runtime: SharedRuntime, addr: &str, opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            runtime,
            listener,
            inner: Arc::new(Inner {
                shutdown: AtomicBool::new(false),
                conns: Mutex::new(BTreeMap::new()),
                next_conn: AtomicU64::new(0),
                opts,
                addr,
            }),
        })
    }

    /// The bound address (the ephemeral port, if 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// A shutdown handle, cloneable across threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Accepts connections until shutdown, one thread per connection;
    /// joins every connection thread before returning, so when `run`
    /// returns the runtime is quiescent and (if store-backed) every
    /// acknowledged fire is persisted.
    pub fn run(self) -> io::Result<()> {
        let mut workers = Vec::new();
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) if self.inner.shutdown.load(Ordering::SeqCst) => break,
                Err(e) => return Err(e),
            };
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let conn_id = self.inner.next_conn.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                lock(&self.inner.conns).insert(conn_id, clone);
            }
            let runtime = self.runtime.clone();
            let inner = Arc::clone(&self.inner);
            workers.push(std::thread::spawn(move || {
                let _ = serve_connection(&runtime, stream, &inner);
                lock(&inner.conns).remove(&conn_id);
            }));
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// The responses of one burst, framed back to back in request order —
/// the one place the server encodes anything it sends.
#[derive(Default)]
struct Replies {
    /// The frames, written to the socket in one piece.
    frames: Vec<u8>,
    /// The payload being framed.
    payload: Vec<u8>,
}

impl Replies {
    fn push(&mut self, resp: &Response) {
        self.frame(|payload| protocol::encode_response(resp, payload));
    }

    /// The answer to a `fire_batch`, from the runtime's outcomes.
    fn push_outcomes(&mut self, outcomes: &[FireOutcome]) {
        self.frame(|payload| protocol::encode_outcomes(outcomes, payload));
    }

    fn frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        self.payload.clear();
        encode(&mut self.payload);
        protocol::encode_frame(&self.payload, &mut self.frames);
    }
}

/// One fire verb as `SharedRuntime::fire_runs_into` takes it.
type Run<'r, 'a> = (u64, &'r [&'a str]);

/// `v`, emptied, as a vector whose elements may borrow from somewhere
/// else: how a connection keeps the allocation of a vector of views
/// from one burst to the next although each burst's views borrow the
/// receive buffer afresh. Only for `T` and `U` that differ in lifetimes
/// alone — the standard library then collects in place and the
/// capacity carries over (CI pins the allocation count that shows it).
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector was cleared"))
        .collect()
}

/// Drives one connection; returns on client close, protocol fault,
/// I/O error, or shutdown.
///
/// Everything a burst needs — the decoded views, the event names they
/// point to, the runs handed to the runtime, the planner's tables and
/// outcomes, the encoded replies — lives in vectors this function owns
/// and reuses, so a connection in steady state allocates nothing per
/// burst, whether the burst is one request or 256.
fn serve_connection(rt: &SharedRuntime, mut stream: TcpStream, inner: &Inner) -> io::Result<()> {
    // Responses are written in one buffered burst; Nagle would only
    // add latency on top of that.
    let _ = stream.set_nodelay(true);
    let mut rx: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut replies = Replies::default();
    let mut planner = BurstScratch::new();
    // Empty between bursts ([`recycle`]).
    let mut spare_requests: Vec<RequestView<'static>> = Vec::new();
    let mut spare_names: Vec<&'static str> = Vec::new();
    let mut spare_runs: Vec<Run<'static, 'static>> = Vec::new();
    loop {
        // Blocking read for the first byte of the next burst…
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        rx.extend_from_slice(&chunk[..n]);
        // …then drain whatever else is already buffered, without
        // blocking — this is the window that turns a pipelined client
        // into one `fire_runs_into` burst.
        if rx.len() < MAX_BURST_BYTES {
            stream.set_nonblocking(true)?;
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => {
                        rx.extend_from_slice(&chunk[..n]);
                        if rx.len() >= MAX_BURST_BYTES {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        stream.set_nonblocking(false)?;
                        return Err(e);
                    }
                }
            }
            stream.set_nonblocking(false)?;
        }
        // Decode every complete frame of the burst, in place.
        let mut requests: Vec<RequestView<'_>> = std::mem::take(&mut spare_requests);
        let mut names: Vec<&str> = std::mem::take(&mut spare_names);
        let mut runs: Vec<Run<'_, '_>> = std::mem::take(&mut spare_runs);
        let mut consumed = 0usize;
        let wire_fault = loop {
            let view = match protocol::split_frame(&rx[consumed..]) {
                Ok(None) => break None,
                Ok(Some((frame_len, payload))) => {
                    consumed += frame_len;
                    protocol::decode_request_view(payload, &mut names)
                }
                Err(e) => Err(e),
            };
            match view {
                Ok(view) => requests.push(view),
                Err(e) => break Some(e),
            }
        };
        // Execute the burst and write every response at once.
        replies.frames.clear();
        let shutdown = execute_burst(
            rt,
            &requests,
            &names,
            inner.opts.max_burst_requests,
            &mut runs,
            &mut planner,
            &mut replies,
        );
        if let Some(e) = &wire_fault {
            replies.push(&Response::Error(Fault {
                code: FaultCode::Protocol,
                message: e.to_string(),
            }));
        }
        stream.write_all(&replies.frames)?;
        stream.flush()?;
        if wire_fault.is_some() {
            // Framing is in doubt: close rather than resynchronize.
            let _ = stream.shutdown(Shutdown::Both);
            return Ok(());
        }
        if shutdown {
            inner.trigger_shutdown();
            return Ok(());
        }
        spare_runs = recycle(runs);
        spare_names = recycle(names);
        spare_requests = recycle(requests);
        // What is left is the prefix of a frame still on its way.
        rx.drain(..consumed);
    }
}

/// Executes one burst in request order, pushing one response per
/// request onto `replies`; returns whether a shutdown was requested.
///
/// Maximal runs of `Fire`/`FireBatch` become one `fire_runs_into` call
/// (`names` is what the views were decoded into, `runs` and `planner`
/// are working memory); requests beyond `budget` are answered `Busy`
/// unexecuted.
fn execute_burst<'r, 'a>(
    rt: &SharedRuntime,
    requests: &'r [RequestView<'a>],
    names: &'r [&'a str],
    budget: usize,
    runs: &mut Vec<Run<'r, 'a>>,
    planner: &mut BurstScratch,
    replies: &mut Replies,
) -> bool {
    let (admitted, refused) = requests.split_at(budget.min(requests.len()));
    let mut shutdown = false;
    let mut i = 0;
    while i < admitted.len() {
        if let RequestView::Owned(req) = &admitted[i] {
            replies.push(&execute_one(rt, req, &mut shutdown));
            i += 1;
            continue;
        }
        let start = i;
        runs.clear();
        while let Some(run) = admitted.get(i).and_then(|req| req.as_run(names)) {
            runs.push(run);
            i += 1;
        }
        rt.fire_runs_into(runs, planner);
        for (run, req) in admitted[start..i].iter().enumerate() {
            let outcomes = planner.outcomes(run);
            match req {
                RequestView::Fire { .. } => replies.push(&match &outcomes[0] {
                    FireOutcome::Fired(status) => Response::Status((*status).into()),
                    FireOutcome::Rejected(e) => Response::Error(Fault::from_runtime(e)),
                    FireOutcome::Skipped => unreachable!("a singleton run is never skipped"),
                }),
                _ => replies.push_outcomes(outcomes),
            }
        }
    }
    if !refused.is_empty() {
        let busy = Response::Error(Fault {
            code: FaultCode::Busy,
            message: format!("burst budget of {budget} requests exceeded; retry"),
        });
        for _ in refused {
            replies.push(&busy);
        }
    }
    shutdown
}

/// Executes one barrier request.
fn execute_one(rt: &SharedRuntime, req: &Request, shutdown: &mut bool) -> Response {
    match req {
        Request::Deploy { source } => match rt.deploy_source(source) {
            Ok(name) => Response::Name(name),
            Err(e) => Response::Error(Fault::from_runtime(&e)),
        },
        Request::Start { workflow } => match rt.start(workflow) {
            Ok(id) => Response::InstanceId(id),
            Err(e) => Response::Error(Fault::from_runtime(&e)),
        },
        Request::FireMany { pairs } => Response::Outcomes(
            rt.fire_many(pairs)
                .iter()
                .map(WireOutcome::from_runtime)
                .collect(),
        ),
        // The hot poll path: interned symbols go straight onto the wire
        // (`Response::Symbols` encodes as `Names`), so a poll allocates
        // no per-name `String`s server-side.
        Request::Eligible { instance } => match rt.eligible_symbols(*instance) {
            Ok(events) => Response::Symbols(events),
            Err(e) => Response::Error(Fault::from_runtime(&e)),
        },
        Request::Snapshot => Response::Text(rt.snapshot()),
        Request::Stats => {
            let stats = rt.store_stats().unwrap_or_default();
            Response::Stats(WireStats {
                appends: stats.appends,
                events: stats.events,
                fsyncs: stats.fsyncs,
                instances: rt.instances().len() as u64,
                timers: rt.pending_timer_count() as u64,
                clock_ms: rt.clock_ms(),
            })
        }
        Request::Timers { instance } => match rt.pending_timers(*instance) {
            Ok(timers) => Response::Timers(timers),
            Err(e) => Response::Error(Fault::from_runtime(&e)),
        },
        Request::Advance { to_ms } => match rt.advance(*to_ms) {
            Ok(fired) => Response::Fired(fired),
            Err(e) => Response::Error(Fault::from_runtime(&e)),
        },
        Request::CancelTimer { instance, event } => match rt.cancel_timer(*instance, event) {
            Ok(()) => Response::Unit,
            Err(e) => Response::Error(Fault::from_runtime(&e)),
        },
        Request::Shutdown => {
            *shutdown = true;
            Response::Unit
        }
        Request::Fire { .. } | Request::FireBatch { .. } => {
            unreachable!("the decoder hands fire verbs out as views")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireStatus;

    const PAY: &str = "workflow pay { graph invoice * (approve + reject) * file; }";

    /// Runs `requests` as one burst the way a connection would — from
    /// their wire form, through the view decoder — and decodes what it
    /// answered; also whether the burst asked for a shutdown.
    fn run_burst(rt: &SharedRuntime, requests: &[Request], budget: usize) -> (Vec<Response>, bool) {
        let payloads: Vec<Vec<u8>> = requests
            .iter()
            .map(|req| {
                let mut payload = Vec::new();
                protocol::encode_request(req, &mut payload);
                payload
            })
            .collect();
        let mut names = Vec::new();
        let views: Vec<RequestView<'_>> = payloads
            .iter()
            .map(|payload| protocol::decode_request_view(payload, &mut names).unwrap())
            .collect();
        let mut replies = Replies::default();
        let shutdown = execute_burst(
            rt,
            &views,
            &names,
            budget,
            &mut Vec::new(),
            &mut BurstScratch::new(),
            &mut replies,
        );
        let mut responses = Vec::new();
        let mut rest = replies.frames.as_slice();
        while let Some((len, payload)) = protocol::split_frame(rest).unwrap() {
            responses.push(protocol::decode_response(payload).unwrap());
            rest = &rest[len..];
        }
        (responses, shutdown)
    }

    fn collect_burst(rt: &SharedRuntime, requests: &[Request], budget: usize) -> Vec<Response> {
        run_burst(rt, requests, budget).0
    }

    #[test]
    fn bursts_answer_every_request_in_order() {
        let rt = SharedRuntime::new();
        rt.deploy_source(PAY).unwrap();
        let id = rt.start("pay").unwrap();
        let requests = vec![
            Request::Fire {
                instance: id,
                event: "invoice".into(),
            },
            Request::FireBatch {
                instance: id,
                events: vec!["approve".into(), "file".into()],
            },
            Request::Eligible { instance: id },
        ];
        let responses = collect_burst(&rt, &requests, 256);
        assert_eq!(responses.len(), 3);
        assert!(matches!(
            responses[0],
            Response::Status(WireStatus::Running)
        ));
        match &responses[1] {
            Response::Outcomes(outcomes) => {
                assert_eq!(outcomes.len(), 2);
                assert!(outcomes.iter().all(|o| matches!(o, WireOutcome::Fired(_))));
            }
            other => panic!("expected Outcomes, got {other:?}"),
        }
        match &responses[2] {
            Response::Names(events) => assert!(events.is_empty(), "completed: {events:?}"),
            other => panic!("expected Names, got {other:?}"),
        }
        assert_eq!(
            rt.journal(id).unwrap(),
            vec!["invoice", "approve", "file"],
            "burst coalescing must not reorder a single instance's events"
        );
    }

    #[test]
    fn timer_verbs_list_advance_and_cancel() {
        const TIMED: &str =
            "workflow timed { graph invoice * approve * file; after(approve, 30s); }";
        let rt = SharedRuntime::new();
        rt.deploy_source(TIMED).unwrap();
        let id = rt.start("timed").unwrap();
        let requests = vec![
            Request::Timers { instance: id },
            Request::Advance { to_ms: 30_000 },
            Request::Stats,
            Request::CancelTimer {
                instance: id,
                event: "approve@after30000".into(),
            },
        ];
        let responses = collect_burst(&rt, &requests, 256);
        match &responses[0] {
            Response::Timers(timers) => {
                assert_eq!(
                    timers.as_slice(),
                    &[("approve@after30000".to_owned(), 30_000)]
                );
            }
            other => panic!("expected Timers, got {other:?}"),
        }
        match &responses[1] {
            Response::Fired(fired) => {
                assert_eq!(fired.as_slice(), &[(id, "approve@after30000".to_owned())]);
            }
            other => panic!("expected Fired, got {other:?}"),
        }
        match &responses[2] {
            Response::Stats(stats) => {
                assert_eq!(stats.timers, 0, "the fired timer left the wheel");
                assert_eq!(stats.clock_ms, 30_000);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        // The timer already fired, so cancelling it is a typed fault.
        match &responses[3] {
            Response::Error(fault) => assert_eq!(fault.code, FaultCode::UnknownTimer),
            other => panic!("expected UnknownTimer, got {other:?}"),
        }
    }

    #[test]
    fn requests_beyond_the_burst_budget_are_busy_not_executed() {
        let rt = SharedRuntime::new();
        rt.deploy_source(PAY).unwrap();
        let id = rt.start("pay").unwrap();
        let requests = vec![
            Request::Fire {
                instance: id,
                event: "invoice".into(),
            },
            Request::Fire {
                instance: id,
                event: "approve".into(),
            },
            Request::Fire {
                instance: id,
                event: "file".into(),
            },
        ];
        let responses = collect_burst(&rt, &requests, 2);
        assert_eq!(responses.len(), 3, "refused requests still get answers");
        assert!(matches!(
            responses[0],
            Response::Status(WireStatus::Running)
        ));
        assert!(matches!(
            responses[1],
            Response::Status(WireStatus::Running)
        ));
        match &responses[2] {
            Response::Error(fault) => assert_eq!(fault.code, FaultCode::Busy),
            other => panic!("expected Busy, got {other:?}"),
        }
        // The refused fire never reached the runtime.
        assert_eq!(rt.journal(id).unwrap(), vec!["invoice", "approve"]);
        assert_eq!(rt.eligible(id).unwrap(), vec!["file"]);
    }

    #[test]
    fn shutdown_mid_burst_still_answers_the_rest() {
        let rt = SharedRuntime::new();
        rt.deploy_source(PAY).unwrap();
        let id = rt.start("pay").unwrap();
        let requests = vec![
            Request::Shutdown,
            Request::Fire {
                instance: id,
                event: "invoice".into(),
            },
        ];
        let (out, shutdown) = run_burst(&rt, &requests, 256);
        assert!(shutdown);
        assert!(matches!(out[0], Response::Unit));
        assert!(matches!(out[1], Response::Status(WireStatus::Running)));
    }
}
