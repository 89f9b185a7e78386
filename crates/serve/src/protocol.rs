//! The wire protocol: length-prefixed, CRC-checked binary frames.
//!
//! Every message — request or response — travels as one **frame**:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! `len` is the payload length (at most [`MAX_FRAME`]); `crc` is the
//! CRC-32 (IEEE) of the payload. The WAL's record frames have the same
//! layout, and both are written by [`ctr_store::put_frame`] and split by
//! [`ctr_store::split_frame`]; only the length ceiling differs. The check
//! is not decorative: a frame whose CRC mismatches is a transport-level
//! fault ([`WireError::BadCrc`]), and the server closes the connection
//! rather than guess at intent.
//!
//! Payloads are a one-byte tag (request verb or response kind) followed
//! by the body. Scalars are little-endian; strings are `u32` length +
//! UTF-8 bytes; vectors are `u32` count + elements. Decoding is strict
//! both ways: a body shorter than its fields claim is
//! [`WireError::Truncated`], longer is [`WireError::Trailing`] — a
//! complete frame either decodes to exactly one typed message or fails
//! with a typed error, never partially.
//!
//! Responses carry no request ids: the server answers every request of
//! a connection **in request order** (pipelining is FIFO), so the
//! correlation is positional, like Redis.

use ctr_runtime::{FireOutcome, InstanceStatus, RuntimeError, Symbol};
use ctr_store::FrameError;
use std::fmt;
use std::ops::Range;

/// Hard ceiling on a frame's payload length. Large enough for any
/// realistic snapshot page or batch, small enough that a corrupt or
/// hostile length prefix cannot balloon the receive buffer.
pub const MAX_FRAME: usize = 1 << 20;

/// Frame header length: payload length + CRC, both `u32` LE.
pub const FRAME_HEADER: usize = ctr_store::FRAME_HEADER;

/// Typed decoding faults. Any of these on the server side earns the
/// client a [`FaultCode::Protocol`] error response (best effort) and a
/// closed connection — once framing is in doubt, every later byte is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// The payload does not match its CRC.
    BadCrc,
    /// The first payload byte is not a known request verb.
    UnknownVerb(u8),
    /// The first payload byte is not a known response kind.
    UnknownKind(u8),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// The payload ends before its declared fields do.
    Truncated,
    /// The payload has bytes left over after its last field.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversized(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            WireError::BadCrc => write!(f, "frame payload does not match its crc"),
            WireError::UnknownVerb(v) => write!(f, "unknown request verb 0x{v:02x}"),
            WireError::UnknownKind(k) => write!(f, "unknown response kind 0x{k:02x}"),
            WireError::BadUtf8 => write!(f, "string field is not valid utf-8"),
            WireError::Truncated => write!(f, "payload ends before its declared fields"),
            WireError::Trailing(n) => write!(f, "{n} bytes of trailing garbage after payload"),
        }
    }
}

impl std::error::Error for WireError {}

// --- Framing ---------------------------------------------------------------

/// Appends one frame carrying `payload` to `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_FRAME);
    ctr_store::put_frame(payload, out);
}

/// Attempts to split one frame off the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a frame prefix (read more
/// bytes and retry) and `Ok(Some((consumed, payload)))` for a complete,
/// CRC-verified frame. Oversized lengths and CRC mismatches are typed
/// errors — the caller must drop the connection, since byte alignment
/// can no longer be trusted.
pub fn split_frame(buf: &[u8]) -> Result<Option<(usize, &[u8])>, WireError> {
    ctr_store::split_frame(buf, MAX_FRAME).map_err(|e| match e {
        FrameError::Oversized(len) => WireError::Oversized(len),
        FrameError::BadCrc => WireError::BadCrc,
    })
}

// --- Body primitives -------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Strict reader over a payload: every `take_*` fails typed on
/// underrun, and [`Reader::finish`] fails typed on leftovers.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A string field, borrowed from the payload.
    fn take_str(&mut self) -> Result<&'a str, WireError> {
        let len = self.take_u32()? as usize;
        // The length is bounded by the frame, so `take` rejects any
        // claim the payload cannot back.
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
    }

    /// A string field, copied out.
    fn take_string(&mut self) -> Result<String, WireError> {
        self.take_str().map(str::to_owned)
    }

    fn take_count(&mut self) -> Result<usize, WireError> {
        let n = self.take_u32()? as usize;
        // A count can never exceed the remaining bytes (every element
        // is at least one byte): reject early instead of letting a
        // hostile count drive a huge reserve.
        if n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Trailing(self.buf.len()))
        }
    }
}

// --- Requests --------------------------------------------------------------

const VERB_DEPLOY: u8 = 0x01;
const VERB_START: u8 = 0x02;
const VERB_FIRE: u8 = 0x03;
const VERB_FIRE_BATCH: u8 = 0x04;
const VERB_FIRE_MANY: u8 = 0x05;
const VERB_ELIGIBLE: u8 = 0x06;
const VERB_SNAPSHOT: u8 = 0x07;
const VERB_STATS: u8 = 0x08;
const VERB_SHUTDOWN: u8 = 0x09;
const VERB_TIMERS: u8 = 0x0A;
const VERB_ADVANCE: u8 = 0x0B;
const VERB_CANCEL_TIMER: u8 = 0x0C;

/// One client request. The `Fire`/`FireBatch` verbs are the hot path:
/// the server decodes them as [`RequestView`]s and coalesces adjacent
/// pipelined ones into a single `Runtime::fire_runs_into` burst
/// (see `server.rs`); everything else is a barrier executed in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Deploy a workflow from source text; answers [`Response::Name`].
    Deploy { source: String },
    /// Start an instance; answers [`Response::InstanceId`].
    Start { workflow: String },
    /// Fire one event; answers [`Response::Status`].
    Fire { instance: u64, event: String },
    /// Fire an ordered batch on one instance; answers
    /// [`Response::Outcomes`] (one per event).
    FireBatch { instance: u64, events: Vec<String> },
    /// Fire a mixed `(instance, event)` batch; answers
    /// [`Response::Outcomes`] (one per pair, input positions).
    FireMany { pairs: Vec<(u64, String)> },
    /// Observable eligible events; answers [`Response::Names`].
    Eligible { instance: u64 },
    /// Consistent fleet snapshot; answers [`Response::Text`].
    Snapshot,
    /// Store / fleet counters; answers [`Response::Stats`].
    Stats,
    /// Stop the server (after answering [`Response::Unit`]).
    Shutdown,
    /// Pending timers of one instance; answers [`Response::Timers`].
    Timers { instance: u64 },
    /// Advance the fleet's logical clock, firing every timer due at or
    /// before `to_ms`; answers [`Response::Fired`].
    Advance { to_ms: u64 },
    /// Cancel a pending timer by its guarded event name; answers
    /// [`Response::Unit`].
    CancelTimer { instance: u64, event: String },
}

/// Encodes a request payload (frame it with [`encode_frame`]).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Deploy { source } => {
            out.push(VERB_DEPLOY);
            put_str(out, source);
        }
        Request::Start { workflow } => {
            out.push(VERB_START);
            put_str(out, workflow);
        }
        Request::Fire { instance, event } => {
            out.push(VERB_FIRE);
            put_u64(out, *instance);
            put_str(out, event);
        }
        Request::FireBatch { instance, events } => {
            out.push(VERB_FIRE_BATCH);
            put_u64(out, *instance);
            out.extend_from_slice(&(events.len() as u32).to_le_bytes());
            for event in events {
                put_str(out, event);
            }
        }
        Request::FireMany { pairs } => {
            out.push(VERB_FIRE_MANY);
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (instance, event) in pairs {
                put_u64(out, *instance);
                put_str(out, event);
            }
        }
        Request::Eligible { instance } => {
            out.push(VERB_ELIGIBLE);
            put_u64(out, *instance);
        }
        Request::Snapshot => out.push(VERB_SNAPSHOT),
        Request::Stats => out.push(VERB_STATS),
        Request::Shutdown => out.push(VERB_SHUTDOWN),
        Request::Timers { instance } => {
            out.push(VERB_TIMERS);
            put_u64(out, *instance);
        }
        Request::Advance { to_ms } => {
            out.push(VERB_ADVANCE);
            put_u64(out, *to_ms);
        }
        Request::CancelTimer { instance, event } => {
            out.push(VERB_CANCEL_TIMER);
            put_u64(out, *instance);
            put_str(out, event);
        }
    }
}

/// A decoded request as the server's read loop holds it: the hot verbs
/// as views whose event names still sit in the payload they were decoded
/// from, every other verb owned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestView<'a> {
    /// [`Request::Fire`].
    Fire { instance: u64, event: &'a str },
    /// [`Request::FireBatch`]; its events are `names[events]` of the
    /// vector [`decode_request_view`] appended them to.
    FireBatch { instance: u64, events: Range<usize> },
    /// Any other verb.
    Owned(Request),
}

impl<'a> RequestView<'a> {
    /// A hot verb as the run it asks `Runtime::fire_runs_into`
    /// for; `None` for the barrier verbs. `names` is the vector the view
    /// was decoded into.
    pub fn as_run<'r>(&'r self, names: &'r [&'a str]) -> Option<(u64, &'r [&'a str])> {
        match self {
            RequestView::Fire { instance, event } => Some((*instance, std::slice::from_ref(event))),
            RequestView::FireBatch { instance, events } => {
                Some((*instance, &names[events.clone()]))
            }
            RequestView::Owned(_) => None,
        }
    }

    /// The request, owning its strings. (Inlined, like `take_request`, so
    /// that [`decode_request`] builds the owned request in one go.)
    #[inline]
    pub fn into_request(self, names: &[&str]) -> Request {
        match self {
            RequestView::Fire { instance, event } => Request::Fire {
                instance,
                event: event.to_owned(),
            },
            RequestView::FireBatch { instance, events } => Request::FireBatch {
                instance,
                events: names[events].iter().map(|&e| e.to_owned()).collect(),
            },
            RequestView::Owned(req) => req,
        }
    }
}

/// Decodes a request payload in place — the one request decoder. Total:
/// a complete frame yields exactly one request or one typed error, and
/// an error leaves `names` as it found it. Only a `fire_batch` appends
/// to `names`; the strings of the barrier verbs are copied out.
pub fn decode_request_view<'a>(
    payload: &'a [u8],
    names: &mut Vec<&'a str>,
) -> Result<RequestView<'a>, WireError> {
    let first = names.len();
    let view = take_request(Reader::new(payload), names);
    if view.is_err() {
        names.truncate(first);
    }
    view
}

/// The decoder itself. On an error `names` may keep what a batch pushed
/// before it failed; the two callers deal with that.
#[inline]
fn take_request<'a>(
    mut r: Reader<'a>,
    names: &mut Vec<&'a str>,
) -> Result<RequestView<'a>, WireError> {
    let view = match r.take_u8()? {
        VERB_FIRE => RequestView::Fire {
            instance: r.take_u64()?,
            event: r.take_str()?,
        },
        VERB_FIRE_BATCH => {
            let instance = r.take_u64()?;
            let n = r.take_count()?;
            let first = names.len();
            for _ in 0..n {
                names.push(r.take_str()?);
            }
            RequestView::FireBatch {
                instance,
                events: first..names.len(),
            }
        }
        verb => RequestView::Owned(match verb {
            VERB_DEPLOY => Request::Deploy {
                source: r.take_string()?,
            },
            VERB_START => Request::Start {
                workflow: r.take_string()?,
            },
            VERB_FIRE_MANY => {
                let n = r.take_count()?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    let instance = r.take_u64()?;
                    pairs.push((instance, r.take_string()?));
                }
                Request::FireMany { pairs }
            }
            VERB_ELIGIBLE => Request::Eligible {
                instance: r.take_u64()?,
            },
            VERB_SNAPSHOT => Request::Snapshot,
            VERB_STATS => Request::Stats,
            VERB_SHUTDOWN => Request::Shutdown,
            VERB_TIMERS => Request::Timers {
                instance: r.take_u64()?,
            },
            VERB_ADVANCE => Request::Advance {
                to_ms: r.take_u64()?,
            },
            VERB_CANCEL_TIMER => Request::CancelTimer {
                instance: r.take_u64()?,
                event: r.take_string()?,
            },
            verb => return Err(WireError::UnknownVerb(verb)),
        }),
    };
    r.finish()?;
    Ok(view)
}

/// Decodes a request payload, owning its strings: the view decoder,
/// then [`RequestView::into_request`].
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut names = Vec::new();
    let view = take_request(Reader::new(payload), &mut names)?;
    Ok(view.into_request(&names))
}

// --- Responses -------------------------------------------------------------

const KIND_NAME: u8 = 0x81;
const KIND_ID: u8 = 0x82;
const KIND_STATUS: u8 = 0x83;
const KIND_OUTCOMES: u8 = 0x84;
const KIND_NAMES: u8 = 0x85;
const KIND_TEXT: u8 = 0x86;
const KIND_UNIT: u8 = 0x87;
const KIND_STATS: u8 = 0x88;
const KIND_TIMERS: u8 = 0x89;
const KIND_FIRED: u8 = 0x8A;
const KIND_ERROR: u8 = 0xEE;

const STATUS_RUNNING: u8 = 0;
const STATUS_COMPLETED: u8 = 1;

const OUTCOME_FIRED: u8 = 0;
const OUTCOME_REJECTED: u8 = 1;
const OUTCOME_SKIPPED: u8 = 2;

/// Why a request (or one event of a batch) failed, as a stable wire
/// code — clients branch on the code, the message is for humans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultCode {
    /// The event is not eligible at the instance's current stage.
    NotEligible = 1,
    /// No instance with this id.
    UnknownInstance = 2,
    /// No workflow deployed under this name.
    UnknownWorkflow = 3,
    /// The instance already completed.
    AlreadyComplete = 4,
    /// The durable store rejected the operation (nothing committed).
    Store = 5,
    /// The specification failed to parse, compile, or verify.
    Spec = 6,
    /// Journal/snapshot corruption on the server.
    Corrupt = 7,
    /// Admission control: the burst exceeded the connection's budget;
    /// retry after draining responses.
    Busy = 8,
    /// The peer broke the wire protocol (the connection is closing).
    Protocol = 9,
    /// No pending timer guards this event on this instance.
    UnknownTimer = 10,
}

impl FaultCode {
    fn from_u8(v: u8) -> Option<FaultCode> {
        Some(match v {
            1 => FaultCode::NotEligible,
            2 => FaultCode::UnknownInstance,
            3 => FaultCode::UnknownWorkflow,
            4 => FaultCode::AlreadyComplete,
            5 => FaultCode::Store,
            6 => FaultCode::Spec,
            7 => FaultCode::Corrupt,
            8 => FaultCode::Busy,
            9 => FaultCode::Protocol,
            10 => FaultCode::UnknownTimer,
            _ => return None,
        })
    }
}

/// A typed error response (or rejected batch event).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    pub code: FaultCode,
    pub message: String,
}

impl Fault {
    /// Maps a runtime error onto its wire fault.
    pub fn from_runtime(e: &RuntimeError) -> Fault {
        let code = match e {
            RuntimeError::NotEligible { .. } => FaultCode::NotEligible,
            RuntimeError::UnknownInstance(_) => FaultCode::UnknownInstance,
            RuntimeError::UnknownWorkflow(_) => FaultCode::UnknownWorkflow,
            RuntimeError::AlreadyComplete(_) => FaultCode::AlreadyComplete,
            RuntimeError::Store(_) => FaultCode::Store,
            RuntimeError::Parse(_)
            | RuntimeError::Compile(_)
            | RuntimeError::Inconsistent { .. }
            | RuntimeError::Knotted { .. } => FaultCode::Spec,
            // Only a snapshot naming an id at the top of the id space
            // gets a server here; no retry helps.
            RuntimeError::Snapshot(_)
            | RuntimeError::Journal(_)
            | RuntimeError::InstanceIdsExhausted => FaultCode::Corrupt,
            RuntimeError::UnknownTimer { .. } => FaultCode::UnknownTimer,
        };
        Fault {
            code,
            message: e.to_string(),
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

/// Instance status on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireStatus {
    Running,
    Completed,
}

impl From<InstanceStatus> for WireStatus {
    fn from(s: InstanceStatus) -> WireStatus {
        match s {
            InstanceStatus::Running => WireStatus::Running,
            InstanceStatus::Completed => WireStatus::Completed,
        }
    }
}

/// Per-event batch outcome on the wire; mirrors
/// [`ctr_runtime::FireOutcome`] with the error typed as a [`Fault`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOutcome {
    Fired(WireStatus),
    Rejected(Fault),
    Skipped,
}

impl WireOutcome {
    /// Maps a runtime outcome onto its wire form.
    pub fn from_runtime(o: &FireOutcome) -> WireOutcome {
        match o {
            FireOutcome::Fired(status) => WireOutcome::Fired((*status).into()),
            FireOutcome::Rejected(e) => WireOutcome::Rejected(Fault::from_runtime(e)),
            FireOutcome::Skipped => WireOutcome::Skipped,
        }
    }
}

/// Store / fleet counters over the wire — enough for a client to
/// compute fsyncs-per-fire without touching the server's disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Durable record appends (0 without a store).
    pub appends: u64,
    /// Journal events appended durably (0 without a store).
    pub events: u64,
    /// Data fsyncs issued (0 without a store or on `MemStore`).
    pub fsyncs: u64,
    /// Instances known to the runtime (running and completed).
    pub instances: u64,
    /// Timers pending across the fleet.
    pub timers: u64,
    /// The fleet's logical clock, in milliseconds.
    pub clock_ms: u64,
}

/// One server response; see [`Request`] for the pairing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    Name(String),
    InstanceId(u64),
    Status(WireStatus),
    Outcomes(Vec<WireOutcome>),
    Names(Vec<String>),
    /// Server-side twin of [`Response::Names`]: encodes interned
    /// symbols straight onto the wire (same `KIND_NAMES` bytes, no
    /// per-name `String` allocation — the `Eligible` hot poll path).
    /// Decoding always yields `Names`.
    Symbols(Vec<Symbol>),
    Text(String),
    Unit,
    Stats(WireStats),
    /// Pending `(tick, due_ms)` timers of one instance, due order.
    Timers(Vec<(String, u64)>),
    /// Timers fired by an `Advance`, as `(instance, tick)` in firing
    /// order.
    Fired(Vec<(u64, String)>),
    Error(Fault),
}

/// Encodes a response payload (frame it with [`encode_frame`]).
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Name(name) => {
            out.push(KIND_NAME);
            put_str(out, name);
        }
        Response::InstanceId(id) => {
            out.push(KIND_ID);
            put_u64(out, *id);
        }
        Response::Status(status) => {
            out.push(KIND_STATUS);
            out.push(match status {
                WireStatus::Running => STATUS_RUNNING,
                WireStatus::Completed => STATUS_COMPLETED,
            });
        }
        Response::Outcomes(outcomes) => {
            out.push(KIND_OUTCOMES);
            out.extend_from_slice(&(outcomes.len() as u32).to_le_bytes());
            for outcome in outcomes {
                put_outcome(out, outcome);
            }
        }
        Response::Names(names) => {
            out.push(KIND_NAMES);
            out.extend_from_slice(&(names.len() as u32).to_le_bytes());
            for name in names {
                put_str(out, name);
            }
        }
        Response::Symbols(symbols) => {
            out.push(KIND_NAMES);
            out.extend_from_slice(&(symbols.len() as u32).to_le_bytes());
            for symbol in symbols {
                put_str(out, symbol.as_str());
            }
        }
        Response::Timers(timers) => {
            out.push(KIND_TIMERS);
            out.extend_from_slice(&(timers.len() as u32).to_le_bytes());
            for (tick, due_ms) in timers {
                put_str(out, tick);
                put_u64(out, *due_ms);
            }
        }
        Response::Fired(fired) => {
            out.push(KIND_FIRED);
            out.extend_from_slice(&(fired.len() as u32).to_le_bytes());
            for (instance, tick) in fired {
                put_u64(out, *instance);
                put_str(out, tick);
            }
        }
        Response::Text(text) => {
            out.push(KIND_TEXT);
            put_str(out, text);
        }
        Response::Unit => out.push(KIND_UNIT),
        Response::Stats(stats) => {
            out.push(KIND_STATS);
            put_u64(out, stats.appends);
            put_u64(out, stats.events);
            put_u64(out, stats.fsyncs);
            put_u64(out, stats.instances);
            put_u64(out, stats.timers);
            put_u64(out, stats.clock_ms);
        }
        Response::Error(fault) => {
            out.push(KIND_ERROR);
            out.push(fault.code as u8);
            put_str(out, &fault.message);
        }
    }
}

fn put_outcome(out: &mut Vec<u8>, outcome: &WireOutcome) {
    match outcome {
        WireOutcome::Fired(status) => {
            out.push(OUTCOME_FIRED);
            out.push(match status {
                WireStatus::Running => STATUS_RUNNING,
                WireStatus::Completed => STATUS_COMPLETED,
            });
        }
        WireOutcome::Rejected(fault) => {
            out.push(OUTCOME_REJECTED);
            out.push(fault.code as u8);
            put_str(out, &fault.message);
        }
        WireOutcome::Skipped => out.push(OUTCOME_SKIPPED),
    }
}

/// Encodes the [`Response::Outcomes`] payload of `outcomes` straight
/// from the runtime's own — the server's answer to a `fire_batch`,
/// without the intermediate `Vec<WireOutcome>`.
pub fn encode_outcomes(outcomes: &[FireOutcome], out: &mut Vec<u8>) {
    out.push(KIND_OUTCOMES);
    out.extend_from_slice(&(outcomes.len() as u32).to_le_bytes());
    for outcome in outcomes {
        put_outcome(out, &WireOutcome::from_runtime(outcome));
    }
}

fn take_status(r: &mut Reader<'_>) -> Result<WireStatus, WireError> {
    match r.take_u8()? {
        STATUS_RUNNING => Ok(WireStatus::Running),
        STATUS_COMPLETED => Ok(WireStatus::Completed),
        k => Err(WireError::UnknownKind(k)),
    }
}

fn take_fault(r: &mut Reader<'_>) -> Result<Fault, WireError> {
    let code = r.take_u8()?;
    let code = FaultCode::from_u8(code).ok_or(WireError::UnknownKind(code))?;
    Ok(Fault {
        code,
        message: r.take_string()?,
    })
}

/// Decodes a response payload; inverse of [`encode_response`].
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(payload);
    let resp = match r.take_u8()? {
        KIND_NAME => Response::Name(r.take_string()?),
        KIND_ID => Response::InstanceId(r.take_u64()?),
        KIND_STATUS => Response::Status(take_status(&mut r)?),
        KIND_OUTCOMES => {
            let n = r.take_count()?;
            let mut outcomes = Vec::with_capacity(n);
            for _ in 0..n {
                outcomes.push(match r.take_u8()? {
                    OUTCOME_FIRED => WireOutcome::Fired(take_status(&mut r)?),
                    OUTCOME_REJECTED => WireOutcome::Rejected(take_fault(&mut r)?),
                    OUTCOME_SKIPPED => WireOutcome::Skipped,
                    k => return Err(WireError::UnknownKind(k)),
                });
            }
            Response::Outcomes(outcomes)
        }
        KIND_NAMES => {
            let n = r.take_count()?;
            let mut names = Vec::with_capacity(n);
            for _ in 0..n {
                names.push(r.take_string()?);
            }
            Response::Names(names)
        }
        KIND_TEXT => Response::Text(r.take_string()?),
        KIND_UNIT => Response::Unit,
        KIND_STATS => Response::Stats(WireStats {
            appends: r.take_u64()?,
            events: r.take_u64()?,
            fsyncs: r.take_u64()?,
            instances: r.take_u64()?,
            timers: r.take_u64()?,
            clock_ms: r.take_u64()?,
        }),
        KIND_TIMERS => {
            let n = r.take_count()?;
            let mut timers = Vec::with_capacity(n);
            for _ in 0..n {
                let tick = r.take_string()?;
                timers.push((tick, r.take_u64()?));
            }
            Response::Timers(timers)
        }
        KIND_FIRED => {
            let n = r.take_count()?;
            let mut fired = Vec::with_capacity(n);
            for _ in 0..n {
                let instance = r.take_u64()?;
                fired.push((instance, r.take_string()?));
            }
            Response::Fired(fired)
        }
        KIND_ERROR => Response::Error(take_fault(&mut r)?),
        kind => return Err(WireError::UnknownKind(kind)),
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(req: &Request) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_request(req, &mut payload);
        let mut out = Vec::new();
        encode_frame(&payload, &mut out);
        out
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Deploy {
                source: "workflow w { graph a * b; }".to_owned(),
            },
            Request::Start {
                workflow: "w".to_owned(),
            },
            Request::Fire {
                instance: 7,
                event: "a".to_owned(),
            },
            Request::FireBatch {
                instance: u64::MAX,
                events: vec!["a".to_owned(), "b".to_owned()],
            },
            Request::FireMany {
                pairs: vec![(0, "a".to_owned()), (3, "β".to_owned())],
            },
            Request::Eligible { instance: 0 },
            Request::Snapshot,
            Request::Stats,
            Request::Shutdown,
            Request::Timers { instance: 9 },
            Request::Advance { to_ms: 86_400_000 },
            Request::CancelTimer {
                instance: 9,
                event: "approve".to_owned(),
            },
        ];
        for req in &requests {
            let bytes = frame(req);
            let (consumed, payload) = split_frame(&bytes).unwrap().expect("complete");
            assert_eq!(consumed, bytes.len());
            assert_eq!(&decode_request(payload).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Name("w".to_owned()),
            Response::InstanceId(42),
            Response::Status(WireStatus::Completed),
            Response::Outcomes(vec![
                WireOutcome::Fired(WireStatus::Running),
                WireOutcome::Rejected(Fault {
                    code: FaultCode::NotEligible,
                    message: "event `x` is not eligible now".to_owned(),
                }),
                WireOutcome::Skipped,
            ]),
            Response::Names(vec!["a".to_owned(), "b".to_owned()]),
            Response::Text("instance 0 of w [running]: a\n".to_owned()),
            Response::Unit,
            Response::Stats(WireStats {
                appends: 1,
                events: 2,
                fsyncs: 3,
                instances: 4,
                timers: 5,
                clock_ms: 6,
            }),
            Response::Timers(vec![
                ("approve@deadline60000".to_owned(), 60_000),
                ("poll@after5000".to_owned(), 5_000),
            ]),
            Response::Fired(vec![(3, "poll@after5000".to_owned())]),
            Response::Error(Fault {
                code: FaultCode::Busy,
                message: "burst budget exceeded".to_owned(),
            }),
        ];
        for resp in &responses {
            let mut payload = Vec::new();
            encode_response(resp, &mut payload);
            let mut bytes = Vec::new();
            encode_frame(&payload, &mut bytes);
            let (_, payload) = split_frame(&bytes).unwrap().expect("complete");
            assert_eq!(&decode_response(payload).unwrap(), resp);
        }
    }

    #[test]
    fn symbols_encode_as_names_on_the_wire() {
        // The server's allocation-free Eligible path must be
        // byte-identical to the `Names` encoding clients decode.
        let symbols = Response::Symbols(vec![Symbol::intern("a"), Symbol::intern("approve")]);
        let names = Response::Names(vec!["a".to_owned(), "approve".to_owned()]);
        let (mut sym_bytes, mut name_bytes) = (Vec::new(), Vec::new());
        encode_response(&symbols, &mut sym_bytes);
        encode_response(&names, &mut name_bytes);
        assert_eq!(sym_bytes, name_bytes);
        assert_eq!(decode_response(&sym_bytes).unwrap(), names);
    }

    #[test]
    fn torn_frames_wait_for_more_bytes() {
        let bytes = frame(&Request::Snapshot);
        for cut in 0..bytes.len() {
            assert_eq!(
                split_frame(&bytes[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes is incomplete, not an error"
            );
        }
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        // Flipped payload bit → BadCrc.
        let mut bytes = frame(&Request::Snapshot);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(split_frame(&bytes), Err(WireError::BadCrc));

        // Oversized length prefix.
        let mut oversized = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        oversized.extend_from_slice(&[0; 12]);
        assert_eq!(
            split_frame(&oversized),
            Err(WireError::Oversized(MAX_FRAME + 1))
        );

        // Unknown verb in a well-framed payload.
        let mut bytes = Vec::new();
        encode_frame(&[0x7f], &mut bytes);
        let (_, payload) = split_frame(&bytes).unwrap().unwrap();
        assert_eq!(decode_request(payload), Err(WireError::UnknownVerb(0x7f)));

        // Truncated body: Fire with only 4 of 8 instance-id bytes.
        let mut bytes = Vec::new();
        encode_frame(&[VERB_FIRE, 1, 2, 3, 4], &mut bytes);
        let (_, payload) = split_frame(&bytes).unwrap().unwrap();
        assert_eq!(decode_request(payload), Err(WireError::Truncated));

        // Trailing garbage after a complete body.
        let mut payload = Vec::new();
        encode_request(&Request::Snapshot, &mut payload);
        payload.push(0);
        let mut bytes = Vec::new();
        encode_frame(&payload, &mut bytes);
        let (_, payload) = split_frame(&bytes).unwrap().unwrap();
        assert_eq!(decode_request(payload), Err(WireError::Trailing(1)));

        // Bad UTF-8 in a string field.
        let mut payload = vec![VERB_START];
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xff, 0xfe]);
        let mut bytes = Vec::new();
        encode_frame(&payload, &mut bytes);
        let (_, payload) = split_frame(&bytes).unwrap().unwrap();
        assert_eq!(decode_request(payload), Err(WireError::BadUtf8));
    }

    #[test]
    fn hostile_counts_cannot_balloon_allocation() {
        // A FireBatch claiming u32::MAX events in a tiny payload must
        // fail typed before any proportional allocation.
        let mut payload = vec![VERB_FIRE_BATCH];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&payload), Err(WireError::Truncated));
    }
}
