#![warn(missing_docs)]

//! # ctr-store — the durability layer under the workflow runtime
//!
//! The paper's enactment model makes the event history the *entire*
//! execution state: a configuration is the initial goal plus the fired
//! prefix. So durability is journal durability and nothing else — the
//! runtime never needs to persist cursors, frontiers, or any derived
//! state, only the ordered stream of control records:
//!
//! * [`Record::Deploy`] — a workflow name bound to its compiled goal
//!   (the concrete syntax the snapshot format already uses);
//! * [`Record::Start`] — an instance id bound to a workflow name;
//! * [`Record::Events`] — a batch of events fired by one instance
//!   (one record per `fire_batch` extend: the group-commit unit);
//! * [`Record::Complete`] — a silent completion (the one status change
//!   journal replay alone cannot reproduce);
//! * [`Record::TimerArm`] / [`Record::TimerFire`] /
//!   [`Record::TimerCancel`] — the timer wheel's journal: arms are
//!   written *before* the instance's `Start` (arm-before-visible),
//!   fires carry the runtime clock so recovery re-arms with the
//!   remaining delay, cancels record explicit API cancellations.
//!
//! A [`Store`] appends records, reads them back for recovery
//! ([`Store::replay`]), and compacts the log behind a text snapshot
//! ([`Store::checkpoint`]). Two backends ship:
//!
//! * [`MemStore`] — records in a `Vec`, no I/O. Attaching it to a
//!   runtime reproduces today's purely in-memory behavior byte for
//!   byte; it is also the honest baseline `benchmark/` sets the WAL
//!   against (`store.mem.append_ns` beside the `store.wal.*` probes,
//!   `serve_pipelined` beside the `serve_durable` workload).
//! * [`wal::WalStore`] — one append-only segmented log with
//!   length-prefixed, CRC-checked records, a cross-thread group-commit
//!   pipeline (N concurrent appends cost one fsync — see
//!   [`commit`]), tunable [`Durability`], snapshot compaction, and
//!   torn-tail crash recovery.
//!
//! The WAL reaches the disk only through [`Fs`]: [`OsFs`] in
//! production, [`sim::SimFs`] — a seeded in-memory file system that
//! crashes at any operation and fails the operations it is told to — in
//! every test that fails or crashes the store.
//!
//! The crate is deliberately independent of the runtime: records carry
//! plain strings, so the store can be tested, fuzzed, and benchmarked
//! without compiling a single workflow.

pub mod commit;
pub mod fs;
pub mod sim;
pub mod wal;

pub use commit::Durability;
pub use fs::{Fs, OsFs, Segment};
pub use wal::{WalOptions, WalStore};

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Errors from a [`Store`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O operation failed (the store may be partially written but
    /// never inconsistently: appends are all-or-nothing at recovery).
    Io(String),
    /// Durable data failed validation beyond what torn-tail repair is
    /// allowed to discard (e.g. a checkpoint with a mangled header).
    Corrupt(String),
    /// The record cannot be represented in the backend's wire format —
    /// an oversized payload, or a name the text encoding cannot
    /// round-trip (see [`Record::validate_encodable`]). Rejected
    /// *before* any byte is written, so the log is untouched.
    Unencodable(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(e) => write!(f, "store corruption: {e}"),
            StoreError::Unencodable(e) => write!(f, "store cannot encode record: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One durable control record. The journal of a workflow fleet is an
/// ordered stream of these; replaying them against an empty runtime
/// reproduces the fleet exactly (silent completions included, via
/// [`Record::Complete`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A workflow deployed under `name` with compiled goal text `goal`.
    Deploy {
        /// Workflow name.
        name: String,
        /// The compiled goal in concrete syntax (what `parse_goal` reads).
        goal: String,
    },
    /// Instance `instance` started as workflow `workflow`.
    Start {
        /// Instance id.
        instance: u64,
        /// Workflow name.
        workflow: String,
    },
    /// Instance `instance` fired `events` in order — one record per
    /// journal extend, which is the group-commit unit.
    Events {
        /// Instance id.
        instance: u64,
        /// Event names, in fire order.
        events: Vec<String>,
    },
    /// Instance `instance` completed silently (no event to replay).
    Complete {
        /// Instance id.
        instance: u64,
    },
    /// Timers armed for `instance` — one record for the whole set, so
    /// arming is a single append written *before* the instance's
    /// [`Record::Start`] ("arm-before-visible": a crash can leave an
    /// orphan arm, which recovery drops, but never a visible instance
    /// whose timers were lost).
    TimerArm {
        /// Instance id.
        instance: u64,
        /// `(tick event name, absolute due on the runtime clock in
        /// ms)` per armed timer.
        timers: Vec<(String, u64)>,
    },
    /// The timer wheel fired tick `event` on `instance` at clock
    /// `at_ms`. Replays like a one-event [`Record::Events`], but the
    /// distinct tag lets recovery (and audits) tell wheel expirations
    /// from client fires, and restores the runtime clock watermark.
    TimerFire {
        /// Instance id.
        instance: u64,
        /// The tick event that fired.
        event: String,
        /// Runtime clock at expiry, in ms.
        at_ms: u64,
    },
    /// Pending timer `event` on `instance` was explicitly cancelled
    /// (API cancel — the structural cancel when a deadline's base
    /// event fires is *derived* from [`Record::Events`] replay and
    /// never journaled separately).
    TimerCancel {
        /// Instance id.
        instance: u64,
        /// The tick event whose timer was cancelled.
        event: String,
    },
}

impl Record {
    /// Number of journal events this record carries (its group size).
    pub fn event_count(&self) -> u64 {
        match self {
            Record::Events { events, .. } => events.len() as u64,
            // A wheel expiry appends its tick to the instance journal.
            Record::TimerFire { .. } => 1,
            _ => 0,
        }
    }

    /// Checks that the text wire format can round-trip this record:
    /// workflow and event names must be non-empty and whitespace-free.
    /// The encoding separates fields with tabs and event lists with
    /// spaces, so a name containing either would decode into different
    /// fields or a different event list than was appended — silent
    /// replay divergence. (Such names never come out of the parser, but
    /// `deploy_compiled` accepts hand-built goals, so the encoding
    /// backend rejects them with a typed error instead.) Goal text is
    /// exempt: it is always the final field of its record, so the
    /// decoder takes it verbatim to end of payload.
    pub fn validate_encodable(&self) -> Result<(), StoreError> {
        fn name_ok(kind: &str, name: &str) -> Result<(), StoreError> {
            if name.is_empty() || name.contains(char::is_whitespace) {
                return Err(StoreError::Unencodable(format!(
                    "{kind} name {name:?} is empty or contains whitespace and cannot round-trip the wire format"
                )));
            }
            Ok(())
        }
        match self {
            Record::Deploy { name, .. } => name_ok("workflow", name),
            Record::Start { workflow, .. } => name_ok("workflow", workflow),
            Record::Events { events, .. } => events.iter().try_for_each(|e| name_ok("event", e)),
            Record::Complete { .. } => Ok(()),
            Record::TimerArm { timers, .. } => {
                timers.iter().try_for_each(|(e, _)| name_ok("event", e))
            }
            Record::TimerFire { event, .. } | Record::TimerCancel { event, .. } => {
                name_ok("event", event)
            }
        }
    }
}

/// Everything a [`Store`] has retained, in replay order: the latest
/// checkpoint snapshot (if any) plus every record appended after it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Replay {
    /// The compaction snapshot to restore first, if one was taken.
    pub snapshot: Option<String>,
    /// Records appended after the snapshot, in append order.
    pub records: Vec<Record>,
}

/// Number of power-of-two buckets in [`StoreStats::group_size_hist`]:
/// bucket `i` counts groups of `[2^i, 2^(i+1))` frames, the last
/// bucket absorbs everything larger.
pub const GROUP_SIZE_BUCKETS: usize = 8;

/// Number of power-of-two buckets in [`StoreStats::fsync_micros_hist`]:
/// bucket `i` counts syncs that took `[2^i, 2^(i+1))` microseconds, the
/// last bucket absorbs everything slower (≥ ~0.5 s).
pub const FSYNC_MICROS_BUCKETS: usize = 20;

/// Counters a [`Store`] keeps about its own traffic. All monotonic;
/// [`MemStore`] leaves the fsync-related ones at zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Durable appends ([`Store::append`] calls that succeeded).
    pub appends: u64,
    /// Journal events carried by those appends (≥ `appends` under
    /// group commit, == for one-event fires).
    pub events: u64,
    /// Commit-path data syncs — one per group commit, however many
    /// frames the group carried. Rotation and checkpoint syncs are
    /// attributed separately so `fsyncs / appends` measures commit
    /// coalescing cleanly.
    pub fsyncs: u64,
    /// Syncs from segment creation and log repair.
    pub rotation_syncs: u64,
    /// File and directory syncs issued by checkpoint compaction.
    pub checkpoint_syncs: u64,
    /// Largest event group committed by a single append.
    pub max_group: u64,
    /// Checkpoint compactions taken.
    pub compactions: u64,
    /// Bytes of valid log scanned back at open.
    pub recovered_bytes: u64,
    /// Bytes discarded at open as a torn tail (truncated at the first
    /// record that failed its length or checksum).
    pub torn_bytes: u64,
    /// How many *frames* each group commit carried, in power-of-two
    /// buckets (see [`GROUP_SIZE_BUCKETS`]). Strict appends always land
    /// in bucket 0; cross-thread coalescing shows up as mass in the
    /// higher buckets.
    pub group_size_hist: [u64; GROUP_SIZE_BUCKETS],
    /// Commit write+sync latency in power-of-two microsecond buckets
    /// (see [`FSYNC_MICROS_BUCKETS`]).
    pub fsync_micros_hist: [u64; FSYNC_MICROS_BUCKETS],
}

/// The value at percentile `pct` of a power-of-two histogram, reported
/// as the (inclusive) upper bound of the bucket it lands in.
fn hist_percentile(hist: &[u64], pct: u64) -> u64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = (total * pct).div_ceil(100);
    let mut cum = 0u64;
    for (i, &count) in hist.iter().enumerate() {
        cum += count;
        if cum >= target {
            return (1u64 << (i + 1)) - 1;
        }
    }
    unreachable!("percentile target exceeds histogram total")
}

impl StoreStats {
    /// Median commit write+sync latency in microseconds (upper bound of
    /// the histogram bucket the median lands in; 0 with no commits).
    pub fn fsync_p50_micros(&self) -> u64 {
        hist_percentile(&self.fsync_micros_hist, 50)
    }

    /// 99th-percentile commit write+sync latency in microseconds (upper
    /// bound of its histogram bucket; 0 with no commits).
    pub fn fsync_p99_micros(&self) -> u64 {
        hist_percentile(&self.fsync_micros_hist, 99)
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "appends={} events={} fsyncs={} rotation_syncs={} checkpoint_syncs={} \
             max_group={} compactions={} recovered_bytes={} torn_bytes={} \
             fsync_p50_us={} fsync_p99_us={}",
            self.appends,
            self.events,
            self.fsyncs,
            self.rotation_syncs,
            self.checkpoint_syncs,
            self.max_group,
            self.compactions,
            self.recovered_bytes,
            self.torn_bytes,
            self.fsync_p50_micros(),
            self.fsync_p99_micros()
        )
    }
}

/// Which power-of-two bucket `value` lands in, clamped to the
/// histogram's last bucket. Zero counts as one (bucket 0).
fn hist_bucket(value: u64, buckets: usize) -> usize {
    (63 - value.max(1).leading_zeros() as usize).min(buckets - 1)
}

/// Shared counter block; backends bump these as traffic flows.
#[derive(Default)]
pub(crate) struct Counters {
    appends: AtomicU64,
    events: AtomicU64,
    fsyncs: AtomicU64,
    rotation_syncs: AtomicU64,
    checkpoint_syncs: AtomicU64,
    max_group: AtomicU64,
    compactions: AtomicU64,
    recovered_bytes: AtomicU64,
    torn_bytes: AtomicU64,
    group_size_hist: [AtomicU64; GROUP_SIZE_BUCKETS],
    fsync_micros_hist: [AtomicU64; FSYNC_MICROS_BUCKETS],
}

impl Counters {
    pub(crate) fn on_append(&self, group: u64) {
        self.appends.fetch_add(1, Ordering::Relaxed);
        if group > 0 {
            self.events.fetch_add(group, Ordering::Relaxed);
            self.max_group.fetch_max(group, Ordering::Relaxed);
        }
    }

    /// One group commit: `frames` whole records made durable by a
    /// single write+sync that took `latency`.
    pub(crate) fn on_commit(&self, frames: u64, latency: Duration) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.group_size_hist[hist_bucket(frames, GROUP_SIZE_BUCKETS)]
            .fetch_add(1, Ordering::Relaxed);
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.fsync_micros_hist[hist_bucket(micros, FSYNC_MICROS_BUCKETS)]
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_rotation_sync(&self) {
        self.rotation_syncs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_checkpoint_sync(&self) {
        self.checkpoint_syncs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_compaction(&self) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_recovered(&self, good: u64, torn: u64) {
        self.recovered_bytes.fetch_add(good, Ordering::Relaxed);
        self.torn_bytes.fetch_add(torn, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> StoreStats {
        let load_hist = |hist: &[AtomicU64]| {
            let mut out = Vec::with_capacity(hist.len());
            out.extend(hist.iter().map(|b| b.load(Ordering::Relaxed)));
            out
        };
        let mut stats = StoreStats {
            appends: self.appends.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            rotation_syncs: self.rotation_syncs.load(Ordering::Relaxed),
            checkpoint_syncs: self.checkpoint_syncs.load(Ordering::Relaxed),
            max_group: self.max_group.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            recovered_bytes: self.recovered_bytes.load(Ordering::Relaxed),
            torn_bytes: self.torn_bytes.load(Ordering::Relaxed),
            group_size_hist: [0; GROUP_SIZE_BUCKETS],
            fsync_micros_hist: [0; FSYNC_MICROS_BUCKETS],
        };
        stats
            .group_size_hist
            .copy_from_slice(&load_hist(&self.group_size_hist));
        stats
            .fsync_micros_hist
            .copy_from_slice(&load_hist(&self.fsync_micros_hist));
        stats
    }
}

/// The journal/store abstraction every runtime persistence path flows
/// through: append control records, read them back for recovery, and
/// compact the log behind a snapshot.
///
/// ## Contract
///
/// * [`Store::append`] is durable on return (for backends that promise
///   durability at all): a record either survives a crash in full or —
///   if the crash tears its tail — is discarded in full at the next
///   open. Records never survive partially.
/// * [`Store::replay`] returns the snapshot (if any) plus appended
///   records in append order; replaying both reproduces the fleet.
/// * [`Store::checkpoint`] atomically replaces the log with `snapshot`:
///   callers must guarantee no concurrent [`Store::append`] covers state
///   *not* captured by `snapshot` (the runtime freezes the fleet across
///   the call, exactly as it already does for consistent snapshots).
pub trait Store: Send + Sync {
    /// Durably appends one record.
    fn append(&self, record: &Record) -> Result<(), StoreError>;

    /// Reads everything back: latest snapshot plus post-snapshot
    /// records, in replay order.
    fn replay(&self) -> Result<Replay, StoreError>;

    /// Compacts: atomically installs `snapshot` as the recovery
    /// baseline and truncates every record it covers.
    fn checkpoint(&self, snapshot: &str) -> Result<(), StoreError>;

    /// Traffic counters (monotonic since open).
    fn stats(&self) -> StoreStats;
}

// --- MemStore --------------------------------------------------------------

#[derive(Default)]
struct MemInner {
    snapshot: Option<String>,
    records: Vec<Record>,
}

/// The in-memory backend: a `Vec` of records behind a mutex. Survives
/// nothing, costs nothing — attaching it to a runtime reproduces the
/// store-less behavior byte for byte (pinned by tests) while exercising
/// the exact same append/replay/checkpoint code paths as the WAL.
#[derive(Default)]
pub struct MemStore {
    inner: Mutex<MemInner>,
    counters: Counters,
}

impl MemStore {
    /// An empty in-memory store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl Store for MemStore {
    fn append(&self, record: &Record) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.records.push(record.clone());
        self.counters.on_append(record.event_count());
        Ok(())
    }

    fn replay(&self) -> Result<Replay, StoreError> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        Ok(Replay {
            snapshot: inner.snapshot.clone(),
            records: inner.records.clone(),
        })
    }

    fn checkpoint(&self, snapshot: &str) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.snapshot = Some(snapshot.to_owned());
        inner.records.clear();
        self.counters.on_compaction();
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }
}

// --- Record wire format ----------------------------------------------------

/// Serializes a record payload: tab-separated fields, one line, with
/// the global sequence number as the second field. Event lists are
/// space-separated — whitespace-free names are *enforced* by
/// [`Record::validate_encodable`] on the write path, not assumed.
pub(crate) fn encode_payload(seq: u64, record: &Record) -> Vec<u8> {
    let text = match record {
        Record::Deploy { name, goal } => format!("d\t{seq}\t{name}\t{goal}"),
        Record::Start { instance, workflow } => format!("s\t{seq}\t{instance}\t{workflow}"),
        Record::Events { instance, events } => {
            format!("e\t{seq}\t{instance}\t{}", events.join(" "))
        }
        Record::Complete { instance } => format!("c\t{seq}\t{instance}"),
        Record::TimerArm { instance, timers } => {
            // Space-packed `event due` pairs: timer records must fit in
            // the decoder's four tab-separated fields.
            let pairs: Vec<String> = timers.iter().map(|(e, due)| format!("{e} {due}")).collect();
            format!("ta\t{seq}\t{instance}\t{}", pairs.join(" "))
        }
        Record::TimerFire {
            instance,
            event,
            at_ms,
        } => format!("tf\t{seq}\t{instance}\t{event} {at_ms}"),
        Record::TimerCancel { instance, event } => format!("tc\t{seq}\t{instance}\t{event}"),
    };
    text.into_bytes()
}

/// Decodes a record payload; inverse of [`encode_payload`].
pub(crate) fn decode_payload(payload: &[u8]) -> Result<(u64, Record), StoreError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| StoreError::Corrupt("record payload is not utf-8".to_owned()))?;
    let mut fields = text.splitn(4, '\t');
    let (tag, seq) = match (fields.next(), fields.next()) {
        (Some(tag), Some(seq)) => (tag, seq),
        _ => return Err(StoreError::Corrupt(format!("truncated record: {text:?}"))),
    };
    let seq: u64 = seq
        .parse()
        .map_err(|_| StoreError::Corrupt(format!("bad sequence number: {text:?}")))?;
    let record = match (tag, fields.next(), fields.next()) {
        ("d", Some(name), Some(goal)) => Record::Deploy {
            name: name.to_owned(),
            goal: goal.to_owned(),
        },
        ("s", Some(instance), Some(workflow)) => Record::Start {
            instance: parse_id(instance, text)?,
            workflow: workflow.to_owned(),
        },
        ("e", Some(instance), Some(events)) => Record::Events {
            instance: parse_id(instance, text)?,
            events: events.split_whitespace().map(str::to_owned).collect(),
        },
        ("c", Some(instance), None) => Record::Complete {
            instance: parse_id(instance, text)?,
        },
        ("ta", Some(instance), Some(pairs)) => {
            let fields: Vec<&str> = pairs.split_whitespace().collect();
            if !fields.len().is_multiple_of(2) {
                return Err(StoreError::Corrupt(format!(
                    "odd timer-arm pair list: {text:?}"
                )));
            }
            let timers = fields
                .chunks_exact(2)
                .map(|pair| Ok((pair[0].to_owned(), parse_id(pair[1], text)?)))
                .collect::<Result<Vec<_>, StoreError>>()?;
            Record::TimerArm {
                instance: parse_id(instance, text)?,
                timers,
            }
        }
        ("tf", Some(instance), Some(rest)) => match rest.split_once(' ') {
            Some((event, at)) => Record::TimerFire {
                instance: parse_id(instance, text)?,
                event: event.to_owned(),
                at_ms: parse_id(at, text)?,
            },
            None => {
                return Err(StoreError::Corrupt(format!(
                    "timer-fire record missing clock: {text:?}"
                )))
            }
        },
        ("tc", Some(instance), Some(event)) => Record::TimerCancel {
            instance: parse_id(instance, text)?,
            event: event.to_owned(),
        },
        _ => {
            return Err(StoreError::Corrupt(format!(
                "unrecognized record: {text:?}"
            )))
        }
    };
    Ok((seq, record))
}

fn parse_id(field: &str, text: &str) -> Result<u64, StoreError> {
    field
        .parse()
        .map_err(|_| StoreError::Corrupt(format!("bad instance id: {text:?}")))
}

// --- CRC32 (IEEE) ----------------------------------------------------------

/// The slicing-by-8 tables: `t[0]` is the classic byte table, and
/// `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
/// input bytes fold into the CRC with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `data`: the frame check
/// of the WAL and of the wire. Hand-rolled — the build environment has
/// no registry access — by slicing-by-8: eight bytes per step, then the
/// tail a byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = u32::from_le_bytes([word[0], word[1], word[2], word[3]]) ^ crc;
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

// --- Frames ----------------------------------------------------------------

/// Frame header length: payload length + CRC, both `u32` LE.
pub const FRAME_HEADER: usize = 8;

/// Why [`split_frame`] refused the bytes in front of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds the caller's ceiling.
    Oversized(usize),
    /// The payload does not match its CRC.
    BadCrc,
}

/// Appends one frame carrying `payload` to `out`:
/// `[len: u32 LE] [crc32(payload): u32 LE] [payload]` — the record frame
/// of the WAL and the message frame of the wire.
pub fn put_frame(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(u32::try_from(payload.len()).is_ok());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Splits one frame off the front of `buf`: `Ok(None)` while `buf` holds
/// only a prefix of one, `Ok(Some((consumed, payload)))` for a whole,
/// CRC-checked frame. A length over `max` is refused before any payload
/// byte is waited for, so a torn or hostile prefix cannot ask for more.
pub fn split_frame(buf: &[u8], max: usize) -> Result<Option<(usize, &[u8])>, FrameError> {
    let Some(header) = buf.get(..FRAME_HEADER) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    if len > max {
        return Err(FrameError::Oversized(len));
    }
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let Some(payload) = buf.get(FRAME_HEADER..FRAME_HEADER + len) else {
        return Ok(None);
    };
    if crc32(payload) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok(Some((FRAME_HEADER + len, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_split_back_whole_or_wait_or_refuse() {
        let mut buf = Vec::new();
        put_frame(b"hello", &mut buf);
        assert_eq!(&buf[..8], &[5, 0, 0, 0, 0x86, 0xA6, 0x10, 0x36]);
        for cut in 0..buf.len() {
            assert_eq!(split_frame(&buf[..cut], 64), Ok(None), "prefix of {cut}");
        }
        assert_eq!(split_frame(&buf, 64), Ok(Some((13, &b"hello"[..]))));
        assert_eq!(split_frame(&buf, 4), Err(FrameError::Oversized(5)));
        buf[12] ^= 1;
        assert_eq!(split_frame(&buf, 64), Err(FrameError::BadCrc));
    }

    /// The textbook loop, one table lookup per byte.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Slicing-by-8 is the byte-at-a-time CRC, whatever the bytes:
        /// at every length from empty to 300 (whole words, every tail)
        /// and at every alignment of the first byte.
        #[test]
        fn crc32_matches_the_bytewise_loop(
            raw in proptest::collection::vec(0u16..256, 308..309),
        ) {
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            for skip in 0..8 {
                for len in 0..=300 {
                    let data = &bytes[skip..skip + len];
                    proptest::prop_assert_eq!(
                        crc32(data),
                        crc32_bytewise(data),
                        "skip {} len {}",
                        skip,
                        len
                    );
                }
            }
        }
    }

    #[test]
    fn payload_round_trips_every_record_shape() {
        let records = [
            Record::Deploy {
                name: "pay".to_owned(),
                goal: "invoice * (approve + reject) * file".to_owned(),
            },
            Record::Start {
                instance: 17,
                workflow: "pay".to_owned(),
            },
            Record::Events {
                instance: 17,
                events: vec!["invoice".to_owned(), "approve".to_owned()],
            },
            Record::Complete { instance: 17 },
            Record::TimerArm {
                instance: 17,
                timers: vec![
                    ("approve@deadline3600000".to_owned(), 3_600_000),
                    ("file@after30000".to_owned(), 30_000),
                ],
            },
            Record::TimerArm {
                instance: 3,
                timers: Vec::new(),
            },
            Record::TimerFire {
                instance: 17,
                event: "approve@deadline3600000".to_owned(),
                at_ms: 3_600_017,
            },
            Record::TimerCancel {
                instance: 17,
                event: "file@after30000".to_owned(),
            },
        ];
        for (seq, record) in records.iter().enumerate() {
            let bytes = encode_payload(seq as u64, record);
            let (got_seq, got) = decode_payload(&bytes).unwrap();
            assert_eq!(got_seq, seq as u64);
            assert_eq!(&got, record);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_payload(b"").is_err());
        assert!(decode_payload(b"x\t1\t2\t3").is_err());
        assert!(decode_payload(b"e\tnotanumber\t0\ta").is_err());
        assert!(decode_payload(b"s\t1\tnotanid\tpay").is_err());
        assert!(decode_payload(&[0xFF, 0xFE, 0x00]).is_err());
        // Timer records with mangled pair lists or clocks.
        assert!(decode_payload(b"ta\t1\t0\tev 5 orphan").is_err());
        assert!(decode_payload(b"ta\t1\t0\tev notadue").is_err());
        assert!(decode_payload(b"tf\t1\t0\tev").is_err());
        assert!(decode_payload(b"tf\t1\t0\tev notaclock").is_err());
    }

    #[test]
    fn validate_encodable_rejects_names_the_wire_format_cannot_round_trip() {
        let bad_events = |names: &[&str]| Record::Events {
            instance: 0,
            events: names.iter().map(|s| (*s).to_owned()).collect(),
        };
        assert!(bad_events(&["ok", "two words"])
            .validate_encodable()
            .is_err());
        assert!(bad_events(&["tab\there"]).validate_encodable().is_err());
        assert!(bad_events(&[""]).validate_encodable().is_err());
        assert!(bad_events(&["ok", "also_ok"]).validate_encodable().is_ok());
        assert!(Record::Deploy {
            name: "spaced out".to_owned(),
            goal: "a * b".to_owned(),
        }
        .validate_encodable()
        .is_err());
        // Goal text is the final field of its record: spaces are fine.
        assert!(Record::Deploy {
            name: "pay".to_owned(),
            goal: "invoice * (approve + reject) * file".to_owned(),
        }
        .validate_encodable()
        .is_ok());
        assert!(Record::Start {
            instance: 1,
            workflow: "w f".to_owned(),
        }
        .validate_encodable()
        .is_err());
        assert!(Record::Complete { instance: 1 }
            .validate_encodable()
            .is_ok());
    }

    #[test]
    fn timer_records_validate_like_event_records() {
        assert!(Record::TimerArm {
            instance: 0,
            timers: vec![("ok@after5".to_owned(), 5), ("bad name".to_owned(), 9)],
        }
        .validate_encodable()
        .is_err());
        assert!(Record::TimerFire {
            instance: 0,
            event: String::new(),
            at_ms: 1,
        }
        .validate_encodable()
        .is_err());
        assert!(Record::TimerCancel {
            instance: 0,
            event: "ok@deadline7".to_owned(),
        }
        .validate_encodable()
        .is_ok());
        assert_eq!(
            Record::TimerFire {
                instance: 0,
                event: "t@after5".to_owned(),
                at_ms: 5,
            }
            .event_count(),
            1,
            "a wheel expiry appends one journal event"
        );
    }

    #[test]
    fn mem_store_replays_appends_and_truncates_on_checkpoint() {
        let store = MemStore::new();
        let r1 = Record::Start {
            instance: 0,
            workflow: "w".to_owned(),
        };
        let r2 = Record::Events {
            instance: 0,
            events: vec!["a".to_owned(), "b".to_owned()],
        };
        store.append(&r1).unwrap();
        store.append(&r2).unwrap();
        let replay = store.replay().unwrap();
        assert_eq!(replay.snapshot, None);
        assert_eq!(replay.records, vec![r1, r2.clone()]);

        store.checkpoint("snap-text").unwrap();
        let replay = store.replay().unwrap();
        assert_eq!(replay.snapshot.as_deref(), Some("snap-text"));
        assert!(replay.records.is_empty());

        store.append(&r2).unwrap();
        let replay = store.replay().unwrap();
        assert_eq!(replay.records, vec![r2]);

        let stats = store.stats();
        assert_eq!(stats.appends, 3);
        assert_eq!(stats.events, 4);
        assert_eq!(stats.max_group, 2);
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.fsyncs, 0, "memory is not durable and says so");
    }
}
