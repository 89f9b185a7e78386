//! The segmented write-ahead log backend.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   checkpoint.snap          latest compaction snapshot (atomic rename)
//!   shard-00/ 00000001.seg   append-only segments, rotated by size
//!   shard-01/ ...
//! ```
//!
//! One log stripe per shard, matching the sharded runtime's instance
//! striping: every record of one instance lands in one stripe (see
//! [`Record::shard`]), so per-instance order needs no cross-shard
//! coordination. A global `AtomicU64` sequence number — allocated
//! *under the destination stripe's staging lock* — stamps every record,
//! and recovery merges the stripes back into the exact global append
//! order.
//!
//! ## Record frame
//!
//! `[len: u32 LE] [crc32(payload): u32 LE] [payload]` — the payload is
//! the tab-separated text of `encode_payload`. A record either reads
//! back whole (length sane, checksum matches, payload parses) or the
//! scan stops there: everything from the first bad byte on is a **torn
//! tail**, truncated at open and counted in
//! [`StoreStats::torn_bytes`]. Only a tail can legitimately tear —
//! appends are sequential and synced — so any later segments of that
//! stripe are discarded with it rather than replayed out of order.
//!
//! The write path defends that invariant: payloads over `MAX_PAYLOAD`
//! and records the text format cannot round-trip (see
//! [`Record::validate_encodable`]) are rejected with
//! [`StoreError::Unencodable`] before any byte lands, and a failed
//! write or fsync truncates the segment back to its last acknowledged
//! byte (poisoning the stripe until the truncation succeeds) — so a
//! mid-segment frame that fails the scan can only mean external
//! corruption, never a write the store itself acknowledged past.
//!
//! ## The commit pipeline
//!
//! Appending is a two-lock pipeline per stripe (see [`crate::commit`]
//! for the full protocol): frames *stage* into a commit queue under a
//! short **staging** lock, and a per-stripe **leader** drains every
//! staged frame into one `write_all` + one `sync_data` under the
//! separate **I/O** lock — so N concurrent appends on a stripe cost
//! one fsync, not N, while each `append()` still returns only after
//! its record is durable. [`WalOptions::durability`] picks the policy:
//!
//! | [`Durability`]        | acknowledged when…        | crash may lose |
//! |-----------------------|---------------------------|----------------|
//! | `Strict` (default)    | its *group's* fsync returns | nothing acknowledged |
//! | `Coalesced{max_wait}` | the same, the leader lingering ≤ `max_wait` | nothing acknowledged |
//! | `Periodic{interval}`  | staged (fsync in ≤ interval) | up to one interval, always a contiguous per-stripe suffix |
//!
//! On top of cross-thread coalescing, the runtime's `fire_batch` path
//! still funnels a whole batch into a single record: one frame per
//! batch, however many events it carries ([`StoreStats::max_group`]
//! records how well that is exploited; the group-size and
//! fsync-latency histograms in [`StoreStats`] record how well the
//! pipeline coalesces across threads).
//!
//! ## Checkpoint compaction
//!
//! [`WalStore::checkpoint`] quiesces every stripe's pipeline (staged
//! frames flush, leaders drain) and then freezes all stripes — taking
//! every staging and I/O lock in ascending order, which also blocks the
//! sequence allocator — writes `checkpoint.tmp` — a one-line header
//! `ctr-store checkpoint v1 <cut>` followed by the runtime's ordinary
//! text snapshot — syncs it, renames it over `checkpoint.snap`, syncs
//! the directory, and only then deletes the covered segments. A crash
//! anywhere in that sequence is safe: before the rename the old
//! baseline still rules; after it, leftover segments only contain
//! records with `seq < cut`, which replay skips. Recovery can therefore
//! never land *behind* a committed snapshot.

use crate::commit::{CommitQueue, Durability};
use crate::{
    decode_payload, merge_by_seq, split_frame, Counters, Record, Replay, Store, StoreError,
    StoreStats,
};
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// First line of `checkpoint.snap`, followed by the cut sequence: every
/// record with `seq < cut` is covered by the snapshot body.
const CHECKPOINT_HEADER: &str = "ctr-store checkpoint v1";

/// Frames larger than this are rejected as corrupt rather than
/// allocated — a torn length prefix must not ask for gigabytes.
const MAX_PAYLOAD: u32 = 1 << 28;

/// Tuning knobs for [`WalStore`].
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Number of log stripes. Match the runtime's shard count (16) so
    /// instance striping and log striping agree.
    pub shards: usize,
    /// Rotate a segment once it holds at least this many bytes.
    pub segment_bytes: u64,
    /// When an append is acknowledged and what a crash may lose; see
    /// [`Durability`]. Defaults to [`Durability::Strict`].
    pub durability: Durability,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions {
            shards: 16,
            segment_bytes: 4 << 20,
            durability: Durability::Strict,
        }
    }
}

/// Mutable per-stripe file state: the open segment and its write
/// position. Lives behind the stripe's I/O lock.
pub(crate) struct StripeLog {
    pub(crate) dir: PathBuf,
    /// Open segment file, if any writes happened since open/rotation.
    pub(crate) file: Option<File>,
    /// Index of the current (or, if `file` is `None`, next) segment.
    pub(crate) seg_index: u64,
    /// Bytes written to the current segment.
    pub(crate) seg_bytes: u64,
    /// A failed append may have left a partial frame after `seg_bytes`.
    /// While set, no further append may land — the next write after
    /// garbage would be unreachable at recovery (the scan truncates at
    /// the first bad frame). [`WalInner::repair`] truncates the segment
    /// back to `seg_bytes` and clears the flag.
    pub(crate) dirty: bool,
}

impl StripeLog {
    pub(crate) fn segment_path(&self, index: u64) -> PathBuf {
        self.dir.join(format!("{index:08}.seg"))
    }
}

/// One log stripe: the commit queue (staging side) and the segment
/// file state (I/O side), each behind its own lock so appenders can
/// stage the next group while the leader blocks in `sync_data`.
///
/// Lock order within a stripe: staging before I/O; the I/O lock is
/// never held while (re)acquiring the staging lock.
pub(crate) struct Stripe {
    pub(crate) staging: Mutex<CommitQueue>,
    /// Wakes waiters when the durable watermark advances, a group
    /// fails, or leadership frees up (the wait loop is also the leader
    /// election).
    pub(crate) durable_cv: Condvar,
    /// Wakes a leader lingering in its grow-the-group window when a
    /// new frame stages.
    pub(crate) staged_cv: Condvar,
    pub(crate) io: Mutex<StripeLog>,
}

/// The shared guts of a [`WalStore`], behind an `Arc` so the periodic
/// background syncer thread can hold them too.
pub(crate) struct WalInner {
    pub(crate) root: PathBuf,
    pub(crate) options: WalOptions,
    /// Next global sequence number. Allocated while holding the
    /// destination stripe's staging lock, so `checkpoint` (which holds
    /// *all* staging locks) observes a frontier no in-flight append can
    /// cross.
    seq: AtomicU64,
    pub(crate) stripes: Vec<Stripe>,
    pub(crate) counters: Counters,
    /// Scan result from [`WalStore::open`], handed out by the first
    /// [`WalStore::replay`] so recovery does not re-read the disk.
    recovered: Mutex<Option<Replay>>,
    /// Test hook: fail the next N group writes (after writing half the
    /// group's bytes, so a real partial frame exercises the repair
    /// path). Zero in production; one relaxed load per group commit.
    pub(crate) fail_writes: AtomicU32,
    /// Shutdown flag for the periodic syncer thread.
    stop: Mutex<bool>,
    stop_cv: Condvar,
}

/// The durable backend: an append-only segmented log per stripe with a
/// cross-thread group-commit pipeline. See the module docs for the
/// on-disk contract and [`crate::commit`] for the pipeline protocol.
pub struct WalStore {
    inner: Arc<WalInner>,
    /// Background syncer under [`Durability::Periodic`].
    syncer: Option<JoinHandle<()>>,
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{context} {}: {e}", path.display()))
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .map(|(guard, _)| guard)
        .unwrap_or_else(|e| e.into_inner().0)
}

/// Syncs a directory so renames/creates/unlinks in it are durable.
fn sync_dir(path: &Path) -> Result<(), StoreError> {
    File::open(path)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("syncing directory", path, e))
}

/// Result of scanning one stripe directory.
struct StripeScan {
    records: Vec<(u64, Record)>,
    /// Index of the last existing segment (next writes continue there).
    seg_index: u64,
    /// Size of that segment after any torn-tail truncation.
    seg_bytes: u64,
    good_bytes: u64,
    torn_bytes: u64,
}

impl WalStore {
    /// Opens (creating if absent) a WAL rooted at `root` with default
    /// options, repairing any torn tail left by a crash.
    pub fn open(root: impl Into<PathBuf>) -> Result<WalStore, StoreError> {
        WalStore::open_with(root, WalOptions::default())
    }

    /// [`WalStore::open`] with explicit tuning options.
    pub fn open_with(
        root: impl Into<PathBuf>,
        options: WalOptions,
    ) -> Result<WalStore, StoreError> {
        let root = root.into();
        assert!(options.shards > 0, "need at least one stripe");
        fs::create_dir_all(&root).map_err(|e| io_err("creating", &root, e))?;

        let (snapshot, cut) = read_checkpoint(&root)?;

        let counters = Counters::default();
        let mut stripes = Vec::with_capacity(options.shards);
        let mut per_shard = Vec::with_capacity(options.shards);
        let mut max_seq = cut; // next seq must be ≥ the checkpoint cut
        for s in 0..options.shards {
            let dir = root.join(format!("shard-{s:02}"));
            fs::create_dir_all(&dir).map_err(|e| io_err("creating", &dir, e))?;
            let scan = scan_stripe(&dir, cut, true)?;
            counters.on_recovered(scan.good_bytes, scan.torn_bytes);
            if let Some(&(seq, _)) = scan.records.last() {
                max_seq = max_seq.max(seq + 1);
            }
            per_shard.push(scan.records);
            stripes.push(Stripe {
                staging: Mutex::new(CommitQueue::new()),
                durable_cv: Condvar::new(),
                staged_cv: Condvar::new(),
                io: Mutex::new(StripeLog {
                    dir,
                    file: None,
                    seg_index: scan.seg_index,
                    seg_bytes: scan.seg_bytes,
                    dirty: false,
                }),
            });
        }

        let replay = Replay {
            snapshot,
            records: merge_by_seq(per_shard),
        };
        let inner = Arc::new(WalInner {
            root,
            options,
            seq: AtomicU64::new(max_seq),
            stripes,
            counters,
            recovered: Mutex::new(Some(replay)),
            fail_writes: AtomicU32::new(0),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
        });

        let syncer = match options.durability {
            Durability::Periodic { interval } => {
                let inner = Arc::clone(&inner);
                let handle = std::thread::Builder::new()
                    .name("ctr-wal-syncer".to_owned())
                    .spawn(move || {
                        // The flag is tested before every wait: `Drop`
                        // may set it and notify while this thread is
                        // starting up or syncing, and a notification
                        // nobody waits for is lost — the wait would
                        // then run its whole interval.
                        let mut stop = lock(&inner.stop);
                        while !*stop {
                            stop = wait_timeout(&inner.stop_cv, stop, interval);
                            if *stop {
                                return;
                            }
                            drop(stop);
                            for s in 0..inner.options.shards {
                                inner.sync_stripe_once(s);
                            }
                            stop = lock(&inner.stop);
                        }
                    })
                    .map_err(|e| StoreError::Io(format!("spawning wal syncer: {e}")))?;
                Some(handle)
            }
            _ => None,
        };
        Ok(WalStore { inner, syncer })
    }

    /// The store's root directory.
    pub fn path(&self) -> &Path {
        &self.inner.root
    }

    /// The shared internals — for in-crate tests (fault injection,
    /// direct stripe inspection).
    #[cfg(test)]
    pub(crate) fn inner(&self) -> &WalInner {
        &self.inner
    }
}

impl Drop for WalStore {
    fn drop(&mut self) {
        *lock(&self.inner.stop) = true;
        self.inner.stop_cv.notify_all();
        if let Some(handle) = self.syncer.take() {
            let _ = handle.join();
        }
        // Flush any staged-but-unsynced tail (the Periodic window) —
        // best effort: a failure here is exactly the bounded loss the
        // relaxed policy documents. Strict/Coalesced queues are empty
        // by construction (their appends return only after the sync).
        for s in 0..self.inner.options.shards {
            drop(self.inner.quiesce_stripe(s));
        }
    }
}

/// Reads `checkpoint.snap`: returns the snapshot body and the cut
/// sequence, or `(None, 0)` if no checkpoint was ever taken.
fn read_checkpoint(root: &Path) -> Result<(Option<String>, u64), StoreError> {
    let path = root.join("checkpoint.snap");
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((None, 0)),
        Err(e) => return Err(io_err("reading", &path, e)),
    };
    let Some((header, body)) = text.split_once('\n') else {
        return Err(StoreError::Corrupt(
            "checkpoint has no header line".to_owned(),
        ));
    };
    let cut = header
        .strip_prefix(CHECKPOINT_HEADER)
        .map(str::trim)
        .and_then(|cut| cut.parse::<u64>().ok())
        .ok_or_else(|| StoreError::Corrupt(format!("bad checkpoint header: {header:?}")))?;
    Ok((Some(body.to_owned()), cut))
}

/// Numeric index of a `NNNNNNNN.seg` file name, if it is one.
fn segment_index(name: &std::ffi::OsStr) -> Option<u64> {
    let name = name.to_str()?;
    name.strip_suffix(".seg")?.parse().ok()
}

/// A stripe's segment files as `(index, path)`, in index order.
fn stripe_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut segments: Vec<(u64, PathBuf)> = fs::read_dir(dir)
        .map_err(|e| io_err("listing", dir, e))?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| Some((segment_index(&entry.file_name())?, entry.path())))
        .collect();
    segments.sort_unstable();
    Ok(segments)
}

/// Scans one stripe directory: walks its segments in order, collecting
/// every whole record with `seq ≥ cut` up to the first bad frame, which
/// marks a torn tail. With `repair` (open; a live re-scan only reads)
/// the segment is truncated there and any later segments of the stripe
/// are deleted (they would replay records out of order past a hole).
/// Returns where the stripe's writer should resume.
fn scan_stripe(dir: &Path, cut: u64, repair: bool) -> Result<StripeScan, StoreError> {
    let mut scan = StripeScan {
        records: Vec::new(),
        seg_index: 0,
        seg_bytes: 0,
        good_bytes: 0,
        torn_bytes: 0,
    };
    let mut torn = false;
    for (index, path) in stripe_segments(dir)? {
        if torn {
            // Everything after a tear is unreachable history; drop it.
            if repair {
                scan.torn_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                fs::remove_file(&path).map_err(|e| io_err("removing", &path, e))?;
            }
            continue;
        }
        let bytes = fs::read(&path).map_err(|e| io_err("reading", &path, e))?;
        let (good_end, records) = scan_segment(&bytes, cut);
        scan.records.extend(records);
        scan.good_bytes += good_end;
        scan.seg_index = index;
        scan.seg_bytes = good_end;
        if (good_end as usize) < bytes.len() {
            torn = true;
            scan.torn_bytes += bytes.len() as u64 - good_end;
            if repair {
                // Truncate the segment to its valid prefix.
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err("opening for repair", &path, e))?;
                file.set_len(good_end)
                    .and_then(|()| file.sync_all())
                    .map_err(|e| io_err("truncating torn tail of", &path, e))?;
                sync_dir(dir)?;
            }
        }
    }
    Ok(scan)
}

/// Walks frames in one segment's bytes. Returns the byte offset of the
/// end of the last whole, checksum-valid, parseable record (everything
/// before it decoded) — the scan's truncation point on a torn tail.
fn scan_segment(bytes: &[u8], cut: u64) -> (u64, Vec<(u64, Record)>) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while let Ok(Some((used, payload))) = split_frame(&bytes[offset..], MAX_PAYLOAD as usize) {
        let Ok((seq, record)) = decode_payload(payload) else {
            break;
        };
        offset += used;
        if seq >= cut {
            records.push((seq, record));
        }
    }
    (offset as u64, records)
}

impl Store for WalStore {
    fn append(&self, record: &Record) -> Result<(), StoreError> {
        record.validate_encodable()?;
        let s = record.shard(self.inner.options.shards);
        self.inner.append(s, record)
    }

    fn replay(&self) -> Result<Replay, StoreError> {
        self.inner.replay()
    }

    fn checkpoint(&self, snapshot: &str) -> Result<(), StoreError> {
        self.inner.checkpoint(snapshot)
    }

    fn stats(&self) -> StoreStats {
        self.inner.counters.snapshot()
    }
}

impl WalInner {
    /// Allocates the next global sequence number. Must be called with
    /// the destination stripe's staging lock held (see `seq`).
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Rejects payloads the frame scan would refuse on read — a frame
    /// written past [`MAX_PAYLOAD`] would be discarded at recovery as a
    /// torn tail, taking every later record of the stripe with it. (A
    /// burned seq is a harmless gap — recovery merges by seq and never
    /// requires contiguity.)
    pub(crate) fn check_payload_size(&self, len: usize) -> Result<(), StoreError> {
        if len > MAX_PAYLOAD as usize {
            return Err(StoreError::Unencodable(format!(
                "record payload of {len} bytes exceeds the {MAX_PAYLOAD} byte frame limit"
            )));
        }
        Ok(())
    }

    /// Writes one group (one or more whole frames) to a stripe's open
    /// segment and syncs it: repair-if-poisoned, rotate-if-full, one
    /// `write_all`, one `sync_data`. On failure the stripe is poisoned
    /// and immediately truncated back to its last acknowledged byte —
    /// a handle whose write or fsync failed cannot be trusted about
    /// what is durable, and writing after a partial frame would strand
    /// every later record behind an unreadable frame at recovery.
    /// Returns the write+sync latency. Called with the I/O lock held.
    pub(crate) fn write_group(
        &self,
        log: &mut StripeLog,
        buf: &[u8],
    ) -> Result<Duration, StoreError> {
        if log.dirty {
            // A previous write failed mid-frame and its immediate
            // repair failed too; retry before writing anything new.
            self.repair(log)?;
        }
        if log.file.is_none() || log.seg_bytes >= self.options.segment_bytes {
            self.rotate(log)?;
        }
        let path = log.segment_path(log.seg_index);
        let file = log.file.as_mut().expect("rotate opened a segment");
        let inject = {
            let mut injected = false;
            let _ = self
                .fail_writes
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    injected = n > 0;
                    n.checked_sub(1)
                });
            injected
        };
        let start = Instant::now();
        let outcome = if inject {
            let _ = file.write_all(&buf[..buf.len() / 2]);
            Err(std::io::Error::other("injected write failure"))
        } else {
            file.write_all(buf).and_then(|()| file.sync_data())
        };
        match outcome {
            Ok(()) => {
                log.seg_bytes += buf.len() as u64;
                Ok(start.elapsed())
            }
            Err(e) => {
                log.dirty = true;
                let _ = self.repair(log);
                Err(io_err("appending to", &path, e))
            }
        }
    }

    /// Reads everything back; see [`Store::replay`]. Re-scans after the
    /// first call quiesce every stripe's pipeline (so a relaxed
    /// policy's staged-but-unsynced tail is flushed and visible) and
    /// hold all staging + I/O locks for the whole scan — the same
    /// freeze checkpoint takes, in the same ascending order — so
    /// concurrent appends and checkpoints cannot interleave mid-scan
    /// and the merged result is a single point in time across stripes.
    fn replay(&self) -> Result<Replay, StoreError> {
        if let Some(replay) = lock(&self.recovered).take() {
            return Ok(replay);
        }
        let mut queues = Vec::with_capacity(self.options.shards);
        let mut logs = Vec::with_capacity(self.options.shards);
        for s in 0..self.options.shards {
            queues.push(self.quiesce_stripe(s));
            logs.push(lock(&self.stripes[s].io));
        }
        let (snapshot, cut) = read_checkpoint(&self.root)?;
        let mut per_shard = Vec::with_capacity(self.options.shards);
        for log in &logs {
            per_shard.push(scan_stripe(&log.dir, cut, false)?.records);
        }
        Ok(Replay {
            snapshot,
            records: merge_by_seq(per_shard),
        })
    }

    /// Compacts; see [`Store::checkpoint`]. Quiesces and freezes every
    /// stripe (ascending order — the only multi-stripe path, so no
    /// ordering conflicts). Quiescing first flushes any staged frames:
    /// under [`Durability::Periodic`] those are acknowledged records
    /// whose effects the caller's snapshot already covers, and they
    /// must not evaporate with the deleted segments. With all staging
    /// locks held no append can allocate a sequence number, so `cut`
    /// cleanly splits history: everything below is in `snapshot`,
    /// everything at or above will be appended after we release.
    fn checkpoint(&self, snapshot: &str) -> Result<(), StoreError> {
        let mut queues = Vec::with_capacity(self.options.shards);
        let mut logs = Vec::with_capacity(self.options.shards);
        for s in 0..self.options.shards {
            queues.push(self.quiesce_stripe(s));
            logs.push(lock(&self.stripes[s].io));
        }
        let cut = self.seq.load(Ordering::Relaxed);

        let tmp = self.root.join("checkpoint.tmp");
        let path = self.root.join("checkpoint.snap");
        let mut file = File::create(&tmp).map_err(|e| io_err("creating", &tmp, e))?;
        file.write_all(format!("{CHECKPOINT_HEADER} {cut}\n").as_bytes())
            .and_then(|()| file.write_all(snapshot.as_bytes()))
            .and_then(|()| file.sync_all())
            .map_err(|e| io_err("writing", &tmp, e))?;
        self.counters.on_checkpoint_sync();
        fs::rename(&tmp, &path).map_err(|e| io_err("installing", &path, e))?;
        sync_dir(&self.root)?;
        self.counters.on_checkpoint_sync();

        // The snapshot is the durable baseline now; covered segments
        // (every record they hold has seq < cut) are dead weight. A
        // crash before these deletes finish is harmless: replay skips
        // records below the cut.
        for log in logs.iter_mut() {
            for (_, path) in stripe_segments(&log.dir)? {
                match fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(io_err("removing", &path, e)),
                }
            }
            sync_dir(&log.dir)?;
            self.counters.on_checkpoint_sync();
            log.file = None;
            log.seg_index += 1;
            log.seg_bytes = 0;
            // Any partial frame a failed write left behind was deleted
            // with its segment; the stripe starts clean.
            log.dirty = false;
        }
        drop(queues);
        self.counters.on_compaction();
        Ok(())
    }

    /// Truncates a stripe's open segment back to its last acknowledged
    /// byte after a failed write (possibly) left a partial frame past
    /// `seg_bytes` — writing after that garbage would strand every
    /// later record behind an unreadable frame at recovery. The failed
    /// handle is discarded (after a failed write or fsync its state is
    /// untrustworthy); the next write reopens the segment fresh.
    /// Called with the I/O lock held.
    fn repair(&self, log: &mut StripeLog) -> Result<(), StoreError> {
        log.file = None;
        let path = log.segment_path(log.seg_index);
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| io_err("reopening to repair", &path, e))?;
        file.set_len(log.seg_bytes)
            .and_then(|()| file.sync_all())
            .map_err(|e| io_err("truncating failed append in", &path, e))?;
        self.counters.on_rotation_sync();
        log.dirty = false;
        Ok(())
    }

    /// Opens the next segment file for a stripe (called with the I/O
    /// lock held).
    fn rotate(&self, log: &mut StripeLog) -> Result<(), StoreError> {
        if log.file.is_some() {
            log.seg_index += 1;
        } else if log.seg_bytes > 0 {
            // Resuming after open(): continue the existing segment.
            let path = log.segment_path(log.seg_index);
            let file = OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(|e| io_err("reopening", &path, e))?;
            log.file = Some(file);
            return Ok(());
        }
        let path = log.segment_path(log.seg_index);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("creating", &path, e))?;
        // Make the new directory entry durable before its records are.
        sync_dir(&log.dir)?;
        self.counters.on_rotation_sync();
        log.file = Some(file);
        log.seg_bytes = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unique scratch directory under the target dir (no external
    /// tempdir crate in this environment).
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ctr-store-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ev(instance: u64, events: &[&str]) -> Record {
        Record::Events {
            instance,
            events: events.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    /// A `Periodic` store dropped before its syncer thread first waits
    /// (or between a pass and the next wait) must not sit out the
    /// interval: the thread tests the stop flag before every wait.
    #[test]
    fn periodic_store_drops_promptly_whenever_the_syncer_is_caught() {
        let dir = scratch("periodic-prompt-drop");
        let options = WalOptions {
            shards: 1,
            durability: Durability::Periodic {
                interval: Duration::from_secs(3600),
            },
            ..WalOptions::default()
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            for _ in 0..200 {
                drop(WalStore::open_with(&dir, options).unwrap());
            }
            fs::remove_dir_all(&dir).ok();
            done_tx.send(()).ok();
        });
        // The watchdog: a hung drop would otherwise hang the test run.
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("200 open+drop cycles of a Periodic store finish within 10 s");
        worker.join().unwrap();
    }

    #[test]
    fn default_durability_is_strict() {
        assert_eq!(WalOptions::default().durability, Durability::Strict);
    }

    #[test]
    fn wal_round_trips_across_reopen() {
        let dir = scratch("roundtrip");
        let records = vec![
            Record::Deploy {
                name: "pay".to_owned(),
                goal: "a * b".to_owned(),
            },
            Record::Start {
                instance: 0,
                workflow: "pay".to_owned(),
            },
            ev(0, &["a"]),
            Record::Start {
                instance: 17,
                workflow: "pay".to_owned(),
            },
            ev(17, &["a", "b"]),
            Record::Complete { instance: 17 },
        ];
        {
            let store = WalStore::open(&dir).unwrap();
            for r in &records {
                store.append(r).unwrap();
            }
            let stats = store.stats();
            assert_eq!(stats.appends, 6);
            assert_eq!(stats.events, 3);
            assert_eq!(stats.max_group, 2);
            assert_eq!(stats.fsyncs, 6, "strict: every append pays its own sync");
            assert!(
                stats.rotation_syncs >= 1,
                "segment-creation dir syncs are attributed separately"
            );
            assert_eq!(stats.group_size_hist[0], 6, "all groups of one");
        }
        let store = WalStore::open(&dir).unwrap();
        let replay = store.replay().unwrap();
        assert_eq!(replay.snapshot, None);
        assert_eq!(replay.records, records);
        assert!(store.stats().recovered_bytes > 0);
        assert_eq!(store.stats().torn_bytes, 0);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = scratch("torn");
        {
            let store = WalStore::open(&dir).unwrap();
            store
                .append(&Record::Start {
                    instance: 1,
                    workflow: "w".to_owned(),
                })
                .unwrap();
            store.append(&ev(1, &["a"])).unwrap();
        }
        // Tear the last record: chop bytes off the stripe-01 segment.
        let seg = dir.join("shard-01").join("00000000.seg");
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

        let store = WalStore::open(&dir).unwrap();
        let replay = store.replay().unwrap();
        assert_eq!(
            replay.records,
            vec![Record::Start {
                instance: 1,
                workflow: "w".to_owned(),
            }]
        );
        assert!(store.stats().torn_bytes > 0);
        // The truncated file holds exactly the surviving record.
        let repaired = fs::read(&seg).unwrap();
        assert!(repaired.len() < bytes.len());

        // New appends continue cleanly after the repair.
        store.append(&ev(1, &["a"])).unwrap();
        drop(store);
        let store = WalStore::open(&dir).unwrap();
        assert_eq!(store.replay().unwrap().records.len(), 2);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_mid_segment_discards_the_suffix_not_the_prefix() {
        let dir = scratch("bitflip");
        {
            let store = WalStore::open(&dir).unwrap();
            for i in 0..5 {
                store.append(&ev(32, &[&format!("e{i}")])).unwrap();
            }
        }
        let seg = dir.join("shard-00").join("00000000.seg");
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();

        let store = WalStore::open(&dir).unwrap();
        let replay = store.replay().unwrap();
        assert!(replay.records.len() < 5, "suffix after the flip is gone");
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r, &ev(32, &[&format!("e{i}")]), "prefix intact");
        }
        assert!(store.stats().torn_bytes > 0);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_recovery_never_lands_behind_it() {
        let dir = scratch("checkpoint");
        {
            let store = WalStore::open(&dir).unwrap();
            store.append(&ev(3, &["a"])).unwrap();
            store.append(&ev(3, &["b"])).unwrap();
            store.checkpoint("the-snapshot").unwrap();
            // Segments covered by the checkpoint are gone.
            let survivors: Vec<_> = fs::read_dir(dir.join("shard-03"))
                .unwrap()
                .filter_map(|e| e.ok())
                .collect();
            assert!(survivors.is_empty(), "compaction removed segments");
            store.append(&ev(3, &["c"])).unwrap();
            assert_eq!(store.stats().compactions, 1);
            assert!(
                store.stats().checkpoint_syncs >= 2,
                "checkpoint syncs are attributed separately from commits"
            );
            assert_eq!(store.stats().fsyncs, 3, "one commit sync per append");
        }
        let store = WalStore::open(&dir).unwrap();
        let replay = store.replay().unwrap();
        assert_eq!(replay.snapshot.as_deref(), Some("the-snapshot"));
        assert_eq!(replay.records, vec![ev(3, &["c"])]);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_segments_below_the_cut_are_skipped() {
        // Simulate a crash between checkpoint rename and segment
        // deletion: put a pre-cut segment back and reopen.
        let dir = scratch("stale");
        let seg = dir.join("shard-05").join("00000000.seg");
        {
            let store = WalStore::open(&dir).unwrap();
            store.append(&ev(5, &["old"])).unwrap();
            let stale = fs::read(&seg).unwrap();
            store.checkpoint("snap").unwrap();
            store.append(&ev(5, &["new"])).unwrap();
            // Resurrect the pre-checkpoint segment alongside the live one.
            fs::write(&seg, stale).unwrap();
        }
        let store = WalStore::open(&dir).unwrap();
        let replay = store.replay().unwrap();
        assert_eq!(replay.snapshot.as_deref(), Some("snap"));
        assert_eq!(
            replay.records,
            vec![ev(5, &["new"])],
            "pre-cut record skipped"
        );
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_by_size_and_replay_in_order() {
        let dir = scratch("rotate");
        let options = WalOptions {
            shards: 4,
            segment_bytes: 64,
            ..WalOptions::default()
        };
        {
            let store = WalStore::open_with(&dir, options).unwrap();
            for i in 0..40u64 {
                store.append(&ev(i % 4, &[&format!("e{i}")])).unwrap();
            }
        }
        let segs = fs::read_dir(dir.join("shard-00")).unwrap().count();
        assert!(
            segs > 1,
            "size limit forces rotation, got {segs} segment(s)"
        );
        let store = WalStore::open_with(&dir, options).unwrap();
        let replay = store.replay().unwrap();
        assert_eq!(replay.records.len(), 40);
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r, &ev(i as u64 % 4, &[&format!("e{i}")]), "global order");
        }
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_frame_from_a_failed_append_is_repaired_before_the_next() {
        use std::io::Write as _;
        // Simulate a failed append that left a partial frame behind the
        // acknowledged tail: write garbage through the open handle and
        // mark the stripe dirty, exactly the state the write error
        // path leaves when its immediate repair also fails. The next
        // append must truncate back to the last acknowledged byte
        // before writing — otherwise its record (and everything after)
        // would sit behind an unreadable frame and be discarded as a
        // torn tail at recovery.
        let dir = scratch("failedappend");
        let store = WalStore::open(&dir).unwrap();
        store.append(&ev(1, &["a"])).unwrap();
        {
            let mut log = lock(&store.inner().stripes[1].io);
            let good = log.seg_bytes;
            let path = log.segment_path(log.seg_index);
            log.file
                .as_mut()
                .unwrap()
                .write_all(&[0xDE, 0xAD, 0xBE])
                .unwrap();
            assert!(fs::metadata(&path).unwrap().len() > good);
            log.dirty = true;
        }
        store.append(&ev(1, &["b"])).unwrap();
        drop(store);
        let store = WalStore::open(&dir).unwrap();
        assert_eq!(store.stats().torn_bytes, 0, "no garbage survived");
        assert_eq!(
            store.replay().unwrap().records,
            vec![ev(1, &["a"]), ev(1, &["b"])]
        );
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unencodable_records_are_rejected_before_any_write() {
        let dir = scratch("unencodable");
        let store = WalStore::open(&dir).unwrap();
        // An event name with whitespace would round-trip into multiple
        // events (`split_whitespace` on read) — replay divergence.
        let err = store.append(&ev(2, &["two words"])).unwrap_err();
        assert!(matches!(err, StoreError::Unencodable(_)), "got {err:?}");
        let err = store
            .append(&Record::Start {
                instance: 2,
                workflow: "tab\tbed".to_owned(),
            })
            .unwrap_err();
        assert!(matches!(err, StoreError::Unencodable(_)), "got {err:?}");
        // Nothing landed; the stripe still accepts normal traffic.
        assert_eq!(store.stats().appends, 0);
        store.append(&ev(2, &["fine"])).unwrap();
        drop(store);
        let store = WalStore::open(&dir).unwrap();
        assert_eq!(store.replay().unwrap().records, vec![ev(2, &["fine"])]);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_payloads_are_rejected_before_any_write() {
        // The scan rejects frames over MAX_PAYLOAD on read; writing one
        // anyway would strand it (and every later record of the stripe)
        // as a torn tail at recovery. The write path must refuse first.
        let dir = scratch("toolarge");
        let store = WalStore::open(&dir).unwrap();
        let err = store
            .append(&Record::Deploy {
                name: "big".to_owned(),
                goal: "g".repeat(MAX_PAYLOAD as usize + 1),
            })
            .unwrap_err();
        assert!(matches!(err, StoreError::Unencodable(_)), "got {err:?}");
        assert_eq!(store.stats().appends, 0);
        store.append(&ev(0, &["a"])).unwrap();
        drop(store);
        let store = WalStore::open(&dir).unwrap();
        assert_eq!(store.replay().unwrap().records, vec![ev(0, &["a"])]);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_header_is_a_typed_error() {
        let dir = scratch("badckpt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("checkpoint.snap"), "not a checkpoint\nbody").unwrap();
        assert!(matches!(WalStore::open(&dir), Err(StoreError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }
}
