//! The segmented write-ahead log backend.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   checkpoint.snap          latest compaction snapshot (atomic rename)
//!   00000001.seg ...         the log: append-only segments, rotated by size
//! ```
//!
//! Every file-system call goes through the store's [`Fs`]: [`OsFs`]
//! for [`WalStore::open`], any other for [`WalStore::open_on`].
//!
//! The log is one segment sequence. A sequence number, allocated under
//! the staging lock that queues the frame, stamps every record, so a
//! record's place in the log is its seq order, and a crash or a failed
//! group write loses only a suffix of the whole history. A root holding
//! the `shard-NN/` directories of the old striped layout is refused
//! with [`StoreError::Corrupt`]; nothing migrates it.
//!
//! ## Record frame
//!
//! `[len: u32 LE] [crc32(payload): u32 LE] [payload]` — the payload is
//! the tab-separated text of `encode_payload`. A record either reads
//! back whole (length sane, checksum matches, payload parses) or the
//! scan stops there: everything from the first bad byte on is a **torn
//! tail**, truncated at open and counted in
//! [`StoreStats::torn_bytes`]. Only a tail can legitimately tear —
//! appends are sequential and synced — so any later segments are
//! discarded with it rather than replayed out of order. Open unlinks
//! them and syncs the directory *before* it truncates the torn segment:
//! a crash inside that repair leaves the segment still torn ahead of
//! whatever later segment survived, and the next open repairs to the
//! same records.
//!
//! The write path defends that invariant: payloads over `MAX_PAYLOAD`
//! and records the text format cannot round-trip (see
//! [`Record::validate_encodable`]) are rejected with
//! [`StoreError::Unencodable`] before any byte lands, and a failed
//! write or fsync truncates the segment back to its last acknowledged
//! byte (poisoning the log until the truncation succeeds) — so a
//! mid-segment frame that fails the scan can only mean external
//! corruption, never a write the store itself acknowledged past.
//!
//! ## The commit pipeline
//!
//! Appending is a two-lock pipeline (see [`crate::commit`] for the full
//! protocol): frames *stage* into a commit queue under a short
//! **staging** lock, and a **leader** drains every staged frame into
//! one `write_all` + one `sync_data` under the separate **I/O** lock —
//! so N concurrent appends cost one fsync, not N, while each `append()`
//! still returns only after its record is durable.
//! [`WalOptions::durability`] picks the policy:
//!
//! | [`Durability`]        | acknowledged when…        | crash may lose |
//! |-----------------------|---------------------------|----------------|
//! | `Strict` (default)    | its *group's* fsync returns | nothing acknowledged |
//! | `Coalesced{max_wait}` | the same, the leader lingering ≤ `max_wait` | nothing acknowledged |
//! | `Periodic{interval}`  | staged (fsync in ≤ interval) | up to one interval, always a contiguous suffix of the log |
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
//! [`WalStore::checkpoint`] quiesces the pipeline (staged frames flush,
//! leaders drain) and then freezes the log — holding the staging and
//! I/O locks, which also blocks the sequence allocator — writes
//! `checkpoint.tmp` — a one-line header `ctr-store checkpoint v1 <cut>`
//! followed by the runtime's ordinary text snapshot — syncs it, renames
//! it over `checkpoint.snap`, syncs the directory, and only then deletes
//! the covered segments — the log detached from its open segment (and a
//! poisoned one repaired) before the first unlink, so a failure partway
//! leaves it appending to a fresh segment, never to an unlinked one. A
//! crash anywhere in that sequence is safe: before the rename the old
//! baseline still rules; after it, leftover segments only contain whole
//! records with `seq < cut`, which replay skips. Recovery can therefore
//! never land *behind* a committed snapshot.

use crate::commit::{CommitQueue, Durability};
use crate::fs::{Fs, OsFs, Segment};
use crate::{decode_payload, split_frame, Counters, Record, Replay, Store, StoreError, StoreStats};
use std::path::{Path, PathBuf};
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
    /// Must be 1: the log is one segment sequence. Kept only so that
    /// struct literals naming it still compile.
    #[doc(hidden)]
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
            shards: 1,
            segment_bytes: 4 << 20,
            durability: Durability::Strict,
        }
    }
}

/// The log's file state: the open segment and its write position.
/// Lives behind the I/O lock.
pub(crate) struct LogFile {
    /// Open segment file, if any writes happened since open/rotation.
    file: Option<Box<dyn Segment>>,
    /// Index of the current (or, if `file` is `None`, next) segment.
    seg_index: u64,
    /// Bytes written to the current segment.
    seg_bytes: u64,
    /// A failed append may have left a partial frame after `seg_bytes`.
    /// While set, no further append may land — the next write after
    /// garbage would be unreachable at recovery (the scan truncates at
    /// the first bad frame). [`WalInner::repair`] truncates the segment
    /// back to `seg_bytes` and clears the flag.
    dirty: bool,
}

/// The shared guts of a [`WalStore`], behind an `Arc` so the periodic
/// background syncer thread can hold them too.
///
/// The commit queue (staging side) and the segment file state (I/O
/// side) each sit behind their own lock, so appenders can stage the
/// next group while the leader blocks in `sync_data`. Lock order:
/// staging before I/O; the I/O lock is never held while (re)acquiring
/// the staging lock.
pub(crate) struct WalInner {
    fs: Arc<dyn Fs>,
    root: PathBuf,
    pub(crate) options: WalOptions,
    pub(crate) staging: Mutex<CommitQueue>,
    /// Wakes waiters when the durable watermark advances, a group
    /// fails, or leadership frees up (the wait loop is also the leader
    /// election).
    pub(crate) durable_cv: Condvar,
    /// Wakes a leader lingering in its grow-the-group window when a
    /// new frame stages.
    pub(crate) staged_cv: Condvar,
    pub(crate) io: Mutex<LogFile>,
    pub(crate) counters: Counters,
    /// Scan result from [`WalStore::open`], handed out by the first
    /// [`WalStore::replay`] so recovery does not re-read the disk.
    recovered: Mutex<Option<Replay>>,
    /// Shutdown flag for the periodic syncer thread.
    stop: Mutex<bool>,
    stop_cv: Condvar,
}

/// The durable backend: one append-only segmented log with a
/// cross-thread group-commit pipeline. See the module docs for the
/// on-disk contract and [`crate::commit`] for the pipeline protocol.
pub struct WalStore {
    inner: Arc<WalInner>,
    /// Background syncer under [`Durability::Periodic`].
    syncer: Option<JoinHandle<()>>,
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

/// Result of scanning the log.
struct LogScan {
    records: Vec<Record>,
    /// The seq the next append gets: past the cut and every frame read.
    next_seq: u64,
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
        WalStore::open_on(Arc::new(OsFs), root, options)
    }

    /// [`WalStore::open_with`] over the file system `fs`, which every
    /// later call of the store goes through too.
    pub fn open_on(
        fs: Arc<dyn Fs>,
        root: impl Into<PathBuf>,
        options: WalOptions,
    ) -> Result<WalStore, StoreError> {
        let root = root.into();
        assert_eq!(options.shards, 1, "the log is one segment sequence");
        fs.create_dir_all(&root)?;

        let (snapshot, cut) = read_checkpoint(&*fs, &root)?;
        let scan = scan_log(&*fs, &root, cut, true)?;
        let counters = Counters::default();
        counters.on_recovered(scan.good_bytes, scan.torn_bytes);
        let inner = Arc::new(WalInner {
            fs,
            root,
            options,
            staging: Mutex::new(CommitQueue::new(scan.next_seq)),
            durable_cv: Condvar::new(),
            staged_cv: Condvar::new(),
            io: Mutex::new(LogFile {
                file: None,
                seg_index: scan.seg_index,
                seg_bytes: scan.seg_bytes,
                dirty: false,
            }),
            counters,
            recovered: Mutex::new(Some(Replay {
                snapshot,
                records: scan.records,
            })),
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
                            inner.sync_once();
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
        drop(self.inner.quiesce());
    }
}

/// Reads `checkpoint.snap`: returns the snapshot body and the cut
/// sequence, or `(None, 0)` if no checkpoint was ever taken.
fn read_checkpoint(fs: &dyn Fs, root: &Path) -> Result<(Option<String>, u64), StoreError> {
    let Some(bytes) = fs.read(&root.join("checkpoint.snap"))? else {
        return Ok((None, 0));
    };
    let text = String::from_utf8(bytes)
        .map_err(|_| StoreError::Corrupt("checkpoint is not UTF-8".to_owned()))?;
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

fn segment_path(root: &Path, index: u64) -> PathBuf {
    root.join(format!("{index:08}.seg"))
}

/// The log's segment files as `(index, path, length)`, in index order.
/// A `shard-NN/` directory belongs to the old striped layout, which
/// this store does not read: it is refused, not silently ignored.
fn log_segments(fs: &dyn Fs, root: &Path) -> Result<Vec<(u64, PathBuf, u64)>, StoreError> {
    let mut segments = Vec::new();
    for (name, len) in fs.list(root)? {
        if name.starts_with("shard-") {
            return Err(StoreError::Corrupt(format!(
                "{} holds `{name}/` of the striped log layout, which this \
                 store does not read: it keeps one segment sequence under its root",
                root.display()
            )));
        }
        if let Some(index) = name.strip_suffix(".seg").and_then(|i| i.parse().ok()) {
            segments.push((index, segment_path(root, index), len));
        }
    }
    segments.sort_unstable();
    Ok(segments)
}

/// Scans the log: walks its segments in order, collecting every whole
/// record with `seq ≥ cut` up to the first bad frame, which marks a
/// torn tail. With `repair` (open; a live re-scan only reads) any later
/// segments are unlinked (they would replay records out of order past a
/// hole) and the directory synced, and only then is the torn segment
/// truncated to its valid prefix. Returns where the writer should
/// resume.
fn scan_log(fs: &dyn Fs, root: &Path, cut: u64, repair: bool) -> Result<LogScan, StoreError> {
    let mut scan = LogScan {
        records: Vec::new(),
        next_seq: cut,
        seg_index: 0,
        seg_bytes: 0,
        good_bytes: 0,
        torn_bytes: 0,
    };
    let segments = log_segments(fs, root)?;
    for (at, (index, path, _)) in segments.iter().enumerate() {
        let bytes = fs.read(path)?.unwrap_or_default();
        let good_end = scan_segment(&bytes, cut, &mut scan);
        scan.good_bytes += good_end;
        scan.seg_index = *index;
        scan.seg_bytes = good_end;
        if good_end < bytes.len() as u64 {
            // Everything after a tear is unreachable history; drop it.
            let later = &segments[at + 1..];
            scan.torn_bytes += bytes.len() as u64 - good_end;
            scan.torn_bytes += later.iter().map(|&(_, _, len)| len).sum::<u64>();
            if repair {
                for (_, later, _) in later {
                    fs.remove(later)?;
                }
                if !later.is_empty() {
                    fs.sync_dir(root)?;
                }
                fs.truncate(path, good_end)?;
            }
            break;
        }
    }
    Ok(scan)
}

/// Walks frames in one segment's bytes into `scan`. Returns the byte
/// offset of the end of the last whole, checksum-valid, parseable
/// record (everything before it decoded) — the scan's truncation point
/// on a torn tail.
fn scan_segment(bytes: &[u8], cut: u64, scan: &mut LogScan) -> u64 {
    let mut offset = 0usize;
    while let Ok(Some((used, payload))) = split_frame(&bytes[offset..], MAX_PAYLOAD as usize) {
        let Ok((seq, record)) = decode_payload(payload) else {
            break;
        };
        offset += used;
        scan.next_seq = scan.next_seq.max(seq + 1);
        if seq >= cut {
            scan.records.push(record);
        }
    }
    offset as u64
}

impl Store for WalStore {
    fn append(&self, record: &Record) -> Result<(), StoreError> {
        record.validate_encodable()?;
        self.inner.append(record)
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
    /// Rejects payloads the frame scan would refuse on read — a frame
    /// written past [`MAX_PAYLOAD`] would be discarded at recovery as a
    /// torn tail, taking every later record with it.
    pub(crate) fn check_payload_size(&self, len: usize) -> Result<(), StoreError> {
        if len > MAX_PAYLOAD as usize {
            return Err(StoreError::Unencodable(format!(
                "record payload of {len} bytes exceeds the {MAX_PAYLOAD} byte frame limit"
            )));
        }
        Ok(())
    }

    /// Writes one group (one or more whole frames) to the open segment
    /// and syncs it: repair-if-poisoned, rotate-if-full, one
    /// `write_all`, one `sync_data`. On failure the log is poisoned and
    /// immediately truncated back to its last acknowledged byte — a
    /// handle whose write or fsync failed cannot be trusted about what
    /// is durable, and writing after a partial frame would strand every
    /// later record behind an unreadable frame at recovery. Returns the
    /// write+sync latency. Called with the I/O lock held.
    pub(crate) fn write_group(
        &self,
        log: &mut LogFile,
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
        let file = log.file.as_mut().expect("rotate opened a segment");
        let start = Instant::now();
        match file.append(buf).and_then(|()| file.sync()) {
            Ok(()) => {
                log.seg_bytes += buf.len() as u64;
                Ok(start.elapsed())
            }
            Err(e) => {
                log.dirty = true;
                let _ = self.repair(log);
                Err(e)
            }
        }
    }

    /// Reads everything back; see [`Store::replay`]. Re-scans after the
    /// first call quiesce the pipeline (so a relaxed policy's
    /// staged-but-unsynced tail is flushed and visible) and hold the
    /// staging and I/O locks for the whole scan — the same freeze
    /// checkpoint takes — so concurrent appends and checkpoints cannot
    /// interleave mid-scan.
    fn replay(&self) -> Result<Replay, StoreError> {
        if let Some(replay) = lock(&self.recovered).take() {
            return Ok(replay);
        }
        let _queue = self.quiesce();
        let _log = lock(&self.io);
        let (snapshot, cut) = read_checkpoint(&*self.fs, &self.root)?;
        let records = scan_log(&*self.fs, &self.root, cut, false)?.records;
        Ok(Replay { snapshot, records })
    }

    /// Compacts; see [`Store::checkpoint`]. Quiesces and freezes the
    /// log. Quiescing first flushes any staged frames: under
    /// [`Durability::Periodic`] those are acknowledged records whose
    /// effects the caller's snapshot already covers, and they must not
    /// evaporate with the deleted segments. With the staging lock held
    /// no append can allocate a sequence number, so `cut` cleanly splits
    /// history: everything below is in `snapshot`, everything at or
    /// above will be appended after we release.
    fn checkpoint(&self, snapshot: &str) -> Result<(), StoreError> {
        let queue = self.quiesce();
        let mut log = lock(&self.io);
        let cut = queue.next_seq;

        let tmp = self.root.join("checkpoint.tmp");
        let path = self.root.join("checkpoint.snap");
        let text = format!("{CHECKPOINT_HEADER} {cut}\n{snapshot}");
        self.fs.write_synced(&tmp, text.as_bytes())?;
        self.counters.on_checkpoint_sync();
        self.fs.rename(&tmp, &path)?;
        self.fs.sync_dir(&self.root)?;
        self.counters.on_checkpoint_sync();

        // The snapshot is the durable baseline now; covered segments
        // (every record they hold has seq < cut) are dead weight. A
        // crash or failure before these deletes finish is harmless:
        // replay skips records below the cut.
        //
        // A partial frame left by a failed write goes first: should its
        // segment outlive a failed unlink, the scan must not take it for
        // a tear and drop the segments after it.
        if log.dirty {
            self.repair(&mut log)?;
        }
        // Detach before the first unlink, so that whatever fails below,
        // the next append opens a fresh segment instead of writing to
        // one that is gone.
        log.file = None;
        log.seg_index += 1;
        log.seg_bytes = 0;
        for (_, path, _) in log_segments(&*self.fs, &self.root)? {
            self.fs.remove(&path)?;
        }
        self.fs.sync_dir(&self.root)?;
        self.counters.on_checkpoint_sync();
        self.counters.on_compaction();
        Ok(())
    }

    /// Truncates the open segment back to its last acknowledged byte
    /// after a failed write (possibly) left a partial frame past
    /// `seg_bytes` — writing after that garbage would strand every
    /// later record behind an unreadable frame at recovery. The failed
    /// handle is discarded (after a failed write or fsync its state is
    /// untrustworthy); the next write reopens the segment fresh.
    /// Called with the I/O lock held.
    fn repair(&self, log: &mut LogFile) -> Result<(), StoreError> {
        log.file = None;
        self.fs
            .truncate(&segment_path(&self.root, log.seg_index), log.seg_bytes)?;
        self.counters.on_rotation_sync();
        log.dirty = false;
        Ok(())
    }

    /// Opens the next segment file (called with the I/O lock held).
    fn rotate(&self, log: &mut LogFile) -> Result<(), StoreError> {
        if log.file.is_some() {
            log.seg_index += 1;
        } else if log.seg_bytes > 0 {
            // Resuming after open(): continue the existing segment.
            let path = segment_path(&self.root, log.seg_index);
            log.file = Some(self.fs.open_append(&path, false)?);
            return Ok(());
        }
        let path = segment_path(&self.root, log.seg_index);
        let file = self.fs.open_append(&path, true)?;
        // Make the new directory entry durable before its records are.
        self.fs.sync_dir(&self.root)?;
        self.counters.on_rotation_sync();
        log.file = Some(file);
        log.seg_bytes = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique scratch directory under the target dir (no external
    /// tempdir crate in this environment).
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ctr-store-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// How many segment files the log under `dir` has.
    fn segments(dir: &Path) -> usize {
        (fs::read_dir(dir).unwrap().filter_map(|e| e.ok()))
            .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
            .count()
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
        // Tear the last record: chop bytes off the log's one segment.
        let seg = dir.join("00000000.seg");
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
        let seg = dir.join("00000000.seg");
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
            assert_eq!(segments(&dir), 0, "compaction removed segments");
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
        let seg = dir.join("00000000.seg");
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
            segment_bytes: 64,
            ..WalOptions::default()
        };
        {
            let store = WalStore::open_with(&dir, options).unwrap();
            for i in 0..40u64 {
                store.append(&ev(i % 4, &[&format!("e{i}")])).unwrap();
            }
        }
        let segs = segments(&dir);
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
        // Nothing landed; the log still accepts normal traffic.
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
        // anyway would strand it (and every later record of the log)
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
