//! The write-ahead log under a seeded simulated file system.
//!
//! [`seeded_schedules_keep_the_store_invariants`] runs 10 000 seeded
//! schedules. Each opens a [`WalStore`] on a [`SimFs`] under one
//! [`Durability`] with 1–4 stripes and a segment size small enough to
//! rotate often, then draws a script of appends, checkpoints, live
//! replays, injected faults (`EIO`, `ENOSPC`, short writes; on one
//! kind of operation or any, once or until healed), heals, and crashes
//! followed by a reopen. A reopen may flip a byte of a segment first (a
//! media error) and may crash inside its own repair. Every schedule ends
//! with a crash and a reopen. What is checked, after every recovery and
//! every live replay:
//!
//! 1. **acknowledged ⇒ recovered** under `Strict` and `Coalesced`;
//! 2. under `Periodic`, what is lost of a stripe's acknowledged records
//!    is a suffix, and once an append on a stripe has failed, every
//!    later one fails until the store is reopened;
//! 3. **no partial frame precedes an acknowledged record**: a live
//!    replay, which stops at the first bad frame, sees every one;
//! 4. **recovery is idempotent**: an open that crashes anywhere inside
//!    its own repair, rebooted and reopened, recovers what an
//!    uninterrupted open of the same disk does, and so does a reopen
//!    after a crash right behind a repairing open;
//! 5. **a failed checkpoint loses nothing acknowledged** (1 and 2 hold
//!    across it).
//!
//! Besides, nothing is recovered that was never appended, and records
//! come back in the order they were appended. A violation names its
//! seed and the step it was found at.

use ctr_store::sim::{Fault, Op, Rng, SimFs};
use ctr_store::{Durability, Fs, Record, Replay, Store, WalOptions, WalStore};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const ROOT: &str = "wal";

/// Record `id`, on `stripe` of `shards`.
fn record(id: u64, stripe: usize, shards: usize) -> Record {
    Record::Events {
        instance: (stripe + shards * (id % 3) as usize) as u64,
        events: vec![format!("r{id}")],
    }
}

fn id_of(record: &Record) -> u64 {
    match record {
        Record::Events { events, .. } => events[0][1..].parse().expect("a schedule record"),
        other => panic!("not a schedule record: {other:?}"),
    }
}

/// What a replay holds: the ids its snapshot covers and, in order, the
/// ids of its log records.
struct Recovered {
    snapshot: BTreeSet<u64>,
    log: Vec<u64>,
}

impl Recovered {
    fn of(replay: &Replay) -> Recovered {
        Recovered {
            snapshot: (replay.snapshot.iter())
                .flat_map(|text| text.split_whitespace())
                .map(|id| id.parse().expect("a schedule snapshot"))
                .collect(),
            log: replay.records.iter().map(id_of).collect(),
        }
    }

    fn holds(&self, id: u64) -> bool {
        self.snapshot.contains(&id) || self.log.contains(&id)
    }
}

/// What the schedule knows the store must and may give back.
struct Model {
    options: WalOptions,
    /// Must come back from every later recovery: what the last open
    /// recovered, what a checkpoint since covered, and under `Strict`
    /// and `Coalesced` every acknowledged append.
    kept: BTreeSet<u64>,
    /// Under `Periodic`: per stripe, the appends acknowledged since the
    /// last open or checkpoint, in order.
    unsynced: Vec<Vec<u64>>,
    /// Appends that failed: they may come back or not.
    maybe: BTreeSet<u64>,
    /// Under `Periodic`: stripes an append has failed on since the last
    /// open.
    latched: Vec<bool>,
    /// A byte was flipped since the last recovery: losses are allowed.
    corrupted: bool,
    next_id: u64,
}

impl Model {
    fn periodic(&self) -> bool {
        matches!(self.options.durability, Durability::Periodic { .. })
    }

    /// Every id the fleet holds now, as a checkpoint snapshot lists it.
    fn snapshot(&self) -> String {
        let mut ids: BTreeSet<u64> = self.kept.clone();
        ids.extend(self.unsynced.iter().flatten());
        let ids: Vec<String> = ids.iter().map(u64::to_string).collect();
        ids.join(" ")
    }

    /// Invariants 1, 2 and 3 (and so 5) on what a replay or a recovery
    /// gave back.
    fn check(&self, got: &Recovered) -> Result<(), String> {
        if let Some(pair) = got.log.windows(2).find(|pair| pair[0] >= pair[1]) {
            return Err(format!(
                "log out of append order: {pair:?} in {:?}",
                got.log
            ));
        }
        for id in got.snapshot.iter().chain(&got.log) {
            let known = self.kept.contains(id)
                || self.maybe.contains(id)
                || self.unsynced.iter().any(|ids| ids.contains(id));
            if !known {
                return Err(format!("r{id} was never appended"));
            }
        }
        if self.corrupted {
            return Ok(());
        }
        if let Some(id) = self.kept.iter().find(|&&id| !got.holds(id)) {
            return Err(format!("acknowledged r{id} is gone"));
        }
        for (stripe, ids) in self.unsynced.iter().enumerate() {
            let kept = ids.iter().take_while(|&&id| got.holds(id)).count();
            if let Some(id) = ids[kept..].iter().find(|&&id| got.holds(id)) {
                return Err(format!(
                    "stripe {stripe} lost r{} but kept the later r{id}",
                    ids[kept]
                ));
            }
        }
        Ok(())
    }

    /// Starts over from what an open recovered.
    fn recovered(&mut self, got: &Recovered) {
        self.kept = got.snapshot.iter().chain(&got.log).copied().collect();
        self.unsynced.iter_mut().for_each(Vec::clear);
        self.latched.iter_mut().for_each(|latched| *latched = false);
        self.maybe.clear();
        self.corrupted = false;
    }
}

fn open(fs: &Arc<SimFs>, options: WalOptions) -> Result<(WalStore, Recovered), String> {
    let store = WalStore::open_on(fs.clone(), ROOT, options).map_err(|e| e.to_string())?;
    // The first replay hands back what the open recovered.
    let replay = store.replay().map_err(|e| e.to_string())?;
    Ok((store, Recovered::of(&replay)))
}

fn same(a: &Recovered, b: &Recovered) -> bool {
    a.snapshot == b.snapshot && a.log == b.log
}

/// Crashes `fs`, may flip a byte of a segment, reopens (possibly
/// crashing inside the open first) and checks what comes back.
fn crash_and_reopen(
    fs: &Arc<SimFs>,
    model: &mut Model,
    rng: &mut Rng,
) -> Result<(Arc<SimFs>, WalStore), String> {
    let mut disk = fs.reboot();
    if rng.one_in(3) {
        let dir = Path::new(ROOT).join(format!("shard-{:02}", rng.below(model.options.shards)));
        let segments = disk.list(&dir).map_err(|e| e.to_string())?;
        if !segments.is_empty() {
            let (name, _) = &segments[rng.below(segments.len())];
            model.corrupted |= disk.corrupt(&dir.join(name), rng.next_u64());
        }
    }
    // The uninterrupted open of this disk is the reference.
    let reference = disk.fork();
    let (_, want) = open(&reference, model.options).map_err(|e| format!("reference open: {e}"))?;
    let open_ops = reference.ops() - disk.ops();
    if rng.one_in(2) {
        disk.crash_at(disk.ops() + rng.below(open_ops as usize) as u64);
        if open(&disk, model.options).is_ok() {
            return Err("an open survived its crash".to_owned());
        }
        disk = disk.reboot();
    }
    let (mut store, mut got) = open(&disk, model.options)?;
    if !same(&got, &want) {
        return Err(format!(
            "a crash inside open's repair changed what recovers: {:?} then {:?}",
            want.log, got.log
        ));
    }
    if store.stats().torn_bytes > 0 {
        // The repair is durable: a crash right behind it changes nothing.
        disk = disk.reboot();
        drop(store);
        (store, got) = open(&disk, model.options)?;
        if !same(&got, &want) {
            return Err(format!(
                "a crash after open's repair changed what recovers: {:?} then {:?}",
                want.log, got.log
            ));
        }
    }
    model.check(&got)?;
    model.recovered(&got);
    Ok((disk, store))
}

const OPS: [Op; 11] = [
    Op::CreateDir,
    Op::List,
    Op::Read,
    Op::WriteSynced,
    Op::Rename,
    Op::Remove,
    Op::Truncate,
    Op::SyncDir,
    Op::Open,
    Op::Append,
    Op::Sync,
];

const FAULTS: [Fault; 3] = [Fault::Eio, Fault::NoSpace, Fault::ShortWrite];

/// One schedule; `Err` names the step and the violation.
fn run_schedule(seed: u64) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    let durability = match rng.below(3) {
        0 => Durability::Strict,
        1 => Durability::coalesced(),
        _ => Durability::Periodic {
            // Far beyond a schedule: the syncer never runs, so staged
            // frames reach the disk only at a replay, a checkpoint or
            // a drop, in schedule order.
            interval: Duration::from_secs(3600),
        },
    };
    let options = WalOptions {
        shards: 1 + rng.below(4),
        segment_bytes: [24, 64, 160, 4096][rng.below(4)],
        durability,
    };
    let mut model = Model {
        options,
        kept: BTreeSet::new(),
        unsynced: vec![Vec::new(); options.shards],
        maybe: BTreeSet::new(),
        latched: vec![false; options.shards],
        corrupted: false,
        next_id: 0,
    };
    let mut fs = SimFs::new(rng.next_u64());
    let (mut store, _) = open(&fs, options)?;
    let steps = 8 + rng.below(17);
    for step in 0..=steps {
        let at = |e: String| format!("step {step}: {e}");
        let choice = if step == steps { 99 } else { rng.below(20) };
        match choice {
            0..=8 => {
                let stripe = rng.below(options.shards);
                let id = model.next_id;
                model.next_id += 1;
                let acked = store.append(&record(id, stripe, options.shards)).is_ok();
                if model.periodic() {
                    if acked && model.latched[stripe] {
                        return Err(at(format!(
                            "stripe {stripe} acknowledged r{id} after an append on it failed"
                        )));
                    }
                    if acked {
                        model.unsynced[stripe].push(id);
                    } else {
                        model.latched[stripe] = true;
                    }
                } else if acked {
                    model.kept.insert(id);
                } else {
                    model.maybe.insert(id);
                }
            }
            9 | 10 => {
                if store.checkpoint(&model.snapshot()).is_ok() {
                    let covered: Vec<u64> =
                        model.unsynced.iter_mut().flat_map(std::mem::take).collect();
                    model.kept.extend(covered);
                }
            }
            11 | 12 => {
                if let Ok(replay) = store.replay() {
                    model.check(&Recovered::of(&replay)).map_err(at)?;
                }
            }
            13 | 14 => {
                let op = (!rng.one_in(4)).then(|| OPS[rng.below(OPS.len())]);
                let fault = FAULTS[rng.below(FAULTS.len())];
                fs.inject(op, rng.below(4) as u64, fault, rng.one_in(3));
            }
            15 | 16 => fs.heal(),
            _ => {
                let reopened = crash_and_reopen(&fs, &mut model, &mut rng).map_err(at)?;
                // The old store's last flush meets a crashed disk.
                drop(std::mem::replace(&mut store, reopened.1));
                fs = reopened.0;
            }
        }
    }
    Ok(())
}

#[test]
fn seeded_schedules_keep_the_store_invariants() {
    const SCHEDULES: u64 = 10_000;
    const THREADS: u64 = 2;
    let mut failures: Vec<(u64, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    (t..SCHEDULES)
                        .step_by(THREADS as usize)
                        .filter_map(|seed| run_schedule(seed).err().map(|e| (seed, e)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    failures.sort();
    if let Some((seed, violation)) = failures.first() {
        panic!(
            "{} of {SCHEDULES} schedules failed; the first is seed {seed}: {violation}",
            failures.len()
        );
    }
}

fn ev(name: &str) -> Record {
    Record::Events {
        instance: 0,
        events: vec![name.to_owned()],
    }
}

fn one_stripe() -> WalOptions {
    WalOptions {
        shards: 1,
        ..WalOptions::default()
    }
}

/// A checkpoint unlinks every segment of a stripe, the open one too. If
/// the directory sync after the unlinks fails, the stripe must not go on
/// appending to the unlinked segment: an append acknowledged after the
/// failed checkpoint is recovered.
#[test]
fn a_failed_checkpoint_leaves_no_stripe_on_an_unlinked_segment() {
    let fs = SimFs::new(1);
    let store = WalStore::open_on(fs.clone(), ROOT, one_stripe()).unwrap();
    store.append(&ev("e0")).unwrap();
    // The checkpoint's first directory sync is the root's, after the
    // rename; the second is the stripe's, after the unlinks.
    fs.inject(Some(Op::SyncDir), 1, Fault::Eio, false);
    assert!(store.checkpoint("snap").is_err());
    assert_eq!(fs.injected(), 1);
    store.append(&ev("e1")).unwrap();
    let disk = fs.reboot();
    drop(store);
    let store = WalStore::open_on(disk, ROOT, one_stripe()).unwrap();
    let replay = store.replay().unwrap();
    assert_eq!(replay.snapshot.as_deref(), Some("snap"));
    assert_eq!(replay.records, vec![ev("e1")]);
}

/// A segment that tears ahead of later ones: open unlinks the later
/// segments, syncs the directory, and only then truncates. A crash at
/// any operation of that open, rebooted and reopened, recovers what the
/// uninterrupted open does.
#[test]
fn a_crash_inside_open_repair_recovers_what_an_uninterrupted_open_does() {
    let options = WalOptions {
        shards: 1,
        // One frame per segment.
        segment_bytes: 1,
        ..WalOptions::default()
    };
    for seed in 0..16 {
        let fs = SimFs::new(seed);
        let store = WalStore::open_on(fs.clone(), ROOT, options).unwrap();
        for i in 0..5 {
            store.append(&ev(&format!("e{i}"))).unwrap();
        }
        drop(store);
        let disk = fs.reboot();
        assert!(disk.corrupt(&Path::new(ROOT).join("shard-00/00000001.seg"), 12));

        let reference = disk.fork();
        let store = WalStore::open_on(reference.clone(), ROOT, options).unwrap();
        assert_eq!(store.replay().unwrap().records, vec![ev("e0")]);
        drop(store);
        for crash in disk.ops()..reference.ops() {
            let crashed = disk.fork();
            crashed.crash_at(crash);
            assert!(WalStore::open_on(crashed.clone(), ROOT, options).is_err());
            let store = WalStore::open_on(crashed.reboot(), ROOT, options).unwrap();
            assert_eq!(
                store.replay().unwrap().records,
                vec![ev("e0")],
                "seed {seed}, crash at operation {crash}"
            );
        }
    }
}

/// A failed append can leave a partial frame behind the acknowledged
/// tail, and its immediate repair can fail too. The next append must
/// truncate back to the last acknowledged byte before it writes, or its
/// record would sit behind an unreadable frame and be discarded at
/// recovery.
#[test]
fn partial_frame_from_a_failed_append_is_repaired_before_the_next() {
    let fs = SimFs::new(3);
    let store = WalStore::open_on(fs.clone(), ROOT, one_stripe()).unwrap();
    store.append(&ev("a")).unwrap();
    // A short write, then every operation fails: the repair as well.
    fs.inject(None, 0, Fault::ShortWrite, true);
    assert!(store.append(&ev("doomed")).is_err());
    fs.heal();
    store.append(&ev("b")).unwrap();
    let disk = fs.reboot();
    drop(store);
    let store = WalStore::open_on(disk, ROOT, one_stripe()).unwrap();
    assert_eq!(store.stats().torn_bytes, 0, "no garbage survived");
    assert_eq!(store.replay().unwrap().records, vec![ev("a"), ev("b")]);
}

/// A checkpoint whose unlink fails leaves the stripe's old segment
/// behind. A partial frame in it, from a failed append whose repair
/// failed too, would read as a tear at the next open and take every
/// later segment with it: the checkpoint repairs the stripe first.
#[test]
fn a_failed_checkpoint_leaves_no_partial_frame_ahead_of_later_appends() {
    let fs = SimFs::new(4);
    let store = WalStore::open_on(fs.clone(), ROOT, one_stripe()).unwrap();
    store.append(&ev("a")).unwrap();
    fs.inject(None, 0, Fault::ShortWrite, true);
    assert!(store.append(&ev("doomed")).is_err());
    fs.heal();
    fs.inject(Some(Op::Remove), 0, Fault::Eio, false);
    assert!(store.checkpoint("snap").is_err());
    store.append(&ev("b")).unwrap();
    let disk = fs.reboot();
    drop(store);
    let store = WalStore::open_on(disk, ROOT, one_stripe()).unwrap();
    let replay = store.replay().unwrap();
    assert_eq!(replay.snapshot.as_deref(), Some("snap"));
    assert_eq!(replay.records, vec![ev("b")]);
}
