//! Kill-recover property: crash the write-ahead store, on a simulated
//! file system, at one of the last operation's file-system calls,
//! recover, and the replayed runtime must byte-match a never-crashed
//! oracle.
//!
//! Every *tail-eligible* operation below replays all-or-nothing under
//! a torn tail, so a crash inside the final operation's writes lands
//! recovery on the state just before it or just after it (the crash
//! keeps a seeded prefix of what was not yet synced, possibly all of
//! it); a crash past its last call lands on the state after it. Both
//! are checked against an oracle [`Runtime`] that ran the
//! corresponding prefix with no store attached.
//!
//! Most operations issue at most one store append (the group commit
//! discipline). [`Op::Start`] on a timed workflow issues two
//! (`TimerArm` write-ahead of `Start`), but a crash through the pair
//! erases the whole start: an arm whose start never landed is an
//! orphan the recovery scan drops. The one genuine exception is
//! [`Op::Advance`], which appends one `TimerFire` per expiry — a crash
//! mid-advance matches neither oracle state, so `Advance` appears only
//! in prefixes, never as the crashed final operation; the
//! partial-advance crash gets its own dedicated exactly-once property
//! below instead.

use ctr_runtime::{Runtime, RuntimeError, Store, WalStore};
use ctr_store::sim::SimFs;
use ctr_store::WalOptions;
use proptest::prelude::*;
use std::sync::Arc;

const SPECS: [(&str, &str); 3] = [
    (
        "pay",
        "workflow pay { graph invoice * (approve # audit) * archive; }",
    ),
    ("ship", "workflow ship { graph pick * pack * dispatch; }"),
    (
        "timed",
        "workflow timed { graph invoice * approve * archive; \
         after(approve, 30s); deadline(archive, 1h); }",
    ),
];

/// Index of the timed spec — the one whose starts arm timers.
const TIMED: usize = 2;

/// One session operation. Each variant performs at most one store
/// append when applied, which is what makes the crash oracle exact.
#[derive(Clone, Debug)]
enum Op {
    /// Deploy `SPECS[i]` (skipped once deployed).
    Deploy(usize),
    /// Start an instance of `SPECS[i]` (skipped until deployed).
    Start(usize),
    /// Group-commit up to `k` currently-eligible events on the
    /// `slot`-th instance (skipped while no instance exists).
    FireBatch(usize, usize),
    /// Probe the `slot`-th instance for completion.
    Complete(usize),
    /// Cancel the first (tick-name-sorted) pending timer of the
    /// `slot`-th instance (skipped while none is armed).
    CancelTimer(usize),
    /// Advance the fleet clock by `delta` ms, expiring every timer due
    /// on the way. One `TimerFire` append *per expiry* — prefix-only.
    Advance(u64),
    /// Compact the store (durable side only; a no-op on the oracle).
    Checkpoint,
}

/// Applies `op` identically on the durable runtime and the oracle: all
/// choices (which instance, which events) read only deterministic,
/// sorted runtime state, so the two sides stay in lockstep.
fn apply(rt: &Runtime, op: &Op, durable: bool) -> Result<(), RuntimeError> {
    match *op {
        Op::Deploy(i) => {
            let (name, source) = SPECS[i];
            if !rt.workflows().contains(&name.to_owned()) {
                rt.deploy_source(source)?;
            }
        }
        Op::Start(i) => {
            let (name, _) = SPECS[i];
            if rt.workflows().contains(&name.to_owned()) {
                rt.start(name)?;
            }
        }
        Op::FireBatch(slot, k) => {
            let ids = rt.instances();
            let Some(&id) = ids.get(slot % ids.len().max(1)) else {
                return Ok(());
            };
            let events: Vec<String> = rt
                .eligible(id)
                .unwrap_or_default()
                .into_iter()
                .take(k)
                .collect();
            if !events.is_empty() {
                rt.fire_batch(id, &events)?;
            }
        }
        Op::Complete(slot) => {
            let ids = rt.instances();
            if let Some(&id) = ids.get(slot % ids.len().max(1)) {
                let _ = rt.try_complete(id);
            }
        }
        Op::CancelTimer(slot) => {
            let ids = rt.instances();
            let Some(&id) = ids.get(slot % ids.len().max(1)) else {
                return Ok(());
            };
            let pending = rt.pending_timers(id)?;
            if let Some((tick, _)) = pending.first() {
                rt.cancel_timer(id, tick)?;
            }
        }
        Op::Advance(delta) => {
            let to = rt.clock_ms().saturating_add(delta);
            rt.advance(to)?;
        }
        Op::Checkpoint => {
            if durable {
                rt.checkpoint()?;
            }
        }
    }
    Ok(())
}

/// A write-ahead log on `fs`.
fn wal(fs: &Arc<SimFs>) -> Arc<dyn Store> {
    Arc::new(WalStore::open_on(fs.clone(), "wal", WalOptions::default()).unwrap())
}

/// The fleet recovered from `fs` after a crash.
fn recover(fs: &SimFs) -> Runtime {
    Runtime::open(wal(&fs.reboot())).unwrap()
}

/// What a fleet shows of itself: its snapshot and, through the query
/// API too (so a `pending_timers` / snapshot divergence cannot hide),
/// its armed timers. The clock is *not* part of it: the recovered clock
/// is the durable `TimerFire` watermark and legitimately lags an oracle
/// whose advances expired nothing.
fn shown(rt: &Runtime) -> (String, usize, Vec<Vec<(String, u64)>>) {
    (
        rt.snapshot(),
        rt.pending_timer_count(),
        (rt.instances().into_iter())
            .map(|id| rt.pending_timers(id).unwrap())
            .collect(),
    )
}

/// Operations whose replayed effect is all-or-nothing under a torn
/// tail — every variant except the multi-append [`Op::Advance`]. Only
/// these may sit in the final (torn) position.
fn tail_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SPECS.len()).prop_map(Op::Deploy),
        (0..SPECS.len()).prop_map(Op::Start),
        ((0..8usize), (1..5usize)).prop_map(|(slot, k)| Op::FireBatch(slot, k)),
        (0..8usize).prop_map(Op::Complete),
        (0..8usize).prop_map(Op::CancelTimer),
        Just(Op::Checkpoint),
    ]
}

/// Everything, including [`Op::Advance`] — for prefix positions and
/// tests that never tear the log mid-operation. Deltas reach past the
/// 30s after-gate often and the 1h deadline over a long prefix.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        tail_op_strategy(),
        tail_op_strategy(),
        tail_op_strategy(),
        tail_op_strategy(),
        (1u64..2_000_000).prop_map(Op::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Crash the WAL at one of the final operation's file-system calls;
    /// the recovered fleet byte-matches the oracle that stopped just
    /// before or just after that operation. A final operation that makes
    /// no call is not crashed, and recovery must land after it.
    #[test]
    fn kill_recover_matches_the_never_crashed_oracle(
        prefix in proptest::collection::vec(op_strategy(), 0..15),
        last in tail_op_strategy(),
        tear in 0..4096u64,
    ) {
        // A schedule on one seed runs the same calls every time: a dry
        // run counts the final operation's.
        let (start, calls) = {
            let dry = SimFs::new(tear);
            let rt = Runtime::with_store(wal(&dry));
            for op in &prefix {
                apply(&rt, op, true).unwrap();
            }
            let start = dry.ops();
            apply(&rt, &last, true).unwrap();
            (start, dry.ops() - start)
        };

        let fs = SimFs::new(tear);
        let rt = Runtime::with_store(wal(&fs));
        for op in &prefix {
            apply(&rt, op, true).unwrap();
        }
        prop_assert_eq!(fs.ops(), start);
        if calls > 0 {
            fs.crash_at(start + tear % calls);
        }
        let _ = apply(&rt, &last, true);
        prop_assert_eq!(fs.is_down(), calls > 0);
        let recovered = shown(&recover(&fs));

        let oracle = Runtime::new();
        for op in &prefix {
            apply(&oracle, op, false).unwrap();
        }
        let before = shown(&oracle);
        apply(&oracle, &last, false).unwrap();
        let after = shown(&oracle);
        if calls > 0 {
            prop_assert!(recovered == before || recovered == after, "{:?}", recovered);
        } else {
            prop_assert_eq!(recovered, after);
        }
    }

    /// Crash inside a *coalesced group* commit of several frames: every
    /// record acknowledged survives recovery, and the group's records
    /// drop only as a contiguous seq suffix of the stripe, never a gap.
    /// (The crash keeps a seeded prefix of the group's one unsynced
    /// write; a torn byte invalidates its own frame and everything after
    /// it, while frames before it are whole and checksum-clean, so the
    /// scan keeps them.)
    #[test]
    fn coalesced_group_tear_drops_only_a_contiguous_seq_suffix(
        acked in 1..6usize,
        group in 3..7usize,
        tear in 0..100_000u64,
    ) {
        use ctr_store::{Durability, Record};
        let options = WalOptions {
            shards: 1,
            durability: Durability::Coalesced {
                max_wait: std::time::Duration::from_millis(10),
            },
            ..WalOptions::default()
        };
        let ev = |n: usize| Record::Events {
            instance: 0,
            events: vec![format!("e{n}")],
        };

        // Groups form from timing, so a run whose second group is a
        // single frame is run again; a handful of tries always suffice.
        let mut torn = None;
        for attempt in 0..10 {
            let fs = SimFs::new(tear + attempt);
            // Phase 1: sequential appends, each acknowledged durable
            // before the next; these must survive any later crash.
            let store = WalStore::open_on(fs.clone(), "wal", options).unwrap();
            for i in 0..acked {
                store.append(&ev(i)).unwrap();
            }

            // Phase 2: concurrent appends. The first to stage commits
            // alone (a write, then a sync); the others stage while that
            // sync takes its time and form the second group, whose
            // sync the crash lands on, with its write unsynced.
            fs.set_sync_latency(std::time::Duration::from_millis(2));
            fs.crash_at(fs.ops() + 3);
            let store = Arc::new(store);
            let acks: Vec<bool> = std::thread::scope(|scope| {
                let appends: Vec<_> = (0..group)
                    .map(|t| {
                        let store = &store;
                        scope.spawn(move || store.append(&ev(acked + t)).is_ok())
                    })
                    .collect();
                appends.into_iter().map(|append| append.join().unwrap()).collect()
            });

            // The history as written, in the order the frames landed
            // (concurrent, so not fixed): the group the crash hit is
            // what follows the acknowledged ones.
            let written = WalStore::open_on(fs.fork(), "wal", options).unwrap();
            let full = written.replay().unwrap().records;
            let first = acked + acks.iter().filter(|&&ok| ok).count();
            if !fs.is_down() || full.len() < first + 2 {
                continue;
            }
            let disk = fs.reboot();
            drop(store);
            let recovered = WalStore::open_on(disk, "wal", options).unwrap();
            torn = Some((acks, full, recovered.replay().unwrap().records));
            break;
        }
        let Some((acks, full, recovered)) = torn else {
            return Err(TestCaseError::fail("no try formed a group of several frames"));
        };
        prop_assert!(
            recovered.len() >= acked,
            "an individually acknowledged record was lost: {} < {}",
            recovered.len(), acked
        );
        for (t, _) in acks.iter().enumerate().filter(|(_, acked)| **acked) {
            prop_assert!(recovered.contains(&ev(acked + t)), "acknowledged e{} is gone", acked + t);
        }
        // Contiguous-prefix survival == contiguous-suffix loss: no
        // recovered record may be reordered or skipped past a hole.
        prop_assert!(recovered.len() <= full.len());
        prop_assert_eq!(&recovered[..], &full[..recovered.len()]);
    }

    /// The recovered runtime is live, not just a matching snapshot: it
    /// accepts further work and a second recovery sees that work too.
    /// And there is one way back from durable state: the fleet rebuilt
    /// from the never-crashed oracle's snapshot text and the one
    /// rebuilt from the log agree instance by instance, and expire
    /// alike.
    #[test]
    fn recovery_composes_with_further_work(
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let fs = SimFs::new(ops.len() as u64);
        let oracle = Runtime::new();
        let rt = Runtime::with_store(wal(&fs));
        for op in &ops {
            apply(&rt, op, true).unwrap();
            apply(&oracle, op, false).unwrap();
        }

        let disk = fs.reboot();
        drop(rt);
        let recovered = Runtime::open(wal(&disk)).unwrap();
        for op in [Op::Deploy(0), Op::Start(0), Op::FireBatch(7, 2)] {
            apply(&recovered, &op, true).unwrap();
            apply(&oracle, &op, false).unwrap();
        }
        let expected = recovered.snapshot();

        let by_log = recover(&disk);
        drop(recovered);
        prop_assert_eq!(by_log.snapshot(), expected);

        let by_text = Runtime::restore(&oracle.snapshot()).unwrap();
        prop_assert_eq!(by_text.snapshot(), by_log.snapshot());
        prop_assert_eq!(by_text.instances(), by_log.instances());
        let mut horizon = 0;
        for id in by_log.instances() {
            prop_assert_eq!(by_text.journal(id), by_log.journal(id));
            prop_assert_eq!(by_text.eligible(id), by_log.eligible(id));
            prop_assert_eq!(by_text.status(id), by_log.status(id));
            let pending = by_log.pending_timers(id).unwrap();
            horizon = pending.iter().fold(horizon, |h, &(_, due)| h.max(due));
            prop_assert_eq!(by_text.pending_timers(id).unwrap(), pending);
        }
        // One advance past every due fires the same ticks in the same order.
        prop_assert_eq!(by_text.advance(horizon), by_log.advance(horizon));
        prop_assert_eq!(by_text.pending_timer_count(), 0);
        prop_assert_eq!(by_text.snapshot(), by_log.snapshot());
    }

    /// An expiry racing the crash fires exactly once. `advance` appends
    /// one `TimerFire` per expired timer; crashing inside that run of
    /// appends un-fires a suffix of them. Recovery re-arms exactly the
    /// un-fired timers (their `TimerArm` survived inside `Start`, their
    /// `TimerFire` did not), so repeating the advance fires each of
    /// those once — and only those: a tick whose `TimerFire` survived
    /// replays as already-fired and is never re-armed.
    #[test]
    fn expiry_racing_the_crash_fires_exactly_once(
        fleet in 1..5usize,
        tear in 0..4096u64,
    ) {
        let fs = SimFs::new(tear);
        let (name, source) = SPECS[TIMED];
        let rt = Runtime::with_store(wal(&fs));
        rt.deploy_source(source).expect("deploy");
        let ids: Vec<_> = (0..fleet).map(|_| rt.start(name).expect("start")).collect();

        // One write and one sync per expiry (one after-gate each): the
        // crash lands on one of them, or past the last.
        fs.crash_at(fs.ops() + tear % (2 * fleet as u64 + 1));
        let fired = rt.advance(30_000);
        prop_assert_eq!(fired.is_ok(), !fs.is_down());
        if let Ok(fired) = &fired {
            prop_assert_eq!(fired.len(), fleet);
        }

        // Recover and repeat the advance: the recovered wheel starts
        // behind the restored clock, so every still-armed 30s gate
        // (torn away mid-advance) expires now; every gate whose
        // TimerFire survived is already in its journal and disarmed.
        let recovered = recover(&fs);
        recovered.advance(30_000).expect("advance after recovery");
        let tick = "approve@after30000";
        for &id in &ids {
            let journal = recovered.journal(id).unwrap();
            prop_assert_eq!(
                journal.iter().filter(|e| e.as_str() == tick).count(),
                1,
                "instance {} journal {:?}",
                id,
                journal
            );
            prop_assert!(
                recovered
                    .pending_timers(id)
                    .unwrap()
                    .iter()
                    .all(|(t, _)| t != tick),
                "instance {} still holds the fired gate",
                id
            );
        }
    }
}
