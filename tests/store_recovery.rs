//! Kill-recover property: crash the write-ahead store at a random byte
//! offset inside the last operation's write, recover, and the replayed
//! runtime must byte-match a never-crashed oracle.
//!
//! Every *tail-eligible* operation below replays all-or-nothing under
//! a torn tail, so a tear inside the final operation's bytes
//! invalidates exactly that operation: recovery lands on the state
//! just before it. A tear that removes the whole frame — or no tear at
//! all, when the operation wrote nothing — lands on the state just
//! after it. Both are checked against an oracle [`Runtime`] that ran
//! the corresponding prefix with no store attached.
//!
//! Most operations issue at most one store append (the group commit
//! discipline). [`Op::Start`] on a timed workflow issues two
//! (`TimerArm` write-ahead of `Start`), but any tear through the pair
//! erases the whole start: an arm whose start never landed is an
//! orphan the recovery scan drops. The one genuine exception is
//! [`Op::Advance`], which appends one `TimerFire` per expiry — a tear
//! mid-advance matches neither oracle state, so `Advance` appears only
//! in prefixes, never as the torn final operation; the partial-advance
//! crash gets its own dedicated exactly-once property below instead.

use ctr_runtime::{Runtime, WalStore};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
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
/// append when applied, which is what makes the torn-tail oracle exact.
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
fn apply(rt: &mut Runtime, op: &Op, durable: bool) {
    match *op {
        Op::Deploy(i) => {
            let (name, source) = SPECS[i];
            if !rt.workflows().contains(&name.to_owned()) {
                rt.deploy_source(source).expect("deploy");
            }
        }
        Op::Start(i) => {
            let (name, _) = SPECS[i];
            if rt.workflows().contains(&name.to_owned()) {
                rt.start(name).expect("start");
            }
        }
        Op::FireBatch(slot, k) => {
            let ids = rt.instances();
            let Some(&id) = ids.get(slot % ids.len().max(1)) else {
                return;
            };
            let events: Vec<String> = rt
                .eligible(id)
                .unwrap_or_default()
                .into_iter()
                .take(k)
                .collect();
            if !events.is_empty() {
                rt.fire_batch(id, &events).expect("fire_batch");
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
                return;
            };
            let pending = rt.pending_timers(id).expect("pending_timers");
            if let Some((tick, _)) = pending.first() {
                rt.cancel_timer(id, tick).expect("cancel_timer");
            }
        }
        Op::Advance(delta) => {
            let to = rt.clock_ms().saturating_add(delta);
            rt.advance(to).expect("advance");
        }
        Op::Checkpoint => {
            if durable {
                rt.checkpoint().expect("checkpoint");
            }
        }
    }
}

/// Byte length of every `.seg` file under `dir`, keyed by path.
fn seg_sizes(dir: &Path) -> BTreeMap<PathBuf, u64> {
    let mut sizes = BTreeMap::new();
    let Ok(shards) = std::fs::read_dir(dir) else {
        return sizes;
    };
    for shard in shards.flatten() {
        let Ok(entries) = std::fs::read_dir(shard.path()) else {
            continue;
        };
        for entry in entries.flatten() {
            if entry.path().extension().is_some_and(|e| e == "seg") {
                sizes.insert(entry.path(), entry.metadata().map(|m| m.len()).unwrap_or(0));
            }
        }
    }
    sizes
}

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ctr_recovery_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
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

    /// Crash the WAL at a random byte offset inside the final
    /// operation's write; the recovered snapshot byte-matches the
    /// oracle that stopped just before (torn) or just after (untouched)
    /// that operation.
    #[test]
    fn kill_recover_matches_the_never_crashed_oracle(
        prefix in proptest::collection::vec(op_strategy(), 0..15),
        last in tail_op_strategy(),
        tear in 1..4096usize,
    ) {
        let dir = scratch("kill");

        let mut rt = Runtime::with_store(Arc::new(WalStore::open(&dir).unwrap()));
        for op in &prefix {
            apply(&mut rt, op, true);
        }
        let before = seg_sizes(&dir);
        apply(&mut rt, &last, true);
        drop(rt); // the crash: no shutdown hook runs, files stay as-is

        // Tear `1..=written` bytes off the end of whichever segment the
        // final operation extended (checkpoints and no-op finals extend
        // nothing and are left alone).
        let after = seg_sizes(&dir);
        let grown = after
            .iter()
            .find(|(path, len)| before.get(*path).copied().unwrap_or(0) < **len);
        let torn = if let Some((path, &len)) = grown {
            let written = len - before.get(path).copied().unwrap_or(0);
            let cut = len - 1 - (tear as u64 - 1) % written;
            let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
            file.set_len(cut).unwrap();
            true
        } else {
            false
        };

        let mut oracle = Runtime::new();
        for op in &prefix {
            apply(&mut oracle, op, false);
        }
        if !torn {
            apply(&mut oracle, &last, false);
        }

        let store = Arc::new(WalStore::open(&dir).unwrap());
        let recovered = Runtime::open(store).unwrap();
        prop_assert_eq!(recovered.snapshot(), oracle.snapshot());
        // The snapshot already carries timer lines; assert the armed
        // set through the query API too, so a pending_timers /
        // snapshot divergence cannot hide. The clocks are *not*
        // compared: the recovered clock is the durable TimerFire
        // watermark and legitimately lags an oracle whose advances
        // expired nothing.
        prop_assert_eq!(
            recovered.pending_timer_count(),
            oracle.pending_timer_count()
        );
        for id in oracle.instances() {
            prop_assert_eq!(
                recovered.pending_timers(id).unwrap(),
                oracle.pending_timers(id).unwrap()
            );
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash at a random byte offset inside a *coalesced group's*
    /// single write: every record acknowledged before the crash point
    /// survives recovery, and the group's staged records drop only as a
    /// contiguous seq suffix of the stripe — never a gap. (The torn
    /// byte invalidates its own frame and everything after it in the
    /// group's one `write_all`; frames before it are whole and
    /// checksum-clean, so the scan keeps them.)
    #[test]
    fn coalesced_group_tear_drops_only_a_contiguous_seq_suffix(
        acked in 1..6usize,
        group in 2..6usize,
        tear in 0..100_000u64,
    ) {
        use ctr_store::{Durability, Record, Store, WalOptions, WalStore};
        let dir = scratch("grouptear");
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

        // Phase 1: sequential appends, each acknowledged durable before
        // the next — these must survive any later crash.
        let store = WalStore::open_with(&dir, options).unwrap();
        for i in 0..acked {
            store.append(&ev(i)).unwrap();
        }
        let seg = dir.join("shard-00").join("00000000.seg");
        let base = std::fs::metadata(&seg).unwrap().len();

        // Phase 2: concurrent appends riding the commit pipeline — the
        // tear below lands somewhere inside their group write(s).
        let store = Arc::new(store);
        std::thread::scope(|scope| {
            for t in 0..group {
                let store = &store;
                scope.spawn(move || store.append(&ev(acked + t)).unwrap());
            }
        });
        drop(store);

        // Capture the untorn history: the durable order the group's
        // frames actually landed in (concurrent, so not fixed).
        let store = WalStore::open_with(&dir, options).unwrap();
        let full = store.replay().unwrap().records;
        prop_assert_eq!(full.len(), acked + group);
        drop(store);

        // The crash: cut the segment at a random byte at or past the
        // group region's start — at least the final frame tears.
        let len = std::fs::metadata(&seg).unwrap().len();
        let cut = base + tear % (len - base);
        let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let store = WalStore::open_with(&dir, options).unwrap();
        let recovered = store.replay().unwrap().records;
        prop_assert!(
            recovered.len() >= acked,
            "an individually acknowledged record was lost: {} < {}",
            recovered.len(), acked
        );
        prop_assert!(
            recovered.len() < acked + group,
            "a torn group write cannot survive whole"
        );
        // Contiguous-prefix survival == contiguous-suffix loss: no
        // recovered record may be reordered or skipped past a hole.
        prop_assert_eq!(&recovered[..], &full[..recovered.len()]);
        drop(store);

        std::fs::remove_dir_all(&dir).ok();
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
        let dir = scratch("compose");

        let mut oracle = Runtime::new();
        let mut rt = Runtime::with_store(Arc::new(WalStore::open(&dir).unwrap()));
        for op in &ops {
            apply(&mut rt, op, true);
            apply(&mut oracle, op, false);
        }
        drop(rt);

        let mut recovered = Runtime::open(Arc::new(WalStore::open(&dir).unwrap())).unwrap();
        for op in [Op::Deploy(0), Op::Start(0), Op::FireBatch(7, 2)] {
            apply(&mut recovered, &op, true);
            apply(&mut oracle, &op, false);
        }
        let expected = recovered.snapshot();
        drop(recovered);

        let mut by_log = Runtime::open(Arc::new(WalStore::open(&dir).unwrap())).unwrap();
        prop_assert_eq!(by_log.snapshot(), expected);

        let mut by_text = Runtime::restore(&oracle.snapshot()).unwrap();
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

        std::fs::remove_dir_all(&dir).ok();
    }

    /// An expiry racing the crash fires exactly once. `advance` appends
    /// one `TimerFire` per expired timer; tearing inside that run of
    /// appends un-fires a suffix of them. Recovery re-arms exactly the
    /// un-fired timers (their `TimerArm` survived inside `Start`, their
    /// `TimerFire` did not), so repeating the advance fires each of
    /// those once — and only those: a tick whose `TimerFire` survived
    /// replays as already-fired and is never re-armed.
    #[test]
    fn expiry_racing_the_crash_fires_exactly_once(
        fleet in 1..5usize,
        pick in 0..64usize,
        tear in 1..4096u64,
    ) {
        let dir = scratch("expiry");
        let (name, source) = SPECS[TIMED];
        let mut rt = Runtime::with_store(Arc::new(WalStore::open(&dir).unwrap()));
        rt.deploy_source(source).expect("deploy");
        let ids: Vec<_> = (0..fleet).map(|_| rt.start(name).expect("start")).collect();

        let before = seg_sizes(&dir);
        let fired = rt.advance(30_000).expect("advance");
        prop_assert_eq!(fired.len(), fleet); // one after-gate each
        drop(rt); // crash mid-durability: files stay as-is

        // Tear inside one of the advance's TimerFire runs. The fleet
        // shards across segments, so several may have grown; cut one.
        let after = seg_sizes(&dir);
        let grown: Vec<_> = after
            .iter()
            .filter(|(path, len)| before.get(*path).copied().unwrap_or(0) < **len)
            .collect();
        prop_assert!(!grown.is_empty());
        let (path, &len) = grown[pick % grown.len()];
        let written = len - before.get(path).copied().unwrap_or(0);
        let cut = len - 1 - (tear - 1) % written;
        let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        // Recover and repeat the advance: the recovered wheel starts
        // behind the restored clock, so every still-armed 30s gate
        // (torn away mid-advance) expires now; every gate whose
        // TimerFire survived is already in its journal and disarmed.
        let mut recovered = Runtime::open(Arc::new(WalStore::open(&dir).unwrap())).unwrap();
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

        std::fs::remove_dir_all(&dir).ok();
    }
}
