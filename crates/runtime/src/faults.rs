//! Store-fault tests of the fleet core, driven through the runtime over
//! a write-ahead log on a simulated file system: every operation that
//! appends must leave the fleet exactly as it was when a file-system
//! operation under it fails, whichever operation of the script it is.

use crate::{FireOutcome, InstanceId, InstanceStatus, MemStore, Runtime, RuntimeError, Store};
use ctr_store::sim::{self, Fault, SimFs};
use ctr_store::{Record, WalOptions, WalStore};
use std::sync::Arc;

/// A write-ahead log on `fs`.
pub(crate) fn wal_on(fs: &Arc<SimFs>) -> Arc<dyn Store> {
    Arc::new(WalStore::open_on(fs.clone(), "wal", WalOptions::default()).expect("the store opens"))
}

/// The fleet recovered from `fs` after a crash.
pub(crate) fn recovered(fs: &SimFs) -> Runtime {
    Runtime::open(wal_on(&fs.reboot())).expect("the store replays")
}

/// Snapshot, clock, fleet-wide pending count, and per instance its
/// pending timers, eligible events and journal.
type Observed = (
    String,
    u64,
    usize,
    Vec<(Vec<(String, u64)>, Vec<String>, Vec<String>)>,
);

/// Everything the runtime shows of its state.
fn observe(rt: &Runtime, ids: &[InstanceId]) -> Observed {
    (
        rt.snapshot(),
        rt.clock_ms(),
        rt.pending_timer_count(),
        ids.iter()
            .map(|&id| {
                (
                    rt.pending_timers(id).expect("started"),
                    rt.eligible(id).expect("started"),
                    rt.journal(id).expect("started"),
                )
            })
            .collect(),
    )
}

const TIMED: &str = "workflow timed { graph invoice * approve * file; after(approve, 30s); }";
const GUARDED: &str = "workflow guarded { graph invoice * approve; deadline(approve, 1h); }";
const PLAIN: &str = "workflow plain { graph invoice * (approve + reject) * file; }";

/// One step of the script. Instances are named by start order, so the
/// script does not depend on which ids the runtime hands out.
#[derive(Clone, Copy)]
enum Op {
    Deploy(&'static str),
    Start(&'static str),
    Fire(usize, &'static str),
    FireBatch(usize, &'static [&'static str]),
    FireRuns(usize, &'static [&'static [&'static str]]),
    Advance(u64),
    Cancel(usize, &'static str),
    TryComplete(usize),
}

/// Every kind of operation that appends, each at least once, with a
/// timed start (two appends), an expiry, and a burst of two runs — the
/// first stopped by a refusal, the second firing the event that
/// settles the instance's deadline — among them.
const SCRIPT: &[Op] = &[
    Op::Deploy(TIMED),
    Op::Deploy(GUARDED),
    Op::Start("timed"),
    Op::Start("guarded"),
    Op::Fire(0, "invoice"),
    Op::FireRuns(1, &[&["invoice", "file"], &["approve"]]),
    Op::Advance(30_000),
    Op::Start("timed"),
    Op::Cancel(2, "approve@after30000"),
    Op::TryComplete(1),
    Op::FireBatch(0, &["approve", "file"]),
];

/// Applies one step. A batch or burst the store refused reports it in
/// its outcomes; that is folded into `Err` like every other
/// operation's.
fn apply(rt: &Runtime, op: Op, ids: &mut Vec<InstanceId>) -> Result<(), RuntimeError> {
    match op {
        Op::Deploy(source) => rt.deploy_source(source).map(drop),
        Op::Start(workflow) => rt.start(workflow).map(|id| ids.push(id)),
        Op::Fire(i, event) => rt.fire(ids[i], event).map(drop),
        Op::FireBatch(i, events) => {
            let outcomes = rt.fire_batch(ids[i], events)?;
            assert_eq!(outcomes.len(), events.len());
            match outcomes.into_iter().next() {
                Some(FireOutcome::Rejected(e @ RuntimeError::Store(_))) => Err(e),
                _ => Ok(()),
            }
        }
        Op::FireRuns(i, runs) => {
            use FireOutcome::{Fired, Rejected, Skipped};
            // Several runs against one instance as one burst — one
            // append — with one outcome per event, in order.
            let runs: Vec<(InstanceId, &[&str])> = runs.iter().map(|&run| (ids[i], run)).collect();
            let outcomes: Vec<FireOutcome> = rt.fire_runs(&runs).into_iter().flatten().collect();
            match &outcomes[..] {
                // One commit unit: every run says why, nothing else ran.
                [Rejected(e @ RuntimeError::Store(_)), Skipped, Rejected(again)] => {
                    assert_eq!(e, again);
                    Err(e.clone())
                }
                [Fired(_), Rejected(RuntimeError::NotEligible { .. }), Fired(_)] => Ok(()),
                other => panic!("burst outcomes {other:?}"),
            }
        }
        Op::Advance(to_ms) => rt.advance(to_ms).map(drop),
        Op::Cancel(i, event) => rt.cancel_timer(ids[i], event),
        Op::TryComplete(i) => rt.try_complete(ids[i]).map(drop),
    }
}

/// Runs the script against a store whose `nth` file-system operation
/// fails, next to a store-less oracle that skips whatever operation
/// that fails. Returns `false` once `nth` is past the script's last
/// file-system operation.
fn script_survives_failed_operation(nth: u64) -> bool {
    let fs = SimFs::new(nth);
    let faulty = Runtime::with_store(wal_on(&fs));
    fs.inject(None, nth, Fault::Eio, false);
    let oracle = Runtime::new();
    let (mut ids, mut oracle_ids) = (Vec::new(), Vec::new());
    let mut failed = None;
    for (step, &op) in SCRIPT.iter().enumerate() {
        let before = observe(&faulty, &ids);
        let Err(e) = apply(&faulty, op, &mut ids) else {
            apply(&oracle, op, &mut oracle_ids).expect("the script is valid");
            continue;
        };
        assert!(matches!(e, RuntimeError::Store(_)), "step {step}: {e}");
        assert!(failed.replace(op).is_none(), "one injected failure");
        assert_eq!(fs.injected(), 1, "step {step} failed on its own");
        // Nothing the runtime shows — snapshot bytes, timers, eligible
        // sets, journals — may tell it from what it was, or from the
        // oracle, which never tried the operation.
        let after = observe(&faulty, &ids);
        assert_eq!(after, before, "step {step} left a mark");
        assert_eq!(
            after,
            observe(&oracle, &oracle_ids),
            "operation {nth} failed in step {step}"
        );
        // The retry goes through. A failed advance has consumed the
        // wheel's time all the same, so its tail fires on the next
        // advance that moves the wheel at all.
        let retry = match op {
            Op::Advance(to_ms) => Op::Advance(to_ms + 1),
            other => other,
        };
        apply(&faulty, retry, &mut ids).expect("the retried operation succeeds");
        apply(&oracle, retry, &mut oracle_ids).expect("the script is valid");
        if let Op::Start(_) = op {
            // The failed start burned its id.
            assert_eq!(ids.last().unwrap() - 1, *oracle_ids.last().unwrap());
        }
    }
    // Apart from a burned id the two fleets end up the same …
    let (end, oracle_end) = (observe(&faulty, &ids), observe(&oracle, &oracle_ids));
    assert_eq!(
        (end.1, end.2, &end.3),
        (oracle_end.1, oracle_end.2, &oracle_end.3)
    );
    if !matches!(failed, Some(Op::Start(_))) {
        assert_eq!(end.0, oracle_end.0);
    }
    // … and what was acknowledged is what a restart finds. (The clock
    // is not part of the snapshot: recovery restores its watermark.)
    let reopened = observe(&recovered(&fs), &ids);
    assert_eq!(
        (&reopened.0, reopened.2, &reopened.3),
        (&end.0, end.2, &end.3)
    );
    assert_eq!(failed.is_some(), fs.injected() == 1);
    failed.is_some()
}

#[test]
fn every_failed_append_leaves_the_fleet_as_it_was() {
    let mut nth = 0;
    while script_survives_failed_operation(nth) {
        nth += 1;
    }
    // 14 appends of one write and one sync each, and on each of the
    // three stripes the script touches a segment create and the
    // directory sync behind it: every file-system operation of the
    // script was the failing one once.
    assert_eq!(nth, 34);
}

/// A start whose `Start` append failed after its `TimerArm` succeeded
/// must not hand its id to the next start: the orphan arm would meet
/// that instance at recovery.
#[test]
fn failed_start_burns_its_id() {
    // Appends: 0 = Deploy, 1 = TimerArm, 2 = Start.
    let fs = SimFs::new(2);
    let rt = Runtime::with_store(wal_on(&fs));
    fs.inject(Some(sim::Op::Append), 2, Fault::Eio, false);
    rt.deploy_source(TIMED).unwrap();
    assert!(matches!(rt.start("timed"), Err(RuntimeError::Store(_))));
    assert_eq!(rt.start("timed"), Ok(1), "id 0 stays with the orphan arm");
    let live = observe(&rt, &[1]);
    assert_eq!(live.2, 1, "the failed start armed nothing");
    let reopened = observe(&recovered(&fs), &[1]);
    assert_eq!(
        (reopened.0, reopened.2, reopened.3),
        (live.0, live.2, live.3)
    );
}

/// The documented orphan-arm crash — a `TimerArm` durable, its `Start`
/// not — followed by a restart that reuses the id for an untimed
/// workflow: the next recovery must not hang the orphan's timer on it.
#[test]
fn orphan_arm_never_becomes_a_phantom_timer() {
    let store = Arc::new(MemStore::new());
    {
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
        rt.deploy_source(TIMED).unwrap();
        rt.deploy_source(PLAIN).unwrap();
    }
    store
        .append(&Record::TimerArm {
            instance: 0,
            timers: vec![("approve@after30000".to_owned(), 30_000)],
        })
        .unwrap();
    let rt = Runtime::open(Arc::clone(&store) as Arc<dyn Store>).expect("the store replays");
    assert_eq!(rt.start("plain"), Ok(0));
    let live = observe(&rt, &[0]);
    let reopened = observe(&Runtime::open(store).expect("the store replays"), &[0]);
    assert!(reopened.3[0].0.is_empty(), "phantom: {:?}", reopened.3[0].0);
    assert_eq!(reopened, live);
}

/// A burst's outcomes share one buffer, instance after instance, so a
/// store fault in one instance's append must cost exactly that
/// instance's share of it: the outcomes of the instances fired before
/// stay, the ones after are still tried, and only the faulted instance
/// rolls back.
#[test]
fn a_store_fault_mid_burst_rejects_only_its_own_instance() {
    use FireOutcome::{Fired, Rejected, Skipped};
    use InstanceStatus::Running;
    // Appends after the starts: one per instance of the burst in
    // first-appearance order, 0 = a, 1 = b, 2 = c.
    for by_pairs in [false, true] {
        let fs = SimFs::new(5);
        let rt = Runtime::with_store(wal_on(&fs));
        rt.deploy_source(PLAIN).unwrap();
        let [a, b, c] = [(); 3].map(|()| rt.start("plain").unwrap());
        fs.inject(Some(sim::Op::Append), 1, Fault::Eio, false);
        let store_fault = |o: &FireOutcome| matches!(o, Rejected(RuntimeError::Store(_)));
        if by_pairs {
            let outcomes = rt.fire_many(&[
                (a, "invoice"),
                (b, "invoice"),
                (a, "approve"),
                (c, "invoice"),
                (b, "approve"),
            ]);
            assert_eq!(outcomes[0], Fired(Running));
            assert_eq!(outcomes[2], Fired(Running));
            assert_eq!(outcomes[3], Fired(Running));
            assert!(store_fault(&outcomes[1]), "{outcomes:?}");
            assert_eq!(outcomes[4], Skipped, "b's pairs are one run");
        } else {
            let runs: [(InstanceId, &[&str]); 5] = [
                (a, &["invoice"]),
                (b, &["invoice", "approve"]),
                (a, &["approve"]),
                (c, &["invoice"]),
                (b, &["file"]),
            ];
            let outcomes = rt.fire_runs(&runs);
            assert_eq!(outcomes[0], [Fired(Running)]);
            assert_eq!(outcomes[2], [Fired(Running)]);
            assert_eq!(outcomes[3], [Fired(Running)]);
            assert!(store_fault(&outcomes[1][0]), "{outcomes:?}");
            assert_eq!(outcomes[1][1], Skipped);
            assert!(store_fault(&outcomes[4][0]), "each run says why");
        }
        assert_eq!(rt.journal(a).unwrap(), ["invoice", "approve"]);
        assert_eq!(rt.journal(b).unwrap(), Vec::<String>::new());
        assert_eq!(rt.journal(c).unwrap(), ["invoice"]);
        assert_eq!(rt.eligible(b).unwrap(), ["invoice"], "b rolled back whole");
        // What was acknowledged is what a restart finds (recovered from
        // a copy of the disk, so the live store stays up), and b goes on
        // on both.
        let reopened = Runtime::open(wal_on(&fs.fork().reboot())).expect("the store replays");
        assert_eq!(reopened.snapshot(), rt.snapshot());
        for fleet in [&rt, &reopened] {
            assert_eq!(
                fleet.fire_batch(b, &["invoice", "reject"]).unwrap(),
                [Fired(Running), Fired(Running)]
            );
        }
        assert_eq!(recovered(&fs).snapshot(), rt.snapshot());
    }
}
