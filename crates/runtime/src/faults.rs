//! Store-fault tests of the fleet core, driven through both holders:
//! every operation that appends must leave the fleet exactly as it was
//! when its append fails, whichever append of the operation it is.

use crate::{
    fleet, FireOutcome, InstanceId, InstanceStatus, MemStore, Runtime, RuntimeError, SharedRuntime,
    Store,
};
use ctr_store::{Record, Replay, StoreError, StoreStats};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A store that fails every append while `fail` is set.
pub(crate) struct FaultyStore {
    pub(crate) inner: MemStore,
    pub(crate) fail: AtomicBool,
}

impl Store for FaultyStore {
    fn append(&self, record: &Record) -> Result<(), StoreError> {
        if self.fail.load(Ordering::Relaxed) {
            return Err(StoreError::Io("injected append failure".to_owned()));
        }
        self.inner.append(record)
    }
    fn replay(&self) -> Result<Replay, StoreError> {
        self.inner.replay()
    }
    fn checkpoint(&self, snapshot: &str) -> Result<(), StoreError> {
        self.inner.checkpoint(snapshot)
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// A [`FaultyStore`] that fails exactly the `nth` append (0-based) it
/// is asked for, and no other.
struct FailNth {
    store: FaultyStore,
    nth: usize,
    asked: AtomicUsize,
}

impl FailNth {
    fn new(nth: usize) -> Arc<FailNth> {
        Arc::new(FailNth {
            store: FaultyStore {
                inner: MemStore::new(),
                fail: AtomicBool::new(false),
            },
            nth,
            asked: AtomicUsize::new(0),
        })
    }
}

impl Store for FailNth {
    fn append(&self, record: &Record) -> Result<(), StoreError> {
        let hit = self.asked.fetch_add(1, Ordering::Relaxed) == self.nth;
        self.store.fail.store(hit, Ordering::Relaxed);
        self.store.append(record)
    }
    fn replay(&self) -> Result<Replay, StoreError> {
        self.store.replay()
    }
    fn checkpoint(&self, snapshot: &str) -> Result<(), StoreError> {
        self.store.checkpoint(snapshot)
    }
    fn stats(&self) -> StoreStats {
        self.store.stats()
    }
}

/// What the script needs of a holder, so one driver runs both.
trait Fleet: Sized {
    fn with(store: Option<Arc<dyn Store>>) -> Self;
    fn recover(store: Arc<dyn Store>) -> Self;
    fn deploy(&mut self, source: &str) -> Result<String, RuntimeError>;
    fn begin(&mut self, workflow: &str) -> Result<InstanceId, RuntimeError>;
    fn fire1(&mut self, id: InstanceId, event: &str) -> Result<InstanceStatus, RuntimeError>;
    fn batch(&mut self, id: InstanceId, events: &[&str]) -> Result<Vec<FireOutcome>, RuntimeError>;
    /// Several runs against one instance as one burst — one append —
    /// with one outcome per event, in order.
    fn burst(&mut self, id: InstanceId, runs: &[&[&str]])
        -> Result<Vec<FireOutcome>, RuntimeError>;
    fn tick(&mut self, to_ms: u64) -> Result<Vec<(InstanceId, String)>, RuntimeError>;
    fn cancel(&mut self, id: InstanceId, event: &str) -> Result<(), RuntimeError>;
    fn finish(&mut self, id: InstanceId) -> Result<InstanceStatus, RuntimeError>;
    /// Everything the holder shows of its state.
    fn observe(&self, ids: &[InstanceId]) -> Observed;
}

/// Snapshot, clock, fleet-wide pending count, and per instance its
/// pending timers, eligible events and journal.
type Observed = (
    String,
    u64,
    usize,
    Vec<(Vec<(String, u64)>, Vec<String>, Vec<String>)>,
);

/// `Runtime` has no multi-run entry point of its own: the core's
/// `fire_burst`, the way `fire_batch` calls it.
fn burst_single(
    rt: &mut Runtime,
    id: InstanceId,
    runs: &[&[&str]],
) -> Result<Vec<FireOutcome>, RuntimeError> {
    let inst = rt
        .instances
        .get_mut(&id)
        .ok_or(RuntimeError::UnknownInstance(id))?;
    let events = runs.iter().flat_map(|run| fleet::one_run(run));
    let mut outcomes = Vec::new();
    let store = rt.store.as_deref();
    fleet::fire_burst(inst, id, events, &mut outcomes, &mut rt.timers, store)?;
    Ok(outcomes)
}

fn burst_shared(
    rt: &mut SharedRuntime,
    id: InstanceId,
    runs: &[&[&str]],
) -> Result<Vec<FireOutcome>, RuntimeError> {
    let runs: Vec<(InstanceId, &[&str])> = runs.iter().map(|&run| (id, run)).collect();
    Ok(rt.fire_runs(&runs).into_iter().flatten().collect())
}

macro_rules! impl_fleet {
    ($ty:ty, $burst:ident) => {
        impl Fleet for $ty {
            fn with(store: Option<Arc<dyn Store>>) -> Self {
                store.map_or_else(<$ty>::new, <$ty>::with_store)
            }
            fn recover(store: Arc<dyn Store>) -> Self {
                <$ty>::open(store).expect("the store replays")
            }
            fn deploy(&mut self, source: &str) -> Result<String, RuntimeError> {
                self.deploy_source(source)
            }
            fn begin(&mut self, workflow: &str) -> Result<InstanceId, RuntimeError> {
                self.start(workflow)
            }
            fn fire1(
                &mut self,
                id: InstanceId,
                event: &str,
            ) -> Result<InstanceStatus, RuntimeError> {
                self.fire(id, event)
            }
            fn batch(
                &mut self,
                id: InstanceId,
                events: &[&str],
            ) -> Result<Vec<FireOutcome>, RuntimeError> {
                self.fire_batch(id, events)
            }
            fn burst(
                &mut self,
                id: InstanceId,
                runs: &[&[&str]],
            ) -> Result<Vec<FireOutcome>, RuntimeError> {
                $burst(self, id, runs)
            }
            fn tick(&mut self, to_ms: u64) -> Result<Vec<(InstanceId, String)>, RuntimeError> {
                self.advance(to_ms)
            }
            fn cancel(&mut self, id: InstanceId, event: &str) -> Result<(), RuntimeError> {
                self.cancel_timer(id, event)
            }
            fn finish(&mut self, id: InstanceId) -> Result<InstanceStatus, RuntimeError> {
                self.try_complete(id)
            }
            fn observe(&self, ids: &[InstanceId]) -> Observed {
                (
                    self.snapshot(),
                    self.clock_ms(),
                    self.pending_timer_count(),
                    ids.iter()
                        .map(|&id| {
                            (
                                self.pending_timers(id).expect("started"),
                                self.eligible(id).expect("started"),
                                self.journal(id).expect("started"),
                            )
                        })
                        .collect(),
                )
            }
        }
    };
}
impl_fleet!(Runtime, burst_single);
impl_fleet!(SharedRuntime, burst_shared);

const TIMED: &str = "workflow timed { graph invoice * approve * file; after(approve, 30s); }";
const GUARDED: &str = "workflow guarded { graph invoice * approve; deadline(approve, 1h); }";
const PLAIN: &str = "workflow plain { graph invoice * (approve + reject) * file; }";

/// One step of the script. Instances are named by start order, so the
/// script does not depend on which ids a holder hands out.
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
fn apply(fleet: &mut impl Fleet, op: Op, ids: &mut Vec<InstanceId>) -> Result<(), RuntimeError> {
    match op {
        Op::Deploy(source) => fleet.deploy(source).map(drop),
        Op::Start(workflow) => fleet.begin(workflow).map(|id| ids.push(id)),
        Op::Fire(i, event) => fleet.fire1(ids[i], event).map(drop),
        Op::FireBatch(i, events) => {
            let outcomes = fleet.batch(ids[i], events)?;
            assert_eq!(outcomes.len(), events.len());
            match outcomes.into_iter().next() {
                Some(FireOutcome::Rejected(e @ RuntimeError::Store(_))) => Err(e),
                _ => Ok(()),
            }
        }
        Op::FireRuns(i, runs) => {
            use FireOutcome::{Fired, Rejected, Skipped};
            let outcomes = fleet.burst(ids[i], runs)?;
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
        Op::Advance(to_ms) => fleet.tick(to_ms).map(drop),
        Op::Cancel(i, event) => fleet.cancel(ids[i], event),
        Op::TryComplete(i) => fleet.finish(ids[i]).map(drop),
    }
}

/// Runs the script against a store that fails its `nth` append, next
/// to a store-less oracle that skips whatever operation that fails.
/// Returns `false` once `nth` is past the script's last append.
fn script_survives_failed_append<F: Fleet>(nth: usize) -> bool {
    let store = FailNth::new(nth);
    let mut faulty = F::with(Some(Arc::clone(&store) as Arc<dyn Store>));
    let mut oracle = F::with(None);
    let (mut ids, mut oracle_ids) = (Vec::new(), Vec::new());
    let mut failed = None;
    for (step, &op) in SCRIPT.iter().enumerate() {
        let before = faulty.observe(&ids);
        let Err(e) = apply(&mut faulty, op, &mut ids) else {
            apply(&mut oracle, op, &mut oracle_ids).expect("the script is valid");
            continue;
        };
        assert!(matches!(e, RuntimeError::Store(_)), "step {step}: {e}");
        assert!(failed.replace(op).is_none(), "one injected failure");
        // Nothing the holder shows — snapshot bytes, timers, eligible
        // sets, journals — may tell it from what it was, or from the
        // oracle, which never tried the operation.
        let after = faulty.observe(&ids);
        assert_eq!(after, before, "step {step} left a mark");
        assert_eq!(
            after,
            oracle.observe(&oracle_ids),
            "append {nth} failed in step {step}"
        );
        // The retry goes through. A failed advance has consumed the
        // wheel's time all the same, so its tail fires on the next
        // advance that moves the wheel at all.
        let retry = match op {
            Op::Advance(to_ms) => Op::Advance(to_ms + 1),
            other => other,
        };
        apply(&mut faulty, retry, &mut ids).expect("the retried operation succeeds");
        apply(&mut oracle, retry, &mut oracle_ids).expect("the script is valid");
        if let Op::Start(_) = op {
            // The failed start burned its id.
            assert_eq!(ids.last().unwrap() - 1, *oracle_ids.last().unwrap());
        }
    }
    // Apart from a burned id the two fleets end up the same …
    let (end, oracle_end) = (faulty.observe(&ids), oracle.observe(&oracle_ids));
    assert_eq!(
        (end.1, end.2, &end.3),
        (oracle_end.1, oracle_end.2, &oracle_end.3)
    );
    if !matches!(failed, Some(Op::Start(_))) {
        assert_eq!(end.0, oracle_end.0);
    }
    // … and what was acknowledged is what a restart finds. (The clock
    // is not part of the snapshot: recovery restores its watermark.)
    let reopened = F::recover(store as Arc<dyn Store>).observe(&ids);
    assert_eq!(
        (&reopened.0, reopened.2, &reopened.3),
        (&end.0, end.2, &end.3)
    );
    failed.is_some()
}

fn every_failed_append_leaves_the_fleet_as_it_was<F: Fleet>() {
    let mut nth = 0;
    while script_survives_failed_append::<F>(nth) {
        nth += 1;
    }
    // 2 deploys, 3 timed starts of 2 records each, 2 fires and batches
    // … : every append of the script was the failing one once.
    assert_eq!(nth, 14);
}

#[test]
fn runtime_survives_every_failed_append() {
    every_failed_append_leaves_the_fleet_as_it_was::<Runtime>();
}

#[test]
fn shared_runtime_survives_every_failed_append() {
    every_failed_append_leaves_the_fleet_as_it_was::<SharedRuntime>();
}

/// A start whose `Start` append failed after its `TimerArm` succeeded
/// must not hand its id to the next start: the orphan arm would meet
/// that instance at recovery.
fn failed_start_burns_its_id<F: Fleet>() {
    // Appends: 0 = Deploy, 1 = TimerArm, 2 = Start.
    let store = FailNth::new(2);
    let mut fleet = F::with(Some(Arc::clone(&store) as Arc<dyn Store>));
    fleet.deploy(TIMED).unwrap();
    assert!(matches!(fleet.begin("timed"), Err(RuntimeError::Store(_))));
    assert_eq!(
        fleet.begin("timed"),
        Ok(1),
        "id 0 stays with the orphan arm"
    );
    let live = fleet.observe(&[1]);
    assert_eq!(live.2, 1, "the failed start armed nothing");
    let reopened = F::recover(store as Arc<dyn Store>).observe(&[1]);
    assert_eq!(
        (reopened.0, reopened.2, reopened.3),
        (live.0, live.2, live.3)
    );
}

#[test]
fn runtime_failed_start_burns_its_id() {
    failed_start_burns_its_id::<Runtime>();
}

#[test]
fn shared_runtime_failed_start_burns_its_id() {
    failed_start_burns_its_id::<SharedRuntime>();
}

/// The documented orphan-arm crash — a `TimerArm` durable, its `Start`
/// not — followed by a restart that reuses the id for an untimed
/// workflow: the next recovery must not hang the orphan's timer on it.
fn orphan_arm_never_becomes_a_phantom_timer<F: Fleet>() {
    let store = Arc::new(MemStore::new());
    {
        let mut fleet = F::with(Some(Arc::clone(&store) as Arc<dyn Store>));
        fleet.deploy(TIMED).unwrap();
        fleet.deploy(PLAIN).unwrap();
    }
    store
        .append(&Record::TimerArm {
            instance: 0,
            timers: vec![("approve@after30000".to_owned(), 30_000)],
        })
        .unwrap();
    let mut fleet = F::recover(Arc::clone(&store) as Arc<dyn Store>);
    assert_eq!(fleet.begin("plain"), Ok(0));
    let live = fleet.observe(&[0]);
    let reopened = F::recover(store as Arc<dyn Store>).observe(&[0]);
    assert!(reopened.3[0].0.is_empty(), "phantom: {:?}", reopened.3[0].0);
    assert_eq!(reopened, live);
}

#[test]
fn runtime_orphan_arm_never_becomes_a_phantom_timer() {
    orphan_arm_never_becomes_a_phantom_timer::<Runtime>();
}

#[test]
fn shared_runtime_orphan_arm_never_becomes_a_phantom_timer() {
    orphan_arm_never_becomes_a_phantom_timer::<SharedRuntime>();
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
    // Appends: 0 = Deploy, 1–3 = Start, then one per instance of the
    // burst in first-appearance order: 4 = a, 5 = b, 6 = c.
    for by_pairs in [false, true] {
        let store = FailNth::new(5);
        let rt = SharedRuntime::with_store(Arc::clone(&store) as Arc<dyn Store>);
        rt.deploy_source(PLAIN).unwrap();
        let [a, b, c] = [(); 3].map(|()| rt.start("plain").unwrap());
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
        // What was acknowledged is what a restart finds, and b goes on.
        let reopened = SharedRuntime::open(Arc::clone(&store) as Arc<dyn Store>).unwrap();
        assert_eq!(reopened.snapshot(), rt.snapshot());
        assert_eq!(
            rt.fire_batch(b, &["invoice", "reject"]).unwrap(),
            [Fired(Running), Fired(Running)]
        );
    }
}
