//! Concurrency tests for the sharded `Runtime`: random
//! multi-threaded interleavings checked against the single-threaded
//! replay oracle, and snapshot consistency under write storms.
//!
//! The property being pinned is **linearizability per instance**: however
//! many clients race, every instance's journal must be a legal sequential
//! execution of its workflow (replaying it event by event on a fresh
//! single-threaded `Runtime` accepts every event), and a `snapshot()`
//! taken at any moment must parse and restore.

use ctr_runtime::shared::SHARD_COUNT;
use ctr_runtime::{BurstScratch, FireOutcome, InstanceId, MemStore, Runtime, RuntimeError, Store};
use ctr_store::Record;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const SPEC: &str = r"
    workflow claims {
        graph file * (triage # verify_policy) * (approve_claim + deny) * notify;
        constraint before(triage, verify_policy);
    }
";

/// Every observable event of the spec — threads fire blindly from this
/// universe, so ineligible fires (rejected, journal untouched) interleave
/// with committed ones.
const EVENTS: &[&str] = &[
    "file",
    "triage",
    "verify_policy",
    "approve_claim",
    "deny",
    "notify",
];

/// The splitmix-style step every thread uses for its private RNG.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Replays `journal` on a fresh single-threaded runtime; every event must
/// be accepted in order (the oracle for per-instance linearizability).
fn replay_oracle(journal: &[String]) -> Result<Runtime, RuntimeError> {
    let oracle = Runtime::new();
    oracle.deploy_source(SPEC)?;
    let id = oracle.start("claims")?;
    for event in journal {
        oracle.fire(id, event)?;
    }
    Ok(oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// K threads run a random interleaving of
    /// `start`/`fire`/`try_complete`/`snapshot` against one sharded
    /// runtime. Afterwards every journal must replay cleanly on the
    /// single-threaded oracle, and every snapshot taken mid-run (plus the
    /// final one) must restore.
    #[test]
    fn random_interleavings_linearize_per_instance(
        seed in 0u64..1_000_000,
        threads in 2usize..5,
        ops in 30usize..100,
    ) {
        let rt = Runtime::new();
        rt.deploy_source(SPEC).unwrap();
        // A shared pool of instances all threads race on; threads also
        // start fresh instances mid-run.
        let pool: Vec<_> = (0..6).map(|_| rt.start("claims").unwrap()).collect();

        let mid_snapshots = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let rt = rt.clone();
                    let mut ids = pool.clone();
                    let mut rng = seed.wrapping_add(t as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    scope.spawn(move || {
                        let mut snaps = Vec::new();
                        for _ in 0..ops {
                            let id = ids[next(&mut rng) as usize % ids.len()];
                            match next(&mut rng) % 10 {
                                // Fire dominates: it is the contended path.
                                0..=5 => {
                                    let event = EVENTS[next(&mut rng) as usize % EVENTS.len()];
                                    // Rejections (NotEligible / AlreadyComplete)
                                    // are part of the contract, not failures.
                                    let _ = rt.fire(id, event);
                                }
                                6 => {
                                    let _ = rt.try_complete(id);
                                }
                                7 => {
                                    let _ = rt.eligible_symbols(id);
                                }
                                8 => {
                                    ids.push(rt.start("claims").unwrap());
                                }
                                _ => snaps.push(rt.snapshot()),
                            }
                        }
                        snaps
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<String>>()
        });

        // Every mid-storm snapshot is internally consistent: it parses,
        // and every journal in it replays.
        for snap in &mid_snapshots {
            prop_assert!(
                Runtime::restore(snap).is_ok(),
                "mid-run snapshot failed to restore:\n{snap}"
            );
        }

        // Per-instance linearizability: each journal the storm produced
        // is a legal sequential execution.
        let final_snap = rt.snapshot();
        let restored = Runtime::restore(&final_snap).unwrap();
        for id in restored.instances() {
            let journal = rt.journal(id).unwrap();
            prop_assert_eq!(&journal, &restored.journal(id).unwrap());
            let oracle = replay_oracle(&journal);
            prop_assert!(
                oracle.is_ok(),
                "journal of instance {} not replayable: {:?}",
                id,
                journal
            );
            // The restored status agrees with the live one (restore
            // re-probes silent completion for `[completed]` lines).
            prop_assert_eq!(rt.status(id).unwrap(), restored.status(id).unwrap());
        }
    }
}

/// `snapshot()` taken mid-storm — while writer threads continuously fire
/// on a fleet — always parses and restores, and the frozen cut never
/// tears an instance (journals in the snapshot are valid prefixes).
#[test]
fn snapshot_mid_storm_parses_and_restores() {
    let rt = Runtime::new();
    rt.deploy_source(SPEC).unwrap();
    let ids: Vec<_> = (0..16).map(|_| rt.start("claims").unwrap()).collect();

    std::thread::scope(|scope| {
        for chunk in ids.chunks(4) {
            let rt = rt.clone();
            scope.spawn(move || {
                for &id in chunk {
                    for event in ["file", "triage", "verify_policy", "approve_claim", "notify"] {
                        rt.fire(id, event).unwrap();
                        std::thread::yield_now();
                    }
                }
            });
        }
        // Storm in progress: every snapshot restores.
        for _ in 0..25 {
            let snap = rt.snapshot();
            let restored =
                Runtime::restore(&snap).expect("snapshot taken mid-storm is internally consistent");
            for id in restored.instances() {
                assert!(restored.journal(id).unwrap().len() <= 5);
            }
            std::thread::yield_now();
        }
    });

    let restored = Runtime::restore(&rt.snapshot()).unwrap();
    for &id in &ids {
        assert!(restored.is_complete(id).unwrap());
        assert_eq!(
            restored.journal(id).unwrap(),
            vec!["file", "triage", "verify_policy", "approve_claim", "notify"]
        );
    }
}

/// Hot polling via `eligible_symbols` allocates no per-name strings and
/// agrees with the `String` variant (which delegates to it).
#[test]
fn eligible_symbols_agrees_with_eligible() {
    let rt = Runtime::new();
    rt.deploy_source(SPEC).unwrap();
    let id = rt.start("claims").unwrap();
    loop {
        let symbols = rt.eligible_symbols(id).unwrap();
        let names = rt.eligible(id).unwrap();
        assert_eq!(
            symbols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            names
        );
        let Some(first) = names.first() else { break };
        rt.fire(id, first).unwrap();
        if rt.is_complete(id).unwrap() {
            break;
        }
    }
}

// --- The instance table ----------------------------------------------------------

/// A snapshot whose ids have holes (burned ids), a gap wide enough to
/// leave the dense table, and one far id restores into the same fleet
/// as the oracle, the dense fleet the text was written from: instance
/// `k` there is `ids[k]` here, with the same history, the same answers
/// and, renumbered, the same bytes afterwards.
#[test]
fn restore_with_holes_and_a_far_id_matches_the_oracle() {
    const FAR: InstanceId = 1_099_511_627_776;
    let ids: [InstanceId; 10] = [0, 1, 2, 40, 41, 5_000, 5_001, 5_017, FAR, FAR + 1];
    let oracle = Runtime::new();
    oracle.deploy_source(SPEC).unwrap();
    for k in 0..ids.len() - 1 {
        let id = oracle.start("claims").unwrap();
        oracle.fire_batch(id, &PATH[..k % PATH.len()]).unwrap();
    }
    // The oracle's snapshot with instance `k` renamed `ids[k]`.
    let renumbered = || -> String {
        (oracle.snapshot().lines())
            .map(|line| match line.strip_prefix("instance ") {
                Some(rest) => {
                    let (k, rest) = rest.split_once(' ').unwrap();
                    format!("instance {} {rest}\n", ids[k.parse::<usize>().unwrap()])
                }
                None => format!("{line}\n"),
            })
            .collect()
    };
    let text = renumbered();

    let restored = Runtime::restore(&text).unwrap();
    assert_eq!(restored.instances(), ids[..ids.len() - 1]);
    assert_eq!(restored.snapshot(), text);
    for (k, &id) in ids[..ids.len() - 1].iter().enumerate() {
        let dense = k as InstanceId;
        assert_eq!(restored.journal(id).unwrap(), PATH[..k % PATH.len()]);
        assert_eq!(
            restored.eligible(id),
            oracle.eligible(dense),
            "instance {id}"
        );
        if let Some(event) = PATH.get(k % PATH.len()) {
            assert_eq!(restored.fire(id, event), oracle.fire(dense, event));
        }
    }
    // Ids between and beyond the restored ones are unknown.
    for ghost in [3, 39, 4_999, 5_002, FAR - 16, FAR + 16, u64::MAX] {
        assert_eq!(
            restored.status(ghost),
            Err(RuntimeError::UnknownInstance(ghost))
        );
    }
    let dense = oracle.start("claims").unwrap();
    assert_eq!(restored.start("claims"), Ok(FAR + 1));
    assert_eq!(restored.fire(FAR + 1, "file"), oracle.fire(dense, "file"));
    assert_eq!(restored.instances(), ids);
    assert_eq!(restored.snapshot(), renumbered());
}

/// Starters hand each id to a client thread the moment `start` returns
/// it; every call on it resolves — single fires, probes and bursts —
/// while the table grows under them. A shard's first directory bucket
/// ends at id 64·16 and its second at 3·64·16, so 3 400 ids cross two
/// growths.
#[test]
fn ids_resolve_as_soon_as_start_hands_them_out() {
    const PAIRS: u64 = 2;
    const EACH: u64 = 1_700;
    let rt = Runtime::new();
    rt.deploy_source("workflow two { graph a * b; }").unwrap();
    std::thread::scope(|scope| {
        for _ in 0..PAIRS {
            let (handed, ids) = std::sync::mpsc::channel::<InstanceId>();
            let rt = &rt;
            scope.spawn(move || {
                for _ in 0..EACH {
                    handed.send(rt.start("two").unwrap()).unwrap();
                }
            });
            scope.spawn(move || {
                for id in ids {
                    assert_eq!(rt.eligible(id).unwrap(), vec!["a".to_owned()]);
                    rt.fire(id, "a").unwrap();
                    let outcomes = rt.fire_runs(&[(id, &["b"][..])]);
                    assert!(
                        matches!(outcomes[0][..], [FireOutcome::Fired(_)]),
                        "instance {id}: {outcomes:?}"
                    );
                }
            });
        }
    });
    assert_eq!(rt.instances(), (0..PAIRS * EACH).collect::<Vec<_>>());
    for id in rt.instances() {
        assert!(rt.is_complete(id).unwrap(), "instance {id}");
    }
}

// --- Bursts against one `fire_batch` at a time --------------------------------

/// More instances than the planner's table has entries for a small
/// burst, several to a shard.
const FLEET: u64 = 5 * SHARD_COUNT as u64;

/// One complete execution of `SPEC`.
const PATH: [&str; 5] = ["file", "triage", "verify_policy", "approve_claim", "notify"];

fn fleet_with(store: Option<Arc<dyn Store>>) -> Runtime {
    let rt = store.map_or_else(Runtime::new, Runtime::with_store);
    rt.deploy_source(SPEC).unwrap();
    for id in 0..FLEET {
        assert_eq!(rt.start("claims").unwrap(), id);
    }
    rt
}

/// A random burst: runs of zero to three events, mostly the next events
/// of their instance's path (so bursts commit), some drawn blindly (a
/// refusal mid-run), against a hot set of instances that keeps coming
/// back, the whole fleet, and ids nobody started. `at` is the
/// generator's guess of each instance's progress, carried from burst to
/// burst.
fn random_burst(
    rng: &mut u64,
    len: usize,
    at: &mut [usize],
) -> Vec<(InstanceId, Vec<&'static str>)> {
    (0..len)
        .map(|_| {
            let id = match next(rng) % 10 {
                0 => 1_000 + next(rng) % 3,
                1..=5 => next(rng) % 8 * 7 % FLEET,
                _ => next(rng) % FLEET,
            };
            let events = (0..next(rng) % 4)
                .map(|_| match at.get_mut(id as usize) {
                    Some(at) if !next(rng).is_multiple_of(5) => {
                        *at += 1;
                        PATH[(*at - 1) % PATH.len()]
                    }
                    _ => EVENTS[next(rng) as usize % EVENTS.len()],
                })
                .collect();
            (id, events)
        })
        .collect()
}

/// What a run reports when it was not tried at all.
fn untried(events: usize, why: RuntimeError) -> Vec<FireOutcome> {
    let mut outcomes = vec![FireOutcome::Skipped; events];
    if let Some(first) = outcomes.first_mut() {
        *first = FireOutcome::Rejected(why);
    }
    outcomes
}

/// `fire_batch`, with an unknown id reported the way a burst reports it.
fn one_batch(rt: &Runtime, id: InstanceId, events: &[&str]) -> Vec<FireOutcome> {
    rt.fire_batch(id, events)
        .unwrap_or_else(|e| untried(events.len(), e))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A burst through `fire_runs`, through `fire_runs_into` with a
    /// scratch kept from burst to burst and, flattened to pairs, through
    /// `fire_many` answers exactly what a twin runtime answers to the
    /// same runs submitted one `fire_batch` at a time — every outcome,
    /// every journal, the snapshot bytes — and reaches the store as one
    /// record per instance in first-appearance order.
    #[test]
    fn bursts_match_one_fire_batch_at_a_time(
        seed in 0u64..1_000_000,
        lens in proptest::collection::vec(0usize..260, 1..4),
    ) {
        let store = Arc::new(MemStore::new());
        let by_runs = fleet_with(Some(Arc::clone(&store) as Arc<dyn Store>));
        let by_runs_into = fleet_with(None);
        let run_twin = fleet_with(None);
        let by_pairs = fleet_with(None);
        let pair_twin = fleet_with(None);
        let mut scratch = BurstScratch::new();
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut at = vec![0usize; FLEET as usize];
        for len in lens {
            let burst = random_burst(&mut rng, len, &mut at);
            let runs: Vec<(InstanceId, &[&str])> =
                burst.iter().map(|(id, events)| (*id, events.as_slice())).collect();

            // Runs: each one alone on the twin, in input order.
            let logged = store.replay().unwrap().records.len();
            let outcomes = by_runs.fire_runs(&runs);
            by_runs_into.fire_runs_into(&runs, &mut scratch);
            prop_assert_eq!(outcomes.len(), runs.len());
            let mut committed: Vec<(InstanceId, Vec<String>)> = Vec::new();
            for (i, &(id, events)) in runs.iter().enumerate() {
                let want = one_batch(&run_twin, id, events);
                prop_assert_eq!(&outcomes[i], &want, "run {} of {:?}", i, runs);
                prop_assert_eq!(scratch.outcomes(i), want.as_slice(), "run {} of {:?}", i, runs);
                let fired = want.iter().filter(|o| matches!(o, FireOutcome::Fired(_))).count();
                let fired = events[..fired].iter().map(|&e| e.to_owned());
                match committed.iter_mut().find(|(instance, _)| *instance == id) {
                    Some((_, so_far)) => so_far.extend(fired),
                    None => committed.push((id, fired.collect())),
                }
            }
            let appended: Vec<(InstanceId, Vec<String>)> = store.replay().unwrap().records[logged..]
                .iter()
                .map(|record| match record {
                    Record::Events { instance, events } => (*instance, events.clone()),
                    other => panic!("a burst appends only events, not {other:?}"),
                })
                .collect();
            committed.retain(|(_, events)| !events.is_empty());
            prop_assert_eq!(appended, committed, "one append per instance, in order of appearance");

            // Pairs: an instance's pairs are one batch on the twin.
            let pairs: Vec<(InstanceId, &str)> = runs
                .iter()
                .flat_map(|&(id, events)| events.iter().map(move |&event| (id, event)))
                .collect();
            let outcomes = by_pairs.fire_many(&pairs);
            let mut by_instance: BTreeMap<InstanceId, Vec<usize>> = BTreeMap::new();
            for (position, &(id, _)) in pairs.iter().enumerate() {
                by_instance.entry(id).or_default().push(position);
            }
            let mut want = vec![FireOutcome::Skipped; pairs.len()];
            for (id, positions) in by_instance {
                let events: Vec<&str> = positions.iter().map(|&p| pairs[p].1).collect();
                for (p, outcome) in positions.into_iter().zip(one_batch(&pair_twin, id, &events)) {
                    want[p] = outcome;
                }
            }
            prop_assert_eq!(outcomes, want, "pairs {:?}", pairs);
        }
        for id in 0..FLEET {
            prop_assert_eq!(by_runs.journal(id).unwrap(), run_twin.journal(id).unwrap());
            prop_assert_eq!(by_pairs.journal(id).unwrap(), pair_twin.journal(id).unwrap());
        }
        prop_assert_eq!(by_runs.snapshot(), run_twin.snapshot());
        prop_assert_eq!(by_runs_into.snapshot(), run_twin.snapshot());
        prop_assert_eq!(by_pairs.snapshot(), pair_twin.snapshot());
        let recovered = Runtime::open(store as Arc<dyn Store>).unwrap();
        prop_assert_eq!(recovered.snapshot(), run_twin.snapshot());
    }
}
