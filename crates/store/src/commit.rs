//! Cross-thread group commit: the WAL commit pipeline.
//!
//! PR 7's append path held the stripe lock across `write_all` +
//! `sync_data`, so N concurrent appenders on one stripe paid N serial
//! fsyncs — the cliff between the ladder rungs `store_mem` (0.4 µs per
//! fire) and `store_wal_strict` (104 µs, one fsync per fire) in
//! `benchmark/results/trace-seed1.json`. This module replaces that
//! with the classic leader/follower group commit of production
//! databases:
//!
//! 1. **Stage.** An appender encodes its frame *under a short staging
//!    lock* (where the global sequence number is also allocated, so the
//!    checkpoint-cut invariant is unchanged), pushes the bytes onto the
//!    stripe's commit queue, takes a monotonically increasing *ticket*,
//!    and — under [`Durability::Strict`] and [`Durability::Coalesced`] —
//!    waits on the stripe's durable-watermark condvar.
//! 2. **Lead.** The first waiter to observe no active leader becomes
//!    the **leader**: it may wait up to `max_wait` for the group to
//!    grow, then drains *every* staged frame, releases the staging lock,
//!    and commits the whole group with **one** `write_all` and **one**
//!    `sync_data` under the stripe's separate I/O lock.
//! 3. **Publish.** Back under the staging lock the leader advances the
//!    durable watermark past the group's tickets, steps down, and wakes
//!    the group. Waiters whose ticket is at or below the watermark
//!    return `Ok` — each `append()` still returns only after its record
//!    is durable, so the write-ahead contract is unchanged. Any waiter
//!    may itself become the next leader (the wait loop doubles as
//!    leader election), so frames staged while the previous leader was
//!    inside `sync_data` form the next group: coalescing emerges from
//!    fsync latency itself, no timer required — which is also why the
//!    win shows up even on a single-CPU host (fsync is I/O-bound; the
//!    kernel runs the other appenders while the leader blocks).
//!
//! **Failure discipline.** A failed group write poisons the stripe
//! (`dirty`), truncates the segment back to the last *acknowledged*
//! byte, and fails **every** waiter in the group with the typed
//! [`StoreError`] — the durable watermark never advances past a
//! truncation point, so no waiter can be told "durable" for bytes that
//! were cut. Under [`Durability::Periodic`] there are no waiters; the
//! error is *latched* as a sticky per-stripe error that fails every
//! subsequent `append` on that stripe until the store is reopened —
//! one observer is not enough, because acknowledged-but-unsynced
//! records were already dropped and later appenders would otherwise
//! stage into a silently lossy stripe.
//!
//! **Lock order.** Within a stripe: staging before I/O, and the I/O
//! lock is never held while (re)acquiring the staging lock — the leader
//! drops staging for the write and drops I/O before publishing. Across
//! stripes only `checkpoint`/`replay` lock more than one, always in
//! ascending index order, quiescing each stripe's pipeline
//! (`WalInner::quiesce_stripe`) before freezing its I/O state.

use crate::wal::{Stripe, WalInner};
use crate::{encode_payload, Record, StoreError};
use std::collections::BTreeMap;
use std::mem;
use std::sync::MutexGuard;
use std::time::{Duration, Instant};

/// When a [`crate::wal::WalStore`] append is acknowledged, and what a
/// crash may therefore lose. Set via [`crate::WalOptions::durability`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// Group commit with no linger: every `append` returns only after its
    /// record is durable. A lone append pays its own fsync; appends that
    /// stage while a leader is inside `sync_data` share the next one.
    /// [`Durability::Coalesced`] with `max_wait` zero, under the name
    /// the default has always had.
    #[default]
    Strict,
    /// Leader/follower group commit: concurrent appends on a stripe
    /// coalesce into one `write_all` + one `sync_data`, and every
    /// `append` still returns only after its record is durable — a
    /// crash can never lose an acknowledged record. Before writing, the
    /// leader lingers in short slices *while the group keeps growing*,
    /// up to `max_wait` total — enough for followers woken by the
    /// previous commit to join this group instead of forcing the next
    /// one, at a bounded latency cost ([`Duration::ZERO`] disables the
    /// linger and relies purely on the batching that fsync latency
    /// itself provides). See [`Durability::coalesced`] for the default.
    Coalesced {
        /// Upper bound on the leader's grow-the-group linger.
        max_wait: Duration,
    },
    /// Relaxed: `append` acknowledges after *staging*; a background
    /// syncer thread commits staged frames every `interval`. A crash
    /// may lose up to one interval of acknowledged records (always a
    /// contiguous per-stripe suffix, never a gap). For workloads where
    /// the journal is a log, not a ledger.
    Periodic {
        /// How often the background syncer drains the commit queues.
        interval: Duration,
    },
}

impl Durability {
    /// [`Durability::Coalesced`] with a 100 µs grow-the-group linger —
    /// well under one fsync, enough to gather the followers the
    /// previous commit just woke. The recommended non-strict policy.
    pub const fn coalesced() -> Durability {
        Durability::Coalesced {
            max_wait: Duration::from_micros(100),
        }
    }

    /// [`Durability::Periodic`] with a 5 ms loss window.
    pub const fn periodic() -> Durability {
        Durability::Periodic {
            interval: Duration::from_millis(5),
        }
    }
}

/// A stripe's commit queue: staged frames awaiting the next group
/// write, plus the ticket bookkeeping that orders acknowledgements.
/// Lives behind the stripe's staging mutex.
pub(crate) struct CommitQueue {
    /// Next ticket to hand out (the first staged frame gets ticket 1).
    next_ticket: u64,
    /// Highest ticket already drained into a group (written or failed).
    drained: u64,
    /// Highest ticket durably synced; waiters at or below return `Ok`.
    durable: u64,
    /// A leader is currently committing a group.
    leader: bool,
    /// Size of the group the last leader drained — the linger's
    /// concurrency signal: a stripe whose groups are singletons has no
    /// followers worth waiting for.
    last_group: u64,
    /// Concatenated frames awaiting the next group write.
    buf: Vec<u8>,
    /// Journal event count per staged frame, in ticket order.
    frame_events: Vec<u64>,
    /// Per-ticket failure verdicts from a failed group write; each
    /// waiter removes (and returns) its own entry, so the map stays
    /// bounded by the number of concurrently failed appends.
    failures: BTreeMap<u64, StoreError>,
    /// Background-sync failure under [`Durability::Periodic`] (no
    /// waiter to deliver it to); latched — every subsequent append on
    /// the stripe fails with a clone until the store is reopened.
    sticky_error: Option<StoreError>,
}

impl CommitQueue {
    pub(crate) fn new() -> CommitQueue {
        CommitQueue {
            next_ticket: 1,
            drained: 0,
            durable: 0,
            leader: false,
            last_group: 0,
            buf: Vec::new(),
            frame_events: Vec::new(),
            failures: BTreeMap::new(),
            sticky_error: None,
        }
    }

    /// Frames currently staged and not yet drained into a group.
    fn staged_frames(&self) -> usize {
        self.frame_events.len()
    }
}

impl WalInner {
    /// The append path of every level: stage the frame under the staging
    /// lock, then either wait for the durable watermark (strict,
    /// coalesced) or acknowledge immediately (periodic).
    pub(crate) fn append(&self, s: usize, record: &Record) -> Result<(), StoreError> {
        let stripe = &self.stripes[s];
        let mut q = crate::wal::lock(&stripe.staging);

        let (wait, window) = match self.options.durability {
            Durability::Strict => (true, Duration::ZERO),
            Durability::Coalesced { max_wait } => (true, max_wait),
            Durability::Periodic { .. } => (false, Duration::ZERO),
        };
        if !wait {
            // A background sync failed since the last append: the
            // staged window it covered is gone (truncated back to the
            // acknowledged tail). The error is *latched*, not consumed:
            // a Periodic appender that saw one `Ok` has no later chance
            // to learn the stripe is broken, so every subsequent append
            // on the stripe must keep failing until the store is
            // reopened (which rescans and repairs the segment). Taking
            // the error here would acknowledge new records into a
            // stripe whose acknowledged window was already cut.
            if let Some(err) = &q.sticky_error {
                return Err(err.clone());
            }
        }

        // Sequence allocation stays under the staging lock on purpose:
        // checkpoint quiesces and holds every staging lock while the
        // cut is chosen, so no append can hold an unwritten seq.
        let seq = self.next_seq();
        let payload = encode_payload(seq, record);
        self.check_payload_size(payload.len())?;

        let ticket = q.next_ticket;
        q.next_ticket += 1;
        crate::put_frame(&payload, &mut q.buf);
        q.frame_events.push(record.event_count());
        // Wake a leader lingering in its grow-the-group window.
        stripe.staged_cv.notify_all();

        if !wait {
            // Periodic: acknowledged now, durable within one interval.
            self.counters.on_append(record.event_count());
            return Ok(());
        }

        loop {
            // Failure check first: after a failed group the watermark
            // of a *later* successful group jumps past the failed
            // tickets, so `durable >= ticket` alone would lie to them.
            // Only the owning waiter removes its entry, so no race.
            if let Some(err) = q.failures.remove(&ticket) {
                return Err(err);
            }
            if q.durable >= ticket {
                return Ok(());
            }
            if q.leader {
                q = crate::wal::wait(&stripe.durable_cv, q);
            } else {
                // Leader election is the wait loop itself: the first
                // waiter to observe no leader commits everyone staged
                // so far (its own frame included), then re-checks.
                q.leader = true;
                q = self.lead(stripe, q, window);
            }
        }
    }

    /// Commits one group as the stripe's leader. Called with the
    /// staging lock held and `leader` already set; returns with the
    /// staging lock re-held, `leader` cleared, and the group's verdict
    /// published (watermark advanced or per-ticket failures recorded).
    fn lead<'a>(
        &self,
        stripe: &'a Stripe,
        q: MutexGuard<'a, CommitQueue>,
        window: Duration,
    ) -> MutexGuard<'a, CommitQueue> {
        drop(q);
        // Take the I/O lock *before* draining: if the previous group's
        // fsync is still in flight we wait here with the staging lock
        // free, so frames staged meanwhile join *this* group instead of
        // the one after — group size tracks concurrency, not luck. Safe
        // against the staging→I/O order used by checkpoint/replay: only
        // a leader takes the locks in this order, at most one leader
        // runs per stripe (the `leader` flag), and checkpoint/replay only
        // take a stripe's I/O lock while holding its staging lock
        // *after* quiescing it — with `leader` false and staging held,
        // no new leader can exist to hold the I/O side. So the inverted
        // acquisition can never form a cycle.
        let mut io = crate::wal::lock(&stripe.io);
        let mut q = crate::wal::lock(&stripe.staging);

        // Linger up to `window` for the group to reach the size of the
        // *previous* group — the stripe's observed concurrency: the
        // followers the last commit woke are re-appending right now,
        // and waiting a fraction of an fsync lets them stage into this
        // group instead of forcing the next one. Every stage notifies
        // `staged_cv`, so the wait ends the moment the target is met —
        // in steady state the linger costs nothing — and the drain
        // below takes *everything* staged, so groups can always grow
        // past the target and the target adapts upward for free (and
        // downward after one timed-out window). An uncontended stripe
        // (no company staged, last group a singleton) skips the linger
        // entirely and pays nothing over a strict append, which never
        // lingers.
        if !window.is_zero() && (q.staged_frames() > 1 || q.last_group > 1) {
            let target = q.last_group.max(2) as usize;
            let deadline = Instant::now() + window;
            while q.staged_frames() < target {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                q = crate::wal::wait_timeout(&stripe.staged_cv, q, deadline - now);
            }
        }
        let buf = mem::take(&mut q.buf);
        let frame_events = mem::take(&mut q.frame_events);
        let frames = frame_events.len() as u64;
        debug_assert!(frames > 0, "a leader always has at least its own frame");
        q.last_group = frames;
        let first = q.drained + 1;
        let last = q.drained + frames;
        q.drained = last;
        drop(q);

        // The write itself runs under the I/O lock only — appenders
        // keep staging into the next group while we block in fsync.
        let outcome = self.write_group(&mut io, &buf);
        drop(io);

        let mut q = crate::wal::lock(&stripe.staging);
        // Periodic appends have no waiters: they were counted at
        // acknowledgement time, and a failure has no one to go to.
        let periodic = matches!(self.options.durability, Durability::Periodic { .. });
        match outcome {
            Ok(latency) => {
                // `max`, not assignment: the next leader can race ahead
                // and publish a higher watermark before we re-acquire
                // the staging lock; the watermark must never regress.
                q.durable = q.durable.max(last);
                if !periodic {
                    for &events in &frame_events {
                        self.counters.on_append(events);
                    }
                }
                self.counters.on_commit(frames, latency);
            }
            Err(err) => {
                // The stripe was poisoned and truncated back to the
                // last acknowledged byte inside `write_group`; no
                // waiter may be told "durable" past that point, so the
                // watermark stays put and every ticket in the group
                // gets the typed error.
                if periodic {
                    q.sticky_error = Some(err);
                } else {
                    for ticket in first..=last {
                        q.failures.insert(ticket, err.clone());
                    }
                }
            }
        }
        q.leader = false;
        stripe.durable_cv.notify_all();
        q
    }

    /// Drains a stripe's commit queue until it is empty and no leader
    /// is active, then returns the staging guard — with it held, no new
    /// frame can stage and no leader can start, so the caller
    /// (`checkpoint`, `replay`, `Drop`) sees a fully quiesced stripe.
    pub(crate) fn quiesce_stripe(&self, s: usize) -> MutexGuard<'_, CommitQueue> {
        let stripe = &self.stripes[s];
        let mut q = crate::wal::lock(&stripe.staging);
        loop {
            if q.leader {
                q = crate::wal::wait(&stripe.durable_cv, q);
            } else if q.staged_frames() > 0 {
                q.leader = true;
                q = self.lead(stripe, q, Duration::ZERO);
            } else {
                return q;
            }
        }
    }

    /// One background-syncer pass over a stripe: commit whatever is
    /// staged, without waiting for an idle pipeline.
    pub(crate) fn sync_stripe_once(&self, s: usize) {
        let stripe = &self.stripes[s];
        let q = crate::wal::lock(&stripe.staging);
        if !q.leader && q.staged_frames() > 0 {
            let mut q = q;
            q.leader = true;
            drop(self.lead(stripe, q, Duration::ZERO));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Fault, Op, SimFs};
    use crate::wal::{WalOptions, WalStore};
    use crate::{Store, StoreError};
    use std::sync::Arc;

    /// A store over `fs`, opened on the same root every time.
    fn open(fs: &Arc<SimFs>, options: WalOptions) -> WalStore {
        WalStore::open_on(fs.clone(), "wal", options).unwrap()
    }

    fn ev(instance: u64, name: &str) -> Record {
        Record::Events {
            instance,
            events: vec![name.to_owned()],
        }
    }

    fn one_stripe(durability: Durability) -> WalOptions {
        WalOptions {
            shards: 1,
            durability,
            ..WalOptions::default()
        }
    }

    /// Coalescing comes from sync latency: appends that stage while a
    /// leader syncs share the next group.
    #[test]
    fn coalesced_appends_share_fsyncs_across_threads() {
        let fs = SimFs::new(1);
        fs.set_sync_latency(Duration::from_millis(5));
        let options = one_stripe(Durability::Coalesced {
            max_wait: Duration::from_millis(250),
        });
        let store = Arc::new(open(&fs, options));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = &store;
                scope.spawn(move || store.append(&ev(t, &format!("e{t}"))).unwrap());
            }
        });
        let stats = store.stats();
        assert_eq!(stats.appends, 4);
        assert!(
            stats.fsyncs < 4,
            "4 concurrent appends must coalesce into fewer than 4 fsyncs, got {}",
            stats.fsyncs
        );
        assert!(stats.fsyncs >= 1);
        drop(store);
        let store = open(&fs.reboot(), options);
        assert_eq!(store.replay().unwrap().records.len(), 4);
    }

    #[test]
    fn strict_appends_from_many_threads_are_all_durable() {
        const THREADS: u64 = 4;
        const EACH: u64 = 25;
        let fs = SimFs::new(2);
        let options = one_stripe(Durability::Strict);
        let store = open(&fs, options);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..EACH {
                        store.append(&ev(t, &format!("e{i}"))).unwrap();
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.appends, THREADS * EACH);
        assert!(
            (1..=stats.appends).contains(&stats.fsyncs),
            "{} fsyncs for {} appends",
            stats.fsyncs,
            stats.appends
        );
        drop(store);
        // Every acknowledged record is back, each thread's in its order.
        let store = open(&fs.reboot(), options);
        let records = store.replay().unwrap().records;
        assert_eq!(records.len() as u64, THREADS * EACH);
        for t in 0..THREADS {
            let mine: Vec<&Record> = (records.iter())
                .filter(|r| matches!(r, Record::Events { instance, .. } if *instance == t))
                .collect();
            let sent: Vec<Record> = (0..EACH).map(|i| ev(t, &format!("e{i}"))).collect();
            assert_eq!(mine, sent.iter().collect::<Vec<_>>(), "thread {t}");
        }
    }

    #[test]
    fn periodic_acknowledges_before_durable_and_flushes_on_drop() {
        let fs = SimFs::new(3);
        // An interval far beyond the test: only the Drop flush syncs.
        let options = one_stripe(Durability::Periodic {
            interval: Duration::from_secs(3600),
        });
        let store = open(&fs, options);
        store.append(&ev(0, "a")).unwrap();
        store.append(&ev(0, "b")).unwrap();
        assert_eq!(store.stats().appends, 2, "acknowledged at staging time");
        assert_eq!(store.stats().fsyncs, 0, "nothing synced yet");
        drop(store);
        let store = open(&fs.reboot(), options);
        assert_eq!(
            store.replay().unwrap().records,
            vec![ev(0, "a"), ev(0, "b")],
            "drop flushed the staged window"
        );
    }

    #[test]
    fn periodic_background_syncer_drains_within_the_interval() {
        let fs = SimFs::new(4);
        let options = one_stripe(Durability::Periodic {
            interval: Duration::from_millis(2),
        });
        let store = open(&fs, options);
        store.append(&ev(0, "a")).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while store.stats().fsyncs == 0 {
            assert!(Instant::now() < deadline, "syncer never drained the queue");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn one_group_write_records_its_size_in_the_histogram() {
        let fs = SimFs::new(5);
        let options = one_stripe(Durability::Periodic {
            interval: Duration::from_secs(3600),
        });
        let store = open(&fs, options);
        for i in 0..4u64 {
            store.append(&ev(0, &format!("e{i}"))).unwrap();
        }
        // The first replay hands back the open-time scan (empty dir);
        // a re-scan quiesces the pipeline, so the four staged frames
        // commit as exactly one group write.
        assert_eq!(store.replay().unwrap().records.len(), 0);
        assert_eq!(store.replay().unwrap().records.len(), 4);
        let stats = store.stats();
        assert_eq!(stats.fsyncs, 1, "one fsync for the whole group");
        // Bucket 2 covers group sizes 4..8.
        assert_eq!(stats.group_size_hist[2], 1, "{:?}", stats.group_size_hist);
        assert!(stats.fsync_p50_micros() <= stats.fsync_p99_micros());
    }

    #[test]
    fn leader_failure_fails_every_waiter_then_the_stripe_repairs() {
        let fs = SimFs::new(6);
        let options = one_stripe(Durability::Coalesced {
            max_wait: Duration::from_millis(100),
        });
        let store = Arc::new(open(&fs, options));
        store.append(&ev(0, "durable")).unwrap();

        // Every group write fails, leaving a partial frame behind, until
        // the fault heals — however the racing appends below group
        // themselves, each one's group fails and each waiter must get
        // the typed error.
        fs.inject(Some(Op::Append), 0, Fault::ShortWrite, true);
        let failures: Vec<StoreError> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3u64)
                .map(|t| {
                    let store = &store;
                    scope.spawn(move || store.append(&ev(t, &format!("doomed{t}"))))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap().unwrap_err())
                .collect()
        });
        assert_eq!(failures.len(), 3, "every waiter in the group errored");
        for err in &failures {
            assert!(matches!(err, StoreError::Io(_)), "typed i/o error: {err:?}");
        }

        // The stripe repaired itself: the next append lands with no
        // partial frame ahead of it, and recovery sees no torn bytes.
        fs.heal();
        store.append(&ev(0, "after")).unwrap();
        drop(store);
        let store = open(&fs.reboot(), options);
        assert_eq!(store.stats().torn_bytes, 0, "no injected garbage survived");
        assert_eq!(
            store.replay().unwrap().records,
            vec![ev(0, "durable"), ev(0, "after")]
        );
    }

    #[test]
    fn periodic_sync_failure_latches_until_reopen() {
        let fs = SimFs::new(7);
        // Huge interval: the background syncer never runs, so the only
        // sync points are the deterministic quiesces below.
        let options = one_stripe(Durability::Periodic {
            interval: Duration::from_secs(3600),
        });
        let store = open(&fs, options);
        store.append(&ev(0, "durable")).unwrap();
        // The first replay hands back the open-time scan without
        // touching the pipeline; the second quiesces, committing
        // "durable" before the fault is armed.
        let _ = store.replay().unwrap();
        assert_eq!(store.replay().unwrap().records, vec![ev(0, "durable")]);

        // The next sync fails: "doomed" is acknowledged at staging
        // time, then the quiesce inside replay hits the injected write
        // error, truncates the stripe back to the acknowledged tail,
        // and latches the sticky error.
        fs.inject(Some(Op::Append), 0, Fault::ShortWrite, true);
        store.append(&ev(0, "doomed")).unwrap();
        assert_eq!(store.replay().unwrap().records, vec![ev(0, "durable")]);

        // Even with the fault gone, the stripe must stay failed: the
        // acknowledged "doomed" record is already lost, and a Periodic
        // appender that got one `Ok` never looks back. Pre-fix, the
        // `take()` meant only the first of these three observed the
        // error and the other two were silently acknowledged.
        fs.heal();
        for i in 0..3 {
            let err = store.append(&ev(0, &format!("latched{i}"))).unwrap_err();
            assert!(matches!(err, StoreError::Io(_)), "append {i}: {err:?}");
        }

        // Explicit reopen is the repair: it rescans the segments and
        // starts a fresh pipeline, and appends flow again.
        drop(store);
        let store = open(&fs, options);
        store.append(&ev(0, "after")).unwrap();
        let _ = store.replay().unwrap();
        assert_eq!(
            store.replay().unwrap().records,
            vec![ev(0, "durable"), ev(0, "after")]
        );
    }

    #[test]
    fn checkpoint_quiesces_a_relaxed_pipeline_before_cutting() {
        let fs = SimFs::new(8);
        let options = one_stripe(Durability::Periodic {
            interval: Duration::from_secs(3600),
        });
        let store = open(&fs, options);
        store.append(&ev(0, "staged")).unwrap();
        // The staged frame is acknowledged but not yet durable; the
        // checkpoint must flush it before choosing the cut, or its
        // acknowledged effect would be lost with the deleted segments.
        store.checkpoint("snap").unwrap();
        store.append(&ev(0, "after")).unwrap();
        drop(store);
        let store = open(&fs.reboot(), options);
        let replay = store.replay().unwrap();
        assert_eq!(replay.snapshot.as_deref(), Some("snap"));
        assert_eq!(replay.records, vec![ev(0, "after")]);
    }
}
