//! The fleet core: every state transition of a workflow fleet, and the
//! write-ahead ordering around it, written once.
//!
//! [`Runtime`](crate::Runtime) resolves ids and takes locks; for
//! everything that changes an instance, the timer queue or the store it
//! calls in here with the `&mut Instance` it locked, the timer mutex and
//! `Option<&dyn Store>`. Every operation has the same shape:
//!
//! 1. **validate** against the in-memory state (the cursor decides
//!    eligibility; nothing else is consulted);
//! 2. **append** the operation's record — the one [`append`] below, a
//!    no-op without a store. A failed append leaves the fleet exactly
//!    as it was: a stepped cursor is rewound to the history it had
//!    before the step, nothing was acknowledged;
//! 3. **commit** in memory (status, timer lists — the events are
//!    already in the cursor's history, the only list of them kept);
//! 4. **derived disarms**: timers the committed events settle leave the
//!    wheel. They write no record — replaying the events re-derives them.
//!
//! | operation | record(s), in append order |
//! |---|---|
//! | [`persist_deploy`] | `Deploy` |
//! | [`start`] | `TimerArm` (timed workflows only), then `Start` |
//! | [`fire`], [`fire_burst`] | one `Events` for everything stepped |
//! | [`advance`], per expiry | `TimerFire`, or `TimerCancel` if vacuous |
//! | [`cancel_timer`] | `TimerCancel` |
//! | [`try_complete`] | `Complete` |
//!
//! Recovery ([`adopt`], [`replay_timer_fire`], [`replay_timer_cancel`])
//! runs the same transitions without a store.
//!
//! The timer mutex sits at the bottom of the lock order. The core takes
//! it for a few instructions at a time — never across a store append,
//! never while waiting for anything else, and never around a call that
//! takes it itself ([`expire`] and [`Instance::commit`] do, in
//! [`settle`]; `std::sync::Mutex` is not re-entrant).

use crate::wheel::TimerWheel;
use crate::{
    ArmedTimer, DeployedTimer, Deployment, FireOutcome, Instance, InstanceId, InstanceStatus,
    RuntimeError,
};
use ctr::goal::Goal;
use ctr::symbol::Symbol;
use ctr_engine::scheduler::{Program, Scheduler};
use ctr_store::{Record, Store};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The fleet's timer wheel and logical clock. Wheel entries key back to
/// their instances; each instance's `timers` list holds the mirror
/// entry and is the per-instance source of truth — a wheel pop whose
/// instance entry is already gone is a stale expiry and is skipped.
#[derive(Default)]
pub(crate) struct TimerState {
    pub(crate) wheel: TimerWheel<(InstanceId, Symbol)>,
    /// The logical clock (ms). Never ticks by itself: [`advance`] moves
    /// it, and recovery restores it to the latest durable expiry
    /// watermark (`max` of replayed [`Record::TimerFire`] `at_ms`).
    pub(crate) clock_ms: u64,
}

/// Locks a mutex, recovering from poisoning: a panic mid-operation
/// either completed its journal append or left it untouched, so the
/// inner state is always valid.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The one place a record reaches the store. `record` is only built
/// with a store attached, so the in-memory path allocates nothing for
/// it.
fn append(store: Option<&dyn Store>, record: impl FnOnce() -> Record) -> Result<(), RuntimeError> {
    match store {
        Some(store) => store
            .append(&record())
            .map_err(|e| RuntimeError::Store(e.to_string())),
        None => Ok(()),
    }
}

/// Arms one timer: the wheel entry and the instance's mirror entry,
/// tied together by the token.
fn arm(
    inst: &mut Instance,
    id: InstanceId,
    tick: Symbol,
    due: u64,
    base: Option<Symbol>,
    ts: &mut TimerState,
) {
    let token = ts.wheel.arm(due, (id, tick));
    inst.timers.push(ArmedTimer {
        tick,
        due,
        token,
        base,
    });
}

/// Removes the pending timer for `tick`, if any, from the instance and
/// the wheel.
fn disarm(inst: &mut Instance, tick: Symbol, ts: &mut TimerState) {
    if let Some(armed) = inst.take_timer(tick) {
        ts.wheel.cancel(armed.token);
    }
}

/// Journals that `tick` left the wheel without firing. Needed wherever
/// replaying the event journal cannot re-derive the disarm: an API
/// cancel, and an expiry that found its tick no longer fireable.
fn persist_cancel(
    id: InstanceId,
    tick: &str,
    store: Option<&dyn Store>,
) -> Result<(), RuntimeError> {
    append(store, || Record::TimerCancel {
        instance: id,
        event: tick.to_owned(),
    })
}

impl Instance {
    /// Removes and returns the pending timer for `tick`, if any.
    fn take_timer(&mut self, tick: Symbol) -> Option<ArmedTimer> {
        let i = self.timers.iter().position(|t| t.tick == tick)?;
        Some(self.timers.remove(i))
    }

    /// The status the instance will have once what has been stepped is
    /// committed. Between operations it equals `status`.
    fn stepped_status(&self) -> InstanceStatus {
        if self.status == InstanceStatus::Completed || self.cursor.is_complete() {
            InstanceStatus::Completed
        } else {
            InstanceStatus::Running
        }
    }

    /// **Step**: advances the cursor by the event a client named, which
    /// stages it at the tail of the cursor's history, touching nothing
    /// else; the cursor resolves the name against its own program
    /// (`Scheduler::fire_named`). Returns the status after the step, or
    /// the typed refusal with the cursor untouched. Staged events are
    /// not part of the instance until [`Instance::commit`]; the `&mut`
    /// the runtime handed in keeps anyone from seeing them before.
    ///
    /// Event names come from clients, so the global interner is not
    /// consulted, let alone grown: a name the program does not have —
    /// never interned, or interned by some other deployment — is
    /// refused like any event that is not eligible now.
    fn step(&mut self, id: InstanceId, event: &str) -> Result<InstanceStatus, RuntimeError> {
        if self.stepped_status() == InstanceStatus::Completed {
            return Err(RuntimeError::AlreadyComplete(id));
        }
        if self.cursor.fire_named(event).is_none() {
            return Err(RuntimeError::NotEligible {
                event: event.to_owned(),
                eligible: self.eligible_names(),
            });
        }
        Ok(self.stepped_status())
    }

    /// **Commit**: makes the events staged past the first `from` of
    /// the history part of the instance, write-ahead. `record` (built
    /// from the stepped instance) must be durable first; if its append
    /// fails the cursor is rewound to its first `from` fires, so nothing
    /// half-fires — `Err(Store)`, or `Err(Journal)` should the history
    /// not retrace. Otherwise the status follows the cursor and the
    /// timers the events settle leave the wheel.
    fn commit(
        &mut self,
        from: usize,
        record: impl FnOnce(&Instance) -> Record,
        timers: &Mutex<TimerState>,
        store: Option<&dyn Store>,
    ) -> Result<(), RuntimeError> {
        if from == self.cursor.history_len() {
            return Ok(());
        }
        if let Err(e) = append(store, || record(self)) {
            self.cursor = self.cursor.rewound(from).ok_or_else(|| {
                RuntimeError::Journal(format!(
                    "rollback diverged: the first {from} fired events do not replay under the deployed program"
                ))
            })?;
            return Err(e);
        }
        self.status = self.stepped_status();
        settle(self, from, timers);
        Ok(())
    }
}

/// Derived timer bookkeeping after the history past `from` committed (or the
/// instance completed): a tick that fired by any path disarms itself,
/// a deadline whose base event fired is satisfied, and a completed
/// instance — it has no future — drains every pending timer. The timer
/// mutex is taken only if something is actually settled: every fire
/// would otherwise pay for it.
fn settle(inst: &mut Instance, from: usize, timers: &Mutex<TimerState>) {
    if inst.timers.is_empty() {
        return;
    }
    let done = inst.status == InstanceStatus::Completed;
    let cursor = &inst.cursor;
    let mut dead = Vec::new();
    inst.timers.retain(|t| {
        let mut fired = cursor.history_from(from);
        let settled = done || fired.any(|e| e == t.tick || Some(e) == t.base);
        if settled {
            dead.push(t.token);
        }
        !settled
    });
    if !dead.is_empty() {
        let mut ts = lock(timers);
        for token in dead {
            ts.wheel.cancel(token);
        }
    }
}

/// Commits the history past `from` as client-fired events: one
/// [`Record::Events`], whatever number of runs staged them.
fn commit_events(
    inst: &mut Instance,
    id: InstanceId,
    from: usize,
    timers: &Mutex<TimerState>,
    store: Option<&dyn Store>,
) -> Result<(), RuntimeError> {
    inst.commit(
        from,
        |stepped| Record::Events {
            instance: id,
            events: stepped.history_names(from),
        },
        timers,
        store,
    )
}

// --- Deploy and start -------------------------------------------------------

/// Parses and compiles a specification from its textual source into
/// its name and compiled goal. Inconsistent specifications are rejected
/// outright (Theorem 5.8 at deployment time: there would be nothing to
/// schedule), with the constraints that conflict named.
pub(crate) fn compile_source(source: &str) -> Result<(String, Goal), RuntimeError> {
    let spec = ctr_parser::parse_spec(source).map_err(|e| RuntimeError::Parse(e.to_string()))?;
    let compiled = spec
        .compile()
        .map_err(|e| RuntimeError::Compile(e.to_string()))?;
    if !compiled.is_consistent() {
        let conflict = (spec.conflict())
            .map_err(|e| RuntimeError::Compile(e.to_string()))?
            .unwrap_or_else(|| "no execution satisfies all constraints".to_owned());
        return Err(RuntimeError::Inconsistent {
            name: spec.name,
            conflict,
        });
    }
    Ok((spec.name, compiled.goal))
}

/// The write-ahead half of a deploy: the runtime inserts `deployment`
/// into its registry only once this returned `Ok`.
pub(crate) fn persist_deploy(
    deployment: &Deployment,
    store: Option<&dyn Store>,
) -> Result<(), RuntimeError> {
    append(store, || Record::Deploy {
        name: deployment.name.to_string(),
        goal: deployment.rendered.clone(),
    })
}

/// Starts `inst`, a fresh instance of `deployment`, under the id the
/// runtime allocated; the runtime publishes it once this returned `Ok`
/// (and never reuses the id if it did not).
///
/// Durability order is **arm-before-visible**: the instance's
/// [`Record::TimerArm`] goes to the store *before* its
/// [`Record::Start`]. A crash between the two leaves an orphan arm,
/// which recovery drops ([`adopt`]); the reverse order could recover an
/// instance whose deadlines were silently lost. One clock read fixes
/// the absolute dues, so the record and the wheel agree even if an
/// advance moves the clock in between.
pub(crate) fn start(
    inst: &mut Instance,
    id: InstanceId,
    deployment: &Deployment,
    timers: &Mutex<TimerState>,
    store: Option<&dyn Store>,
) -> Result<(), RuntimeError> {
    let declared = &deployment.timers;
    let clock = if declared.is_empty() {
        0
    } else {
        lock(timers).clock_ms
    };
    let due = |t: &DeployedTimer| clock.saturating_add(t.delay_ms);
    if !declared.is_empty() {
        append(store, || Record::TimerArm {
            instance: id,
            timers: declared
                .iter()
                .map(|t| (t.tick.as_str().to_owned(), due(t)))
                .collect(),
        })?;
    }
    append(store, || Record::Start {
        instance: id,
        workflow: deployment.name.to_string(),
    })?;
    if !declared.is_empty() {
        let mut ts = lock(timers);
        for t in declared {
            arm(inst, id, t.tick, due(t), t.base, &mut ts);
        }
    }
    Ok(())
}

// --- Firing -----------------------------------------------------------------

/// Fires one event: a step and a commit. Rejects events the compiled
/// schedule does not allow at this stage — no run-time constraint
/// checking, just structural eligibility.
pub(crate) fn fire(
    inst: &mut Instance,
    id: InstanceId,
    event: &str,
    timers: &Mutex<TimerState>,
    store: Option<&dyn Store>,
) -> Result<InstanceStatus, RuntimeError> {
    let from = inst.cursor.history_len();
    inst.step(id, event)?;
    commit_events(inst, id, from, timers, store)?;
    Ok(inst.status)
}

/// One run — a batch of events with stop-at-first-failure semantics —
/// in the flattened form [`fire_burst`] takes: each event says whether
/// it opens a new run.
pub(crate) fn one_run<S: AsRef<str>>(events: &[S]) -> impl Iterator<Item = (bool, &str)> + Clone {
    events
        .iter()
        .enumerate()
        .map(|(k, event)| (k == 0, event.as_ref()))
}

/// The outcomes of a burst none of whose runs was tried: each run's
/// first event carries `error`, the rest are skipped.
pub(crate) fn reject_runs<'a>(
    events: impl Iterator<Item = (bool, &'a str)>,
    error: &RuntimeError,
    out: &mut Vec<FireOutcome>,
) {
    out.extend(events.map(|(opens_run, _)| {
        if opens_run {
            FireOutcome::Rejected(error.clone())
        } else {
            FireOutcome::Skipped
        }
    }));
}

/// One instance's burst, the batched-firing primitive under
/// `fire_batch`, `fire_many` and `fire_runs`. `events` is the burst's
/// runs flattened ([`one_run`]); `out` receives one outcome per event,
/// appended after whatever it already holds (the outcomes of a wider
/// burst's earlier instances). A run commits its events in order and
/// stops at its first failure (the failing event says why, the rest of
/// the run is [`FireOutcome::Skipped`]) without stopping the runs after
/// it — exactly as if each run had been submitted alone. Everything the
/// burst stepped reaches the store through **one** append.
///
/// The burst is consequently one commit unit: if that append fails,
/// every run rolls back and reports `Rejected(Store)` on its first
/// event ([`reject_runs`]) — nothing was acknowledged, so no caller can
/// have observed the discarded prefix. `Err` is reserved for a rollback
/// that itself finds the history unreplayable; `out` may then hold part
/// of this burst's outcomes past its length on entry, which the caller
/// discards.
pub(crate) fn fire_burst<'a>(
    inst: &mut Instance,
    id: InstanceId,
    events: impl Iterator<Item = (bool, &'a str)> + Clone,
    out: &mut Vec<FireOutcome>,
    timers: &Mutex<TimerState>,
    store: Option<&dyn Store>,
) -> Result<(), RuntimeError> {
    let (from, first) = (inst.cursor.history_len(), out.len());
    let mut stopped = false;
    for (opens_run, event) in events.clone() {
        stopped &= !opens_run;
        out.push(if stopped {
            FireOutcome::Skipped
        } else {
            match inst.step(id, event) {
                Ok(status) => FireOutcome::Fired(status),
                Err(e) => {
                    stopped = true;
                    FireOutcome::Rejected(e)
                }
            }
        });
    }
    match commit_events(inst, id, from, timers, store) {
        Err(e @ RuntimeError::Store(_)) => {
            out.truncate(first);
            reject_runs(events, &e, out);
            Ok(())
        }
        other => other,
    }
}

/// Probes silent completion: tries to finish the instance through
/// silent steps only. A silent completion is the one status change
/// replaying the event journal cannot reproduce, so it persists its own
/// [`Record::Complete`] — durably, before the status flips.
pub(crate) fn try_complete(
    inst: &mut Instance,
    id: InstanceId,
    timers: &Mutex<TimerState>,
    store: Option<&dyn Store>,
) -> Result<InstanceStatus, RuntimeError> {
    if inst.status == InstanceStatus::Completed {
        return Ok(InstanceStatus::Completed);
    }
    // Silent steps are fired on a copy: they are no events, so no
    // record carries them and they must not leak into the instance's
    // cursor either — it always is exactly what replaying its history
    // would produce. A silent *choice* is re-resolved after restore,
    // so completion is recorded in the status instead. The copy is
    // made only once there is a silent step to fire.
    let mut probe: Option<Scheduler<Arc<Program>>> = None;
    loop {
        let at = probe.as_ref().unwrap_or(&inst.cursor);
        if at.is_complete() {
            break;
        }
        let program = at.program();
        let Some(silent) = at
            .eligible()
            .iter()
            .find(|c| program.event(c.node).is_none())
        else {
            return Ok(inst.status);
        };
        let node = silent.node;
        probe.get_or_insert_with(|| inst.cursor.clone()).fire(node);
    }
    append(store, || Record::Complete { instance: id })?;
    inst.status = InstanceStatus::Completed;
    settle(inst, inst.cursor.history_len(), timers);
    Ok(InstanceStatus::Completed)
}

// --- Timers -----------------------------------------------------------------

/// Explicitly disarms a pending timer by its tick event name,
/// journaling [`Record::TimerCancel`] write-ahead. Unlike the derived
/// disarms an API cancel is not reproducible from the event journal,
/// so it must be its own record.
pub(crate) fn cancel_timer(
    inst: &mut Instance,
    id: InstanceId,
    event: &str,
    timers: &Mutex<TimerState>,
    store: Option<&dyn Store>,
) -> Result<(), RuntimeError> {
    let Some(tick) = Symbol::try_get(event).filter(|s| inst.timers.iter().any(|t| t.tick == *s))
    else {
        return Err(RuntimeError::UnknownTimer {
            instance: id,
            event: event.to_owned(),
        });
    };
    persist_cancel(id, event, store)?;
    disarm(inst, tick, &mut lock(timers));
    Ok(())
}

/// One expiry (**fire-is-commit**): fires `tick`, already taken off
/// the instance's list, as an ordinary journal event, write-ahead as
/// [`Record::TimerFire`] (whose `at_ms` also restores the clock
/// watermark at recovery). Returns whether it fired: a tick that is no
/// longer fireable — the instance completed, or its deadline's
/// or-branch was committed away without the derived disarm catching
/// it — resolves vacuously, journaled as [`Record::TimerCancel`]
/// because the advance that discovered it is not itself replayable. On
/// `Err` nothing was journaled and the caller re-arms.
fn expire(
    inst: &mut Instance,
    id: InstanceId,
    tick: Symbol,
    at_ms: u64,
    timers: &Mutex<TimerState>,
    store: Option<&dyn Store>,
) -> Result<bool, RuntimeError> {
    let from = inst.cursor.history_len();
    if inst.stepped_status() != InstanceStatus::Running || !inst.cursor.fire_event(tick) {
        persist_cancel(id, tick.as_str(), store)?;
        return Ok(false);
    }
    inst.commit(
        from,
        |_| Record::TimerFire {
            instance: id,
            event: tick.as_str().to_owned(),
            at_ms,
        },
        timers,
        store,
    )?;
    Ok(true)
}

/// Advances the logical clock to `to_ms`, expiring every timer due on
/// the way in deterministic `(due, instance, tick)` order; returns the
/// `(instance, tick)` pairs that fired. A clock already at or past
/// `to_ms` is left alone.
///
/// The expired batch is popped under the timer state alone. Each expiry
/// then runs inside `visit`, the runtime's lookup: it calls the closure
/// it is handed on instance `id` under whatever lock guards that
/// instance, or not at all if the id is unknown. A timer disarmed
/// between pop and visit is skipped — the instance's own list is the
/// source of truth, and taking the timer off it makes each expiry
/// exactly-once.
///
/// After a store error nothing more fires: the failed expiry and the
/// rest of the popped batch are re-armed untouched (the wheel no longer
/// holds any of them — without this the unfired tail would silently
/// never expire), and the clock stops at the last expiry that did
/// commit. The wheel has consumed the time all the same, so the tail
/// is due at once: the next advance that moves the wheel at all
/// retries exactly it.
pub(crate) fn advance(
    to_ms: u64,
    timers: &Mutex<TimerState>,
    store: Option<&dyn Store>,
    mut visit: impl FnMut(InstanceId, &mut dyn FnMut(&mut Instance)),
) -> Result<Vec<(InstanceId, String)>, RuntimeError> {
    let mut due_now = lock(timers).wheel.advance_to(to_ms);
    // Wheel order is (due, arm order); re-sort ties by (instance,
    // tick name) so expiry order is independent of arm history
    // (snapshot restore re-arms in sorted order, replay in journal
    // order — the fleet must expire identically either way).
    due_now.sort_by(|a, b| (a.0, a.1 .0, a.1 .1.as_str()).cmp(&(b.0, b.1 .0, b.1 .1.as_str())));
    let mut fired = Vec::new();
    let mut reached = 0;
    let mut failed = None;
    for (due, (id, tick)) in due_now {
        visit(id, &mut |inst| {
            let Some(armed) = inst.take_timer(tick) else {
                return;
            };
            if failed.is_none() {
                match expire(inst, id, tick, due, timers, store) {
                    Ok(true) => {
                        fired.push((id, tick.as_str().to_owned()));
                        reached = due;
                    }
                    Ok(false) => {}
                    Err(e) => failed = Some(e),
                }
            }
            if failed.is_some() {
                arm(inst, id, tick, armed.due, armed.base, &mut lock(timers));
            }
        });
    }
    if failed.is_none() {
        reached = to_ms;
    }
    let mut ts = lock(timers);
    ts.clock_ms = ts.clock_ms.max(reached);
    drop(ts);
    failed.map_or(Ok(fired), Err)
}

// --- Recovery ---------------------------------------------------------------

/// Re-arms a recovered instance from the absolute dues (ms) durable
/// state holds for it — a buffered [`Record::TimerArm`] or a snapshot's
/// `timer` lines — exactly as the pre-crash start armed them. Only arms
/// whose tick `deployment` declares are kept: an orphan arm — its start
/// never became durable — is dropped, including when a later instance
/// came to reuse its id.
pub(crate) fn adopt<S: AsRef<str>>(
    inst: &mut Instance,
    id: InstanceId,
    deployment: &Deployment,
    arms: &[(S, u64)],
    ts: &mut TimerState,
) {
    for t in &deployment.timers {
        let named = |(name, _): &&(S, u64)| name.as_ref() == t.tick.as_str();
        if let Some(&(_, due)) = arms.iter().find(named) {
            arm(inst, id, t.tick, due, t.base, ts);
        }
    }
}

/// Replays a durable [`Record::TimerFire`]: restores the clock
/// watermark and fires the tick exactly as the pre-crash advance did.
pub(crate) fn replay_timer_fire(
    inst: &mut Instance,
    id: InstanceId,
    event: &str,
    at_ms: u64,
    timers: &Mutex<TimerState>,
) -> Result<(), RuntimeError> {
    let tick = {
        let mut ts = lock(timers);
        ts.clock_ms = ts.clock_ms.max(at_ms);
        let tick = Symbol::try_get(event).ok_or_else(|| {
            RuntimeError::Journal(format!(
                "timer fire for instance {id} references unknown event `{event}`"
            ))
        })?;
        disarm(inst, tick, &mut ts);
        tick
    };
    if !expire(inst, id, tick, at_ms, timers, None)? {
        return Err(RuntimeError::Journal(format!(
            "instance {id}: replaying timer fire `{event}`: not eligible"
        )));
    }
    Ok(())
}

/// Replays a durable [`Record::TimerCancel`]. Lenient about an
/// already-absent timer: the record may follow a derived disarm the
/// event replay has reproduced on its own.
pub(crate) fn replay_timer_cancel(inst: &mut Instance, event: &str, ts: &mut TimerState) {
    if let Some(tick) = Symbol::try_get(event) {
        disarm(inst, tick, ts);
    }
}
