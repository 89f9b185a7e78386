#![warn(missing_docs)]

//! # ctr-runtime — workflow instance management
//!
//! The operational layer a workflow management system puts on top of the
//! paper's machinery: **deploy** a specification (compiling it once,
//! rejecting inconsistent ones — Theorem 5.8 at deployment time), **start**
//! instances, **fire** events as the outside world reports them, and
//! **snapshot/restore** everything as plain text.
//!
//! Instances are **event-sourced**: the only persistent state is the
//! sequence of fired events, and an instance keeps it once — as the
//! history of its **cursor** over its deployment's `Arc`-shared compiled
//! [`Program`]. The cursor is materialized at [`Runtime::start`] and
//! advanced in place on every [`Runtime::fire`]; [`Runtime::journal`]
//! and the snapshot read the events back off it. Only
//! [`Runtime::restore`] and [`Runtime::open`] build a cursor by replay,
//! both through one routine (a snapshot's lines and the log's records
//! are adopted, re-fired and completed by the same calls, so durable
//! state meets one set of checks in whichever form it comes back) — so
//! steady-state work per fire is constant in the history's length
//! ([`Runtime::replayed_steps`] counts the replay work and stays at zero
//! outside recovery). Replay is deterministic: the compiled scheduler
//! resolves event-to-node ambiguity by a fixed rule, so replaying the
//! events from scratch always reproduces the cursor. This keeps crash
//! recovery trivial (replay) and the snapshot format human-readable: the
//! compiled goal in its concrete syntax plus one line of events per
//! instance.
//!
//! A [`Runtime`] is one cloneable `Send + Sync` handle over one sharded
//! instance table (the [`shared`] module): every verb takes `&self`, an
//! operation on a known instance locks that instance alone, and recovery
//! adopts straight into the table.
//!
//! ```
//! use ctr_runtime::Runtime;
//!
//! let rt = Runtime::new();
//! rt.deploy_source("workflow pay { graph invoice * (approve + reject) * file; }").unwrap();
//! let id = rt.start("pay").unwrap();
//! assert_eq!(rt.eligible(id).unwrap(), vec!["invoice".to_owned()]);
//! rt.fire(id, "invoice").unwrap();
//! rt.fire(id, "approve").unwrap();
//! rt.fire(id, "file").unwrap();
//! assert!(rt.is_complete(id).unwrap());
//! ```

pub mod enact;
#[cfg(test)]
mod faults;
mod fleet;
pub mod shared;
pub mod stats;
pub mod wheel;

use ctr::goal::Goal;
use ctr::timer::{parse_tick, TimerKind};
use ctr_engine::scheduler::{Program, Scheduler};
use ctr_store::Record;
use fleet::lock;
use shared::Inner;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub use ctr::symbol::Symbol;
pub use ctr_store::{Durability, MemStore, Store, StoreError, StoreStats, WalOptions, WalStore};
pub use enact::{
    AttemptOutcome, AttemptRecord, Backoff, ChoicePolicy, EnactError, EnactReport, Enactor, Fault,
    FaultPlan, Handler, RetryPolicy,
};
pub use shared::BurstScratch;
pub use stats::{simulate, Simulation};
pub use wheel::{TimerToken, TimerWheel};

/// Identifier of a running instance.
pub type InstanceId = u64;

/// Errors from the runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// The specification failed to parse.
    Parse(String),
    /// The specification failed to compile (e.g. not unique-event).
    Compile(String),
    /// The specification is inconsistent: it was rejected at deployment.
    Inconsistent {
        /// The workflow's name.
        name: String,
        /// Which of its constraints conflict, as
        /// [`WorkflowSpec::conflict`](ctr_workflow::WorkflowSpec::conflict)
        /// names them.
        conflict: String,
    },
    /// No workflow deployed under this name.
    UnknownWorkflow(String),
    /// No instance with this id.
    UnknownInstance(InstanceId),
    /// The event is not eligible at the instance's current stage.
    NotEligible {
        /// The rejected event.
        event: String,
        /// What the pro-active scheduler would accept instead.
        eligible: Vec<String>,
    },
    /// The instance already completed.
    AlreadyComplete(InstanceId),
    /// A snapshot could not be decoded.
    Snapshot(String),
    /// The durable store rejected an operation (I/O failure or
    /// unrecoverable corruption). The in-memory state it guards is
    /// rolled back: a failed persist never leaves a half-committed fire.
    Store(String),
    /// A journal failed to replay against its deployed program — the
    /// journal (or the program it was validated against) is corrupt.
    Journal(String),
    /// Every instance id that has a successor is taken: nothing can be
    /// started, and nothing was appended or armed for the refused call.
    InstanceIdsExhausted,
    /// No pending timer with this tick event on the instance.
    UnknownTimer {
        /// The instance polled or cancelled against.
        instance: InstanceId,
        /// The tick event that is not pending.
        event: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Parse(e) => write!(f, "parse error: {e}"),
            RuntimeError::Compile(e) => write!(f, "compile error: {e}"),
            RuntimeError::Inconsistent { name, conflict } => {
                write!(
                    f,
                    "workflow `{name}` is inconsistent and cannot be deployed: {conflict}"
                )
            }
            RuntimeError::UnknownWorkflow(name) => write!(f, "no workflow named `{name}`"),
            RuntimeError::UnknownInstance(id) => write!(f, "no instance #{id}"),
            RuntimeError::NotEligible { event, eligible } => write!(
                f,
                "event `{event}` is not eligible now (eligible: {})",
                eligible.join(", ")
            ),
            RuntimeError::AlreadyComplete(id) => write!(f, "instance #{id} already completed"),
            RuntimeError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            RuntimeError::Store(e) => write!(f, "store error: {e}"),
            RuntimeError::Journal(e) => write!(f, "journal error: {e}"),
            RuntimeError::InstanceIdsExhausted => {
                write!(f, "instance ids exhausted: no id left to start under")
            }
            RuntimeError::UnknownTimer { instance, event } => {
                write!(f, "instance #{instance} has no pending timer `{event}`")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Lifecycle of an instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstanceStatus {
    /// Events remain to fire.
    Running,
    /// The workflow ran to completion.
    Completed,
}

impl fmt::Display for InstanceStatus {
    /// The snapshot's status tag: `running` / `completed`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InstanceStatus::Running => "running",
            InstanceStatus::Completed => "completed",
        })
    }
}

/// Per-event result of a batched fire ([`Runtime::fire_batch`],
/// [`Runtime::fire_many`], [`Runtime::fire_runs`]).
///
/// A batch commits its events in order and stops at the first failure:
/// the committed prefix is journaled exactly as if fired individually,
/// the failing event reports why, and everything after it is skipped
/// untried. The outcome vector always has one entry per input event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FireOutcome {
    /// The event fired; the instance's status immediately after it.
    Fired(InstanceStatus),
    /// The event was rejected (not eligible, instance already complete,
    /// or unknown instance in [`Runtime::fire_many`]); the batch
    /// stopped here.
    Rejected(RuntimeError),
    /// A preceding event of the same instance's batch failed; this one
    /// was never attempted.
    Skipped,
}

/// One timer declared by a deployment's compiled goal: the synthetic
/// tick event carries its own delay in its name (`base@after30000`),
/// parsed once at deploy time. `base` is `Some` exactly for deadline
/// ticks — the event whose firing structurally satisfies the deadline
/// and therefore disarms it.
pub(crate) struct DeployedTimer {
    pub(crate) tick: Symbol,
    pub(crate) delay_ms: u64,
    pub(crate) base: Option<Symbol>,
}

impl DeployedTimer {
    /// The timer table of a goal or program whose events are `events`:
    /// one entry per tick event, sorted by tick name.
    pub(crate) fn table(events: impl IntoIterator<Item = Symbol>) -> Vec<DeployedTimer> {
        let mut timers: Vec<DeployedTimer> = events
            .into_iter()
            .filter_map(|tick| {
                let parsed = parse_tick(tick.as_str())?;
                Some(DeployedTimer {
                    tick,
                    delay_ms: parsed.delay_ms,
                    base: (parsed.kind == TimerKind::Deadline).then(|| Symbol::intern(parsed.base)),
                })
            })
            .collect();
        timers.sort_by(|a, b| a.tick.as_str().cmp(b.tick.as_str()));
        timers.dedup_by_key(|t| t.tick);
        timers
    }
}

pub(crate) struct Deployment {
    /// The name deployed under, shared with every instance started from
    /// this deployment.
    pub(crate) name: Arc<str>,
    /// The compiled goal rendered once in its concrete syntax — the
    /// exact bytes both the snapshot line and the durable deploy record
    /// use. Caching the render keeps snapshots (which compaction puts
    /// on a hot-ish path) from re-walking the goal tree per call.
    pub(crate) rendered: String,
    /// The scheduling arena, shared (`Arc`) with every instance cursor.
    pub(crate) program: Arc<Program>,
    /// Timers to arm for every new instance, sorted by tick name.
    pub(crate) timers: Vec<DeployedTimer>,
}

impl Deployment {
    /// Compiles a goal into a deployment, caching its rendered text and
    /// scanning its event alphabet once for timer ticks. A goal whose
    /// rendered text the parser refuses (it prints deeper than the parser
    /// reads) is refused here: recovery reads that text back, so accepting
    /// it would leave a store no later open gets past.
    pub(crate) fn new(name: &str, compiled: Goal) -> Result<Deployment, RuntimeError> {
        let program =
            Program::compile(&compiled).map_err(|e| RuntimeError::Compile(e.to_string()))?;
        let rendered = compiled.to_string();
        ctr_parser::parse_goal(&rendered).map_err(|e| {
            RuntimeError::Compile(format!("the compiled goal does not read back: {e}"))
        })?;
        // Instances are fired by name: index the names now, not under
        // the first client's instance lock.
        program.index_names();
        Ok(Deployment {
            name: name.into(),
            rendered,
            program: Arc::new(program),
            timers: DeployedTimer::table(compiled.events()),
        })
    }

    /// Appends this deployment's snapshot line: the same rendered goal
    /// its durable deploy record carries.
    pub(crate) fn snapshot_line(&self, out: &mut String, name: &str) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "workflow {name} := {}", self.rendered);
    }

    /// Bytes [`Deployment::snapshot_line`] will append for `name`.
    pub(crate) fn snapshot_len(&self, name: &str) -> usize {
        "workflow  := \n".len() + name.len() + self.rendered.len()
    }
}

/// One pending timer of an instance: the tick event, its absolute due
/// on the runtime's logical clock, the wheel token that disarms it, and
/// (for deadlines) the base event whose firing satisfies it.
pub(crate) struct ArmedTimer {
    pub(crate) tick: Symbol,
    pub(crate) due: u64,
    pub(crate) token: TimerToken,
    pub(crate) base: Option<Symbol>,
}

/// One running instance: a cursor, whose history is the instance's
/// journal (sole persistent state). Its transitions live in the `fleet`
/// module; the [`Runtime`]'s table keeps each `Instance` behind its own
/// lock.
pub(crate) struct Instance {
    /// The deployment's name ([`Deployment::name`], shared).
    pub(crate) workflow: Arc<str>,
    pub(crate) status: InstanceStatus,
    /// Cursor over the program this instance pinned at start (the
    /// cursor co-owns it). Its history is the only list of the
    /// instance's fired events: the journal accessors, the snapshot
    /// line and the durable records are read off it, and the
    /// store-failure rollback rewinds it.
    pub(crate) cursor: Scheduler<Arc<Program>>,
    /// Timers still pending for this instance (few per instance; linear
    /// scans). The wheel holds the mirror entry; `token` ties the two.
    pub(crate) timers: Vec<ArmedTimer>,
}

impl Instance {
    /// A fresh instance of `deployment`: its cursor is a copy of the
    /// program's initial one.
    pub(crate) fn new(deployment: &Deployment) -> Instance {
        let cursor = Scheduler::new(Arc::clone(&deployment.program));
        let status = if cursor.is_complete() {
            InstanceStatus::Completed
        } else {
            InstanceStatus::Running
        };
        Instance {
            workflow: Arc::clone(&deployment.name),
            status,
            cursor,
            timers: Vec::new(),
        }
    }

    /// Observable eligible events, deduplicated and sorted by name —
    /// allocation-free apart from the returned `Vec` (symbols resolve
    /// without copying). Timer ticks are filtered out: they fire
    /// through [`Runtime::advance`], never from clients, and the
    /// pending set is surfaced by [`Runtime::pending_timers`] instead.
    pub(crate) fn eligible_symbols(&self) -> Vec<Symbol> {
        let mut events: Vec<Symbol> = self
            .cursor
            .eligible()
            .iter()
            .filter_map(|c| self.cursor.program().event(c.node))
            .filter_map(ctr::term::Atom::as_event)
            .filter(|s| parse_tick(s.as_str()).is_none())
            .collect();
        events.sort_unstable_by_key(|s| s.as_str());
        events.dedup();
        events
    }

    /// [`Instance::eligible_symbols`], materialized as owned strings.
    pub(crate) fn eligible_names(&self) -> Vec<String> {
        self.eligible_symbols()
            .into_iter()
            .map(|s| s.as_str().to_owned())
            .collect()
    }

    /// The events fired from the `from`-th on, as owned strings.
    pub(crate) fn history_names(&self, from: usize) -> Vec<String> {
        let fired = self.cursor.history_from(from);
        fired.map(|s| s.as_str().to_owned()).collect()
    }

    /// Pending timers as `(tick event, absolute due ms)` pairs, sorted
    /// by tick name.
    pub(crate) fn pending_timers(&self) -> Vec<(String, u64)> {
        let mut pending: Vec<(String, u64)> = self
            .timers
            .iter()
            .map(|t| (t.tick.as_str().to_owned(), t.due))
            .collect();
        pending.sort();
        pending
    }

    /// Appends this instance's snapshot line (shared serialization path;
    /// see [`Deployment::snapshot_line`]). Writes the history's symbols
    /// straight into `out` — no intermediate `Vec` or `join` allocation
    /// per instance, which matters once compaction snapshots a large
    /// fleet on the hot path.
    pub(crate) fn snapshot_line(&self, out: &mut String, id: InstanceId) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "instance {id} of {} [{}]: ",
            self.workflow, self.status
        );
        for (i, event) in self.cursor.history_from(0).enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(event.as_str());
        }
        out.push('\n');
        // Pending timers follow their instance line, sorted by tick
        // name — symbol ids differ across processes, names don't, and
        // snapshots must be byte-deterministic.
        let mut pending: Vec<&ArmedTimer> = self.timers.iter().collect();
        pending.sort_by(|a, b| a.tick.as_str().cmp(b.tick.as_str()));
        for t in pending {
            let _ = writeln!(out, "timer {id} {} due {}", t.tick.as_str(), t.due);
        }
    }

    /// Bytes [`Instance::snapshot_line`] will append for `id` (the
    /// status is sized at its longer variant; a one-byte-per-instance
    /// overshoot is fine for a reserve hint).
    pub(crate) fn snapshot_len(&self, id: InstanceId) -> usize {
        let id_digits = if id == 0 { 1 } else { id.ilog10() as usize + 1 };
        "instance  of  [completed]: \n".len()
            + id_digits
            + self.workflow.len()
            + self
                .cursor
                .history_from(0)
                .map(|s| s.as_str().len() + 1)
                .sum::<usize>()
            + self
                .timers
                .iter()
                .map(|t| "timer   due \n".len() + id_digits + t.tick.as_str().len() + 20)
                .sum::<usize>()
    }
}

/// Renders the canonical snapshot text — the single serialization path
/// under [`Runtime::snapshot`] and [`Runtime::checkpoint`]. The buffer
/// is pre-sized in one counting pass, so a large fleet's snapshot does
/// not grow through repeated doublings.
pub(crate) fn render_snapshot<'a, D, I>(deployments: D, instances: I) -> String
where
    D: Iterator<Item = (&'a String, &'a Deployment)> + Clone,
    I: Iterator<Item = (InstanceId, &'a Instance)> + Clone,
{
    let mut len = SNAPSHOT_HEADER.len() + 1;
    for (name, d) in deployments.clone() {
        len += d.snapshot_len(name);
    }
    for (id, inst) in instances.clone() {
        len += inst.snapshot_len(id);
    }
    let mut out = String::with_capacity(len);
    out.push_str(SNAPSHOT_HEADER);
    out.push('\n');
    for (name, d) in deployments {
        d.snapshot_line(&mut out, name);
    }
    for (id, inst) in instances {
        inst.snapshot_line(&mut out, id);
    }
    out
}

/// The workflow runtime: deployed definitions plus running instances,
/// behind one cloneable, `Send + Sync` handle — clones share the
/// runtime.
///
/// Every verb takes `&self`. The instances live in one sharded table
/// (the [`shared`] module has the table and the lock order): an
/// operation on a known instance takes that instance's lock and no
/// other, so clients firing events on different instances share
/// nothing they write.
#[derive(Clone, Default)]
pub struct Runtime {
    pub(crate) inner: Arc<Inner>,
}

/// [`Runtime`]'s former name. It exists for `benchmark/` alone, which
/// still spells it; nothing in this workspace does.
pub type SharedRuntime = Runtime;

impl Runtime {
    /// An empty runtime.
    pub fn new() -> Runtime {
        Runtime::default()
    }

    /// An empty runtime persisting through `store`. Anything the store
    /// already holds is ignored — use [`Runtime::open`] to recover.
    pub fn with_store(store: Arc<dyn Store>) -> Runtime {
        let mut inner = Inner::default();
        inner.store = Some(store);
        Runtime {
            inner: Arc::new(inner),
        }
    }

    /// Recovers a runtime from everything `store` retained — the latest
    /// checkpoint snapshot first, then every post-checkpoint record in
    /// append order, each re-validated exactly like a live call (replayed
    /// fires count toward [`Runtime::replayed_steps`]). Instances are
    /// adopted straight into the instance table. The store is attached
    /// only after replay, so recovery never re-appends its own input.
    /// Fails with [`RuntimeError::Store`] if the store cannot be read, or
    /// a replay-level error if its contents do not re-validate.
    pub fn open(store: Arc<dyn Store>) -> Result<Runtime, RuntimeError> {
        let replay = store
            .replay()
            .map_err(|e| RuntimeError::Store(e.to_string()))?;
        let mut inner = match &replay.snapshot {
            Some(snapshot) => Inner::restore(snapshot)?,
            None => Inner::default(),
        };
        inner.replay(replay.records)?;
        inner.store = Some(store);
        Ok(Runtime {
            inner: Arc::new(inner),
        })
    }

    /// Restores a runtime from a snapshot. Only the reader of the text:
    /// workflow lines are deployed and instance lines adopted, replayed
    /// and completed through the calls [`Runtime::open`] makes for the
    /// log's records, so one set of checks validates both. An instance's
    /// `timer` lines directly follow its line and must be what is pending
    /// on it once its events replayed — an undeclared tick, an ordinary
    /// event, a repeated or misplaced line is a [`RuntimeError::Snapshot`].
    pub fn restore(snapshot: &str) -> Result<Runtime, RuntimeError> {
        Ok(Runtime {
            inner: Arc::new(Inner::restore(snapshot)?),
        })
    }

    /// The attached store, if any (`stats.rs` surfaces its counters as
    /// [`StoreStats`]).
    pub(crate) fn store(&self) -> Option<&dyn Store> {
        self.inner.store.as_deref()
    }

    /// Deploys a specification from its textual source. Compiles the
    /// graph, triggers, sub-workflows, and constraints once, outside any
    /// lock; inconsistent specifications are rejected outright (there
    /// would be nothing to schedule).
    pub fn deploy_source(&self, source: &str) -> Result<String, RuntimeError> {
        let (name, goal) = fleet::compile_source(source)?;
        self.deploy_compiled(&name, goal)?;
        Ok(name)
    }

    /// Deploys an already-compiled goal under a name. Compilation runs
    /// outside any lock; the registry write lock covers the durable
    /// deploy append *and* the insert, so the record is durable before
    /// the registry exposes the deployment — and a fleet frozen under
    /// the registry read lock ([`Runtime::checkpoint`]) has no in-flight
    /// deploy whose record could predate the checkpoint cut yet miss its
    /// snapshot.
    ///
    /// Re-deploying a name only affects instances started afterwards:
    /// running instances keep (and share, via `Arc`) the program they
    /// were started with.
    pub fn deploy_compiled(&self, name: &str, compiled: Goal) -> Result<(), RuntimeError> {
        self.inner.deploy_compiled(name, compiled)
    }

    /// Deployed workflow names.
    pub fn workflows(&self) -> Vec<String> {
        self.inner.registry().keys().cloned().collect()
    }

    /// Starts a new instance of a deployed workflow, materializing its
    /// cursor once and arming its timers at `clock + delay`. The cursor
    /// shares the deployment's compiled program.
    ///
    /// Durability order is **arm-before-visible**: the instance's
    /// [`Record::TimerArm`] goes to the store *before* its
    /// [`Record::Start`]. A crash between the two leaves an orphan arm,
    /// which recovery drops harmlessly; the reverse order could recover
    /// an instance whose deadlines were silently lost. Both appends, the
    /// arming *and* the publish happen under the destination shard's
    /// gate, so an event fired on the instance lands in the log strictly
    /// after its start, and a fleet frozen by [`Runtime::checkpoint`]
    /// (which holds every gate) has no in-flight start whose record
    /// could predate the checkpoint cut yet miss its snapshot.
    ///
    /// A failed persist burns the allocated id: ids only ever need to be
    /// unique and monotonic, and an orphan arm must not meet a later
    /// start. An id with no successor is never handed out — recovery
    /// would refuse its start record — so the counter stops at
    /// `u64::MAX` and the call fails with
    /// [`RuntimeError::InstanceIdsExhausted`] before any append.
    pub fn start(&self, workflow: &str) -> Result<InstanceId, RuntimeError> {
        let deployment = self.inner.deployment(workflow)?;
        let id = self
            .inner
            .next_id
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |id| id.checked_add(1))
            .map_err(|_| RuntimeError::InstanceIdsExhausted)?;
        let mut instance = Instance::new(&deployment);
        let shard = self.inner.shard(id);
        let mut gate = lock(&shard.gate);
        fleet::start(
            &mut instance,
            id,
            &deployment,
            &self.inner.timers,
            self.store(),
        )?;
        shard.publish(&mut gate, id, instance);
        Ok(id)
    }

    /// Running and completed instance ids, ascending.
    pub fn instances(&self) -> Vec<InstanceId> {
        let mut ids: Vec<InstanceId> = Vec::new();
        for (index, shard) in self.inner.shards.iter().enumerate() {
            shard.for_each(index, &lock(&shard.gate), |id, _| ids.push(id));
        }
        ids.sort_unstable();
        ids
    }

    /// Total events re-fired to materialize cursors. Zero in steady
    /// state — `eligible`/`fire`/`try_complete` use the instance's
    /// cursor as it stands; only [`Runtime::restore`] and
    /// [`Runtime::open`] replay.
    pub fn replayed_steps(&self) -> u64 {
        self.inner.replayed
    }

    /// The observable events eligible to fire now, deduplicated and
    /// sorted — the pro-active scheduler's answer to "what can happen
    /// next?" (§4). Reads the cursor: O(eligible), not O(journal). The
    /// answer is a snapshot: another client may commit a branch before
    /// you act on it — `fire` remains the arbiter.
    ///
    /// Allocates one `String` per name; hot polling loops should prefer
    /// [`Runtime::eligible_symbols`].
    pub fn eligible(&self, id: InstanceId) -> Result<Vec<String>, RuntimeError> {
        self.inner.with_instance(id, |inst| inst.eligible_names())
    }

    /// [`Runtime::eligible`] without the per-name allocations: returns
    /// interned [`Symbol`]s (same order — sorted by name, deduplicated).
    pub fn eligible_symbols(&self, id: InstanceId) -> Result<Vec<Symbol>, RuntimeError> {
        self.inner.with_instance(id, |inst| inst.eligible_symbols())
    }

    /// Fires an external event against an instance. Rejects events the
    /// compiled schedule does not allow at this stage — no run-time
    /// constraint checking, just structural eligibility. Advances the
    /// cursor in place: per-fire work is independent of the journal
    /// length. With a store attached this is write-ahead: the event
    /// record must be durable before the fire commits, and a failed
    /// persist rewinds the cursor to the history it had, so nothing
    /// half-fires. Atomic with respect to other clients *of this
    /// instance*; clients of other instances proceed concurrently, so of
    /// two clients racing to fire mutually-exclusive branch events
    /// exactly one wins and the loser gets [`RuntimeError::NotEligible`]
    /// with the post-commit alternatives.
    pub fn fire(&self, id: InstanceId, event: &str) -> Result<InstanceStatus, RuntimeError> {
        self.inner.with_instance(id, |inst| {
            fleet::fire(inst, id, event, &self.inner.timers, self.store())
        })?
    }

    /// Fires a batch of events against one instance in order, under a
    /// single lookup and instance-lock acquisition — one atomic section
    /// with respect to other clients of this instance — and, with a
    /// store attached, a single durable append: the whole batch is one
    /// group commit (one fsync on the WAL backend).
    ///
    /// Partial-failure semantics: the batch stops at the first event that
    /// cannot fire — the committed prefix stays journaled (exactly the
    /// journal a sequence of individual [`Runtime::fire`] calls would
    /// have produced), the failing event reports
    /// [`FireOutcome::Rejected`], and the remaining events report
    /// [`FireOutcome::Skipped`] untried. If the store append fails the
    /// batch commits **nothing**: the first event reports
    /// [`RuntimeError::Store`] and the rest are skipped. Returns one
    /// [`FireOutcome`] per input event; `Err` only when the instance id
    /// itself is unknown.
    pub fn fire_batch<S: AsRef<str>>(
        &self,
        id: InstanceId,
        events: &[S],
    ) -> Result<Vec<FireOutcome>, RuntimeError> {
        let mut outcomes = Vec::with_capacity(events.len());
        self.inner.with_instance(id, |inst| {
            let run = fleet::one_run(events);
            let timers = &self.inner.timers;
            fleet::fire_burst(inst, id, run, &mut outcomes, timers, self.store())
        })??;
        Ok(outcomes)
    }

    /// Tries to finish an instance through silent steps only (committing
    /// `∨`-branches made of bookkeeping, e.g. an optional tail that was
    /// compiled away). Returns the resulting status.
    pub fn try_complete(&self, id: InstanceId) -> Result<InstanceStatus, RuntimeError> {
        self.inner.with_instance(id, |inst| {
            fleet::try_complete(inst, id, &self.inner.timers, self.store())
        })?
    }

    // --- Timers -------------------------------------------------------------

    /// The runtime's logical clock, in ms. Starts at zero and moves
    /// only through [`Runtime::advance`] — the runtime has no wall
    /// clock of its own, which keeps expiry deterministic under test.
    pub fn clock_ms(&self) -> u64 {
        lock(&self.inner.timers).clock_ms
    }

    /// Pending timers of an instance as `(tick event, absolute due ms)`
    /// pairs, sorted by tick name — read off the instance's own list,
    /// under its lock.
    pub fn pending_timers(&self, id: InstanceId) -> Result<Vec<(String, u64)>, RuntimeError> {
        self.inner.with_instance(id, |inst| inst.pending_timers())
    }

    /// Total pending timers across the fleet.
    pub fn pending_timer_count(&self) -> usize {
        lock(&self.inner.timers).wheel.len()
    }

    /// The earliest pending due across all instances, exactly; `None`
    /// when nothing is armed. A due at or before [`clock_ms`] (a timer
    /// re-armed after a failed advance) fires on the next advance that
    /// moves the clock.
    ///
    /// [`clock_ms`]: Runtime::clock_ms
    pub fn next_timer_due(&self) -> Option<u64> {
        lock(&self.inner.timers).wheel.next_due()
    }

    /// Advances the logical clock to `to_ms`, expiring every timer due
    /// on the way in deterministic `(due, instance, tick)` order. Each
    /// expired tick fires as an ordinary journal event, write-ahead as
    /// [`Record::TimerFire`]; a tick whose deadline was structurally
    /// satisfied without the derived disarm catching it resolves
    /// vacuously (journaled [`Record::TimerCancel`]). A clock already
    /// at or past `to_ms` is left alone. Returns the `(instance, tick)`
    /// pairs that fired.
    ///
    /// The expired batch is popped under the timer lock alone; each
    /// expiry then fires under its own instance lock, so a fleet-wide
    /// advance never serializes unrelated client fires, and the clock
    /// moves last. A timer a client disarmed between pop and fire is
    /// skipped — the instance's own list is the source of truth, and
    /// taking the timer off it under the instance lock makes each expiry
    /// exactly-once.
    ///
    /// On a store error the failed expiry and everything due after it
    /// are re-armed untouched — a later advance retries exactly the
    /// unfired tail.
    pub fn advance(&self, to_ms: u64) -> Result<Vec<(InstanceId, String)>, RuntimeError> {
        let timers = &self.inner.timers;
        fleet::advance(to_ms, timers, self.store(), |id, expire| {
            // An instance that is gone takes its timers with it.
            let _ = self.inner.with_instance(id, expire);
        })
    }

    /// Explicitly disarms a pending timer by its tick event name,
    /// journaling [`Record::TimerCancel`] write-ahead, under the instance
    /// lock like any other control record. Unlike the derived disarms
    /// (deadline satisfied, instance completed), an API cancel is not
    /// reproducible from the event journal, so it must be its own record.
    pub fn cancel_timer(&self, id: InstanceId, event: &str) -> Result<(), RuntimeError> {
        self.inner.with_instance(id, |inst| {
            fleet::cancel_timer(inst, id, event, &self.inner.timers, self.store())
        })?
    }

    /// Enacts a deployed workflow with the given [`Enactor`]: dispatches
    /// activity handlers under the compiled schedule and returns the full
    /// [`EnactReport`] — committed trace, per-attempt outcomes and
    /// latencies, and (on abort) the typed error plus compensation plan.
    /// The deployment is resolved under a brief registry read lock; the
    /// enactment itself — which may run for as long as the slowest
    /// handler chain — holds **no** runtime lock, so concurrent deploys,
    /// fires and snapshots proceed untouched.
    ///
    /// Enactment is **deployment-level**: it runs against the
    /// deployment's compiled program and timer table and creates no
    /// journaled instance, because an instance could not follow it. The
    /// enactor commits `∨`-branches node by node — silent ones too, and a
    /// silent commit is no event a journal could record — while an
    /// instance is driven by event name, which commits to the *first*
    /// `∨`-alternative carrying the event. So the report's `completed`
    /// events need not replay on an instance at all: the compiled goal
    /// `a * send(ξ) * receive(ξ) * e + a * f` enacts `a → f`, yet an
    /// instance that fired `a` refuses `f` (ROADMAP item 7).
    pub fn enact(&self, workflow: &str, enactor: &Enactor) -> Result<EnactReport, RuntimeError> {
        let deployment = self.inner.deployment(workflow)?;
        Ok(enactor.run_timed(&deployment.program, &deployment.timers))
    }

    /// The journal of fired events.
    pub fn journal(&self, id: InstanceId) -> Result<Vec<String>, RuntimeError> {
        self.inner.with_instance(id, |inst| inst.history_names(0))
    }

    /// Instance status.
    pub fn status(&self, id: InstanceId) -> Result<InstanceStatus, RuntimeError> {
        self.inner.with_instance(id, |inst| inst.status)
    }

    /// Completion check.
    pub fn is_complete(&self, id: InstanceId) -> Result<bool, RuntimeError> {
        Ok(self.status(id)? == InstanceStatus::Completed)
    }

    // --- Snapshots ---------------------------------------------------------

    /// Serializes the whole runtime — deployments as compiled goals in
    /// the concrete syntax, instances as journals — into a line-based
    /// textual snapshot: a consistent point-in-time cut. The fleet is
    /// frozen while the text is built (the registry read lock, every
    /// shard's gate, every instance lock), so the snapshot contains
    /// exactly the fires that committed before the cut, instance by
    /// instance, and always restores.
    pub fn snapshot(&self) -> String {
        self.inner.frozen_snapshot(|snapshot| snapshot)
    }

    /// Compacts the attached store behind a consistent cut: freezes the
    /// fleet exactly like [`Runtime::snapshot`] and hands the snapshot to
    /// [`Store::checkpoint`] **while the freeze is still held** — so no
    /// fire can slip between the snapshot and the log truncation and be
    /// lost to both. Errors if no store is attached.
    pub fn checkpoint(&self) -> Result<(), RuntimeError> {
        let store = self.store().ok_or_else(|| {
            RuntimeError::Store("no store attached to checkpoint into".to_owned())
        })?;
        self.inner.frozen_snapshot(|snapshot| {
            store
                .checkpoint(&snapshot)
                .map_err(|e| RuntimeError::Store(e.to_string()))
        })
    }
}

// --- Recovery ---------------------------------------------------------------

/// The one way back from durable state. Recovery owns the table it
/// builds — it goes behind the `Arc` only once every instance is
/// adopted, replayed and completed — so its counters are plain fields
/// and nothing else can see a half-recovered fleet.
impl Inner {
    /// Reads a snapshot into a fresh table (see [`Runtime::restore`]).
    fn restore(snapshot: &str) -> Result<Inner, RuntimeError> {
        let mut lines = snapshot.lines();
        if lines.next() != Some(SNAPSHOT_HEADER) {
            return Err(RuntimeError::Snapshot(
                "missing or unknown header".to_owned(),
            ));
        }
        let mut lines = lines.filter(|l| !l.trim().is_empty()).peekable();
        let mut inner = Inner::default();
        let mut arms: Vec<(&str, u64)> = Vec::new();
        while let Some(line) = lines.next() {
            if let Some(rest) = line.strip_prefix("workflow ") {
                let (name, goal_text) = rest
                    .split_once(" := ")
                    .ok_or_else(|| RuntimeError::Snapshot(format!("bad workflow line: {line}")))?;
                let goal = ctr_parser::parse_goal(goal_text)
                    .map_err(|e| RuntimeError::Snapshot(e.to_string()))?;
                inner.deploy_compiled(name, goal)?;
            } else if let Some(rest) = line.strip_prefix("instance ") {
                let (head, journal_text) = rest
                    .split_once("]: ")
                    .or_else(|| rest.split_once("]:").map(|(h, _)| (h, "")))
                    .ok_or_else(|| RuntimeError::Snapshot(format!("bad instance line: {line}")))?;
                // head = "<id> of <workflow> [<status>"
                let mut parts = head.split_whitespace();
                let id: InstanceId = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| RuntimeError::Snapshot(format!("bad instance id: {line}")))?;
                let workflow = match (parts.next(), parts.next()) {
                    (Some("of"), Some(w)) => w,
                    _ => return Err(RuntimeError::Snapshot(format!("bad instance line: {line}"))),
                };
                arms.clear();
                while let Some(arm) = lines.peek().and_then(|l| timer_line(l, id)) {
                    arms.push(arm);
                    lines.next();
                }
                inner.adopt_instance(id, workflow, &arms, RuntimeError::Snapshot)?;
                inner
                    .replay_events(id, journal_text.split_whitespace())
                    .map_err(|(_, e)| e)?;
                let completed = head.ends_with("[completed");
                // Adoption arms each declared tick once and replay only
                // disarms, so a line nothing pending answers to, or a
                // second line for a tick, is all that can differ.
                inner.with_instance(id, |inst| {
                    if completed {
                        // Completion may have come from silent finishing.
                        fleet::try_complete(inst, id, &inner.timers, None)?;
                    }
                    for (k, &(tick, due)) in arms.iter().enumerate() {
                        let armed = |t: &ArmedTimer| t.tick.as_str() == tick && t.due == due;
                        if !inst.timers.iter().any(armed) || arms[..k].iter().any(|a| a.0 == tick)
                        {
                            return Err(RuntimeError::Snapshot(format!(
                                "instance {id} has no such timer pending after its events: timer {id} {tick} due {due}"
                            )));
                        }
                    }
                    Ok(())
                })??;
            } else if line.starts_with("timer ") {
                return Err(RuntimeError::Snapshot(format!(
                    "timer line is malformed or does not follow its instance's line: {line}"
                )));
            } else {
                return Err(RuntimeError::Snapshot(format!("unrecognized line: {line}")));
            }
        }
        Ok(inner)
    }

    /// Replays the log's records, in append order, on top of what the
    /// checkpoint snapshot restored (see [`Runtime::open`]).
    fn replay(&mut self, records: Vec<Record>) -> Result<(), RuntimeError> {
        // Arm-before-visible buffering: a TimerArm only takes effect
        // when its Start follows. A crash between the two appends
        // leaves an orphan arm, which either never leaves this map or
        // meets a start that does not declare its ticks.
        let mut buffered_arms: BTreeMap<InstanceId, Vec<(String, u64)>> = BTreeMap::new();
        for record in records {
            match record {
                Record::Deploy { name, goal } => {
                    let goal = ctr_parser::parse_goal(&goal).map_err(|e| {
                        RuntimeError::Journal(format!("deploy record for `{name}`: {e}"))
                    })?;
                    self.deploy_compiled(&name, goal)?;
                }
                Record::TimerArm { instance, timers } => {
                    buffered_arms.insert(instance, timers);
                }
                Record::Start { instance, workflow } => {
                    let arms = buffered_arms.remove(&instance).unwrap_or_default();
                    self.adopt_instance(instance, &workflow, &arms, RuntimeError::Journal)?;
                }
                Record::Events { instance, events } => {
                    self.replay_events(instance, events.iter().map(String::as_str))
                        .map_err(|(event, e)| {
                            RuntimeError::Journal(format!(
                                "instance {instance}: replaying event `{event}`: {e}"
                            ))
                        })?;
                }
                Record::TimerFire {
                    instance,
                    event,
                    at_ms,
                } => {
                    self.with_instance(instance, |inst| {
                        fleet::replay_timer_fire(inst, instance, &event, at_ms, &self.timers)
                    })
                    .map_err(unknown("timer fire", instance))??;
                    self.replayed += 1;
                }
                Record::TimerCancel { instance, event } => {
                    let _ = self.with_instance(instance, |inst| {
                        fleet::replay_timer_cancel(inst, &event, &mut lock(&self.timers));
                    });
                }
                Record::Complete { instance } => {
                    self.with_instance(instance, |inst| {
                        fleet::try_complete(inst, instance, &self.timers, None)
                    })
                    .map_err(unknown("completion", instance))??;
                }
            }
        }
        Ok(())
    }

    /// Adopts an instance under the id durable state gives it — the one
    /// way back for a [`Record::Start`] and for a snapshot's instance
    /// line alike, which must reproduce the exact ids clients were given.
    /// `arms` carries the instance's pending dues (a buffered
    /// [`Record::TimerArm`], or the `timer` lines under the instance
    /// line); only ticks the workflow declares are armed. The caller
    /// names the variant a refusal comes back as.
    fn adopt_instance<S: AsRef<str>>(
        &mut self,
        id: InstanceId,
        workflow: &str,
        arms: &[(S, u64)],
        refuse: fn(String) -> RuntimeError,
    ) -> Result<(), RuntimeError> {
        let Ok(deployment) = self.deployment(workflow) else {
            return Err(refuse(format!(
                "instance {id} references unknown workflow `{workflow}`"
            )));
        };
        // The table publishes a cell once (`Shard::publish` asserts
        // it), so a durable state that names an id twice is refused
        // here, before anything is armed.
        let shard = self.shard(id);
        if shard.find(id).is_some() {
            return Err(refuse(format!("duplicate instance {id}")));
        }
        let successor = id
            .checked_add(1)
            .ok_or_else(|| refuse(format!("instance {id} leaves no next id")))?;
        let mut instance = Instance::new(&deployment);
        fleet::adopt(
            &mut instance,
            id,
            &deployment,
            arms,
            &mut lock(&self.timers),
        );
        shard.publish(&mut lock(&shard.gate), id, instance);
        let next_id = self.next_id.get_mut();
        *next_id = (*next_id).max(successor);
        Ok(())
    }

    /// Re-fires an adopted instance's durable events, so each is
    /// re-validated exactly like a live fire — the one place cursors are
    /// materialized by replay rather than advanced in place. On a
    /// refusal, the event that did not replay and why.
    fn replay_events<'a>(
        &mut self,
        id: InstanceId,
        events: impl Iterator<Item = &'a str>,
    ) -> Result<(), (&'a str, RuntimeError)> {
        for event in events {
            self.with_instance(id, |inst| fleet::fire(inst, id, event, &self.timers, None))
                .and_then(|fired| fired)
                .map_err(|e| (event, e))?;
            self.replayed += 1;
        }
        Ok(())
    }
}

/// Reads `timer <instance> <tick> due <ms>` as `(tick, ms)` — if `line`
/// is that, and for instance `id`.
fn timer_line(line: &str, id: InstanceId) -> Option<(&str, u64)> {
    let mut parts = line.strip_prefix("timer ")?.split_whitespace();
    let fields = [parts.next()?, parts.next()?, parts.next()?, parts.next()?];
    match (fields, parts.next()) {
        ([of, tick, "due", due], None) if of.parse() == Ok(id) => Some((tick, due.parse().ok()?)),
        _ => None,
    }
}

/// Recovery's refusal for a record naming an instance no adoption
/// published.
fn unknown(what: &'static str, id: InstanceId) -> impl FnOnce(RuntimeError) -> RuntimeError {
    move |_| RuntimeError::Journal(format!("{what} for unknown instance {id}"))
}

/// First line of every snapshot; version-checks the format.
pub(crate) const SNAPSHOT_HEADER: &str = "ctr-runtime snapshot v1";

#[cfg(test)]
mod tests {
    use super::*;
    use ctr::constraints::Constraint;

    const PAY: &str = r"
        workflow pay {
            graph invoice * (approve + reject) * file;
        }
    ";

    fn runtime_with_pay() -> Runtime {
        let rt = Runtime::new();
        rt.deploy_source(PAY).unwrap();
        rt
    }

    #[test]
    fn deploy_start_fire_complete() {
        let rt = runtime_with_pay();
        assert_eq!(rt.workflows(), vec!["pay".to_owned()]);
        let id = rt.start("pay").unwrap();
        assert_eq!(rt.eligible(id).unwrap(), vec!["invoice".to_owned()]);
        rt.fire(id, "invoice").unwrap();
        assert_eq!(
            rt.eligible(id).unwrap(),
            vec!["approve".to_owned(), "reject".to_owned()]
        );
        rt.fire(id, "reject").unwrap();
        assert_eq!(rt.fire(id, "file").unwrap(), InstanceStatus::Completed);
        assert!(rt.is_complete(id).unwrap());
        assert_eq!(rt.journal(id).unwrap(), vec!["invoice", "reject", "file"]);
    }

    #[test]
    fn ineligible_events_are_rejected_with_alternatives() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        let err = rt.fire(id, "file").unwrap_err();
        let RuntimeError::NotEligible { event, eligible } = err else {
            panic!("expected NotEligible");
        };
        assert_eq!(event, "file");
        assert_eq!(eligible, vec!["invoice".to_owned()]);
        // The failed fire left no trace in the journal.
        assert!(rt.journal(id).unwrap().is_empty());
    }

    #[test]
    fn firing_into_completed_instance_fails() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        for e in ["invoice", "approve", "file"] {
            rt.fire(id, e).unwrap();
        }
        assert_eq!(
            rt.fire(id, "invoice"),
            Err(RuntimeError::AlreadyComplete(id))
        );
    }

    #[test]
    fn inconsistent_specs_are_rejected_at_deploy() {
        let rt = Runtime::new();
        let err = rt
            .deploy_source("workflow bad { graph b * a; constraint before(a, b); }")
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Inconsistent {
                name: "bad".to_owned(),
                conflict: "constraint 1 (serial(a, b)) conflicts with the graph".to_owned(),
            }
        );
        assert_eq!(
            err.to_string(),
            "workflow `bad` is inconsistent and cannot be deployed: \
             constraint 1 (serial(a, b)) conflicts with the graph"
        );
    }

    #[test]
    fn constraints_gate_eligibility_at_runtime() {
        // A compiled order constraint: the runtime refuses the late event
        // until its predecessor fired — with zero constraint checking.
        let rt = Runtime::new();
        let compiled = ctr::analysis::compile(
            &ctr::goal::conc(vec![Goal::atom("a"), Goal::atom("b")]),
            &[Constraint::order("a", "b")],
        )
        .unwrap();
        rt.deploy_compiled("ab", compiled.goal).unwrap();
        let id = rt.start("ab").unwrap();
        assert_eq!(rt.eligible(id).unwrap(), vec!["a".to_owned()]);
        assert!(matches!(
            rt.fire(id, "b"),
            Err(RuntimeError::NotEligible { .. })
        ));
        rt.fire(id, "a").unwrap();
        rt.fire(id, "b").unwrap();
        assert!(rt.is_complete(id).unwrap());
    }

    #[test]
    fn multiple_instances_progress_independently() {
        let rt = runtime_with_pay();
        let i1 = rt.start("pay").unwrap();
        let i2 = rt.start("pay").unwrap();
        rt.fire(i1, "invoice").unwrap();
        assert_eq!(rt.eligible(i2).unwrap(), vec!["invoice".to_owned()]);
        rt.fire(i1, "approve").unwrap();
        rt.fire(i2, "invoice").unwrap();
        rt.fire(i2, "reject").unwrap();
        assert_eq!(rt.journal(i1).unwrap(), vec!["invoice", "approve"]);
        assert_eq!(rt.journal(i2).unwrap(), vec!["invoice", "reject"]);
    }

    #[test]
    fn snapshot_round_trips_mid_flight() {
        let rt = runtime_with_pay();
        let i1 = rt.start("pay").unwrap();
        let i2 = rt.start("pay").unwrap();
        rt.fire(i1, "invoice").unwrap();
        rt.fire(i1, "approve").unwrap();
        rt.fire(i2, "invoice").unwrap();

        let snap = rt.snapshot();
        let restored = Runtime::restore(&snap).unwrap();
        assert_eq!(restored.workflows(), vec!["pay".to_owned()]);
        assert_eq!(restored.journal(i1).unwrap(), vec!["invoice", "approve"]);
        assert_eq!(restored.eligible(i1).unwrap(), vec!["file".to_owned()]);
        assert_eq!(
            restored.eligible(i2).unwrap(),
            vec!["approve".to_owned(), "reject".to_owned()]
        );
        // New instances allocate past the restored ids.
        let restored = restored;
        let i3 = restored.start("pay").unwrap();
        assert!(i3 > i2);
    }

    #[test]
    fn snapshot_round_trips_completed_instances() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        for e in ["invoice", "approve", "file"] {
            rt.fire(id, e).unwrap();
        }
        let restored = Runtime::restore(&rt.snapshot()).unwrap();
        assert!(restored.is_complete(id).unwrap());
    }

    #[test]
    fn snapshot_rejects_corruption() {
        assert!(Runtime::restore("bogus").is_err());
        assert!(
            Runtime::restore("ctr-runtime snapshot v1\ninstance 0 of ghost [running]: x").is_err()
        );
        // A journal that replay rejects.
        let rt = runtime_with_pay();
        rt.start("pay").unwrap();
        let snap = rt.snapshot().replace("[running]: ", "[running]: file");
        assert!(matches!(
            Runtime::restore(&snap),
            Err(RuntimeError::NotEligible { .. })
        ));
    }

    #[test]
    fn snapshot_rejects_an_instance_id_with_no_successor() {
        let rt = runtime_with_pay();
        rt.start("pay").unwrap();
        let snap = rt
            .snapshot()
            .replace("instance 0 ", "instance 18446744073709551615 ");
        assert_eq!(
            Runtime::restore(&snap).err(),
            Some(RuntimeError::Snapshot(
                "instance 18446744073709551615 leaves no next id".to_owned()
            ))
        );
        // So does the same id in a durable start record.
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
        rt.deploy_source(PAY).unwrap();
        store
            .append(&Record::Start {
                instance: u64::MAX,
                workflow: "pay".to_owned(),
            })
            .unwrap();
        assert!(matches!(
            Runtime::open(store).err(),
            Some(RuntimeError::Journal(_))
        ));
        // The last id that has one restores, with nothing left to start.
        let snap = rt.snapshot() + "instance 18446744073709551614 of pay [running]: invoice\n";
        let rt = Runtime::restore(&snap).unwrap();
        assert_eq!(rt.instances(), vec![u64::MAX - 1]);
    }

    #[test]
    fn snapshot_rejects_a_second_line_for_an_instance() {
        let rt = Runtime::new();
        rt.deploy_source("workflow timed { graph invoice * approve; deadline(approve, 1h); }")
            .unwrap();
        let id = rt.start("timed").unwrap();
        rt.fire(id, "invoice").unwrap();
        let snap = rt.snapshot();
        assert_eq!(Runtime::restore(&snap).unwrap().pending_timer_count(), 1);
        // The later line used to replace the instance and its journal,
        // leaving the first one's timer a phantom on the wheel.
        let twice = format!("{snap}instance {id} of timed [running]: \n");
        assert_eq!(
            Runtime::restore(&twice).err(),
            Some(RuntimeError::Snapshot(format!("duplicate instance {id}")))
        );
    }

    #[test]
    fn try_complete_finishes_silent_tails() {
        // a ⊗ (send-branch ∨ b): after a, the instance can finish without
        // another observable event.
        let goal = ctr::goal::seq(vec![
            Goal::atom("a"),
            ctr::goal::or(vec![Goal::Send(ctr::goal::Channel(0)), Goal::atom("b")]),
        ]);
        let rt = Runtime::new();
        rt.deploy_compiled("opt", goal).unwrap();
        let id = rt.start("opt").unwrap();
        rt.fire(id, "a").unwrap();
        assert_eq!(rt.status(id).unwrap(), InstanceStatus::Running);
        assert_eq!(rt.try_complete(id).unwrap(), InstanceStatus::Completed);
    }

    #[test]
    fn unknown_ids_and_names_error() {
        let rt = Runtime::new();
        assert_eq!(
            rt.start("ghost"),
            Err(RuntimeError::UnknownWorkflow("ghost".to_owned()))
        );
        assert_eq!(rt.eligible(42), Err(RuntimeError::UnknownInstance(42)));
        assert_eq!(rt.fire(42, "x"), Err(RuntimeError::UnknownInstance(42)));
    }

    #[test]
    fn fire_batch_matches_individual_fires() {
        // A full batch produces the same journal, statuses, and snapshot
        // as the same events fired one by one.
        let batched = runtime_with_pay();
        let single = runtime_with_pay();
        let ib = batched.start("pay").unwrap();
        let is_ = single.start("pay").unwrap();
        let events = ["invoice", "approve", "file"];
        let outcomes = batched.fire_batch(ib, &events).unwrap();
        let expected: Vec<FireOutcome> = events
            .iter()
            .map(|e| FireOutcome::Fired(single.fire(is_, e).unwrap()))
            .collect();
        assert_eq!(outcomes, expected);
        assert_eq!(
            outcomes.last(),
            Some(&FireOutcome::Fired(InstanceStatus::Completed))
        );
        assert_eq!(batched.snapshot(), single.snapshot());
    }

    #[test]
    fn fire_batch_journals_prefix_and_skips_suffix() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        // The second "invoice" is ineligible: the batch must stop there
        // with the first fire already committed.
        let outcomes = rt
            .fire_batch(id, &["invoice", "invoice", "approve", "file"])
            .unwrap();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0], FireOutcome::Fired(InstanceStatus::Running));
        let FireOutcome::Rejected(RuntimeError::NotEligible { event, eligible }) = &outcomes[1]
        else {
            panic!("expected NotEligible, got {:?}", outcomes[1]);
        };
        assert_eq!(event, "invoice");
        assert_eq!(eligible, &["approve".to_owned(), "reject".to_owned()]);
        assert_eq!(outcomes[2], FireOutcome::Skipped);
        assert_eq!(outcomes[3], FireOutcome::Skipped);
        // Only the committed prefix reached the journal; the instance is
        // still usable afterwards.
        assert_eq!(rt.journal(id).unwrap(), vec!["invoice"]);
        rt.fire(id, "approve").unwrap();
        rt.fire(id, "file").unwrap();
        assert!(rt.is_complete(id).unwrap());
    }

    #[test]
    fn fire_batch_rejects_past_completion() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        let outcomes = rt
            .fire_batch(id, &["invoice", "approve", "file", "invoice"])
            .unwrap();
        assert_eq!(outcomes[2], FireOutcome::Fired(InstanceStatus::Completed));
        assert_eq!(
            outcomes[3],
            FireOutcome::Rejected(RuntimeError::AlreadyComplete(id))
        );
    }

    #[test]
    fn fire_batch_unknown_instance_is_err() {
        let rt = runtime_with_pay();
        assert_eq!(
            rt.fire_batch(42, &["invoice"]),
            Err(RuntimeError::UnknownInstance(42))
        );
    }

    #[test]
    fn empty_fire_batch_is_a_no_op() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        let outcomes = rt.fire_batch::<&str>(id, &[]).unwrap();
        assert!(outcomes.is_empty());
        assert!(rt.journal(id).unwrap().is_empty());
    }

    #[test]
    fn rejected_unknown_event_names_do_not_grow_the_interner() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        // Submitting never-interned names must not permanently intern
        // them: a hostile client pumping random names would otherwise
        // grow the process-global append-only table without bound. Other
        // tests intern concurrently, so retry the count comparison
        // instead of demanding a quiescent table.
        for attempt in 0.. {
            let hostile = format!("zz_hostile_name_{attempt}_never_interned");
            let before = ctr::symbol::Symbol::interned_count();
            let err = rt.fire(id, &hostile).unwrap_err();
            let batch = rt.fire_batch(id, &[hostile.as_str()]).unwrap();
            let after = ctr::symbol::Symbol::interned_count();
            assert!(matches!(err, RuntimeError::NotEligible { .. }));
            assert!(matches!(
                batch[0],
                FireOutcome::Rejected(RuntimeError::NotEligible { .. })
            ));
            assert_eq!(
                ctr::symbol::Symbol::try_get(&hostile),
                None,
                "rejected name must not be interned"
            );
            if before == after {
                break;
            }
            assert!(attempt < 5, "interner table would not settle");
        }
        // The instance is untouched and still fires known events.
        rt.fire(id, "invoice").unwrap();
    }

    #[test]
    fn mem_store_path_is_bit_identical_to_storeless() {
        // Attaching MemStore must not change a single observable byte:
        // same ids, same outcomes, same snapshot.
        let mut stored = Runtime::with_store(Arc::new(MemStore::new()));
        let mut plain = Runtime::new();
        for rt in [&mut stored, &mut plain] {
            rt.deploy_source(PAY).unwrap();
        }
        for _ in 0..3 {
            assert_eq!(stored.start("pay").unwrap(), plain.start("pay").unwrap());
        }
        let events = ["invoice", "approve", "file"];
        assert_eq!(
            stored.fire_batch(0, &events).unwrap(),
            plain.fire_batch(0, &events).unwrap()
        );
        assert_eq!(
            stored.fire(1, "invoice").unwrap(),
            plain.fire(1, "invoice").unwrap()
        );
        assert_eq!(stored.snapshot(), plain.snapshot());
        let stats = stored.store_stats().unwrap();
        assert_eq!(
            stats.appends,
            1 + 3 + 2,
            "deploy + starts + two event groups"
        );
        assert_eq!(stats.events, 4);
        assert_eq!(stats.max_group, 3);
        assert_eq!(plain.store_stats(), None);
    }

    #[test]
    fn open_recovers_the_full_fleet_from_records() {
        let store = Arc::new(MemStore::new());
        let snap_before;
        {
            let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn ctr_store::Store>);
            rt.deploy_source(PAY).unwrap();
            let i1 = rt.start("pay").unwrap();
            let i2 = rt.start("pay").unwrap();
            rt.fire_batch(i1, &["invoice", "approve", "file"]).unwrap();
            rt.fire(i2, "invoice").unwrap();
            snap_before = rt.snapshot();
        }
        // "Crash": drop the runtime, recover purely from the store.
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap_before);
        assert!(rt.is_complete(0).unwrap());
        assert_eq!(rt.replayed_steps(), 4, "recovery replays every fire");
        // Recovered runtimes keep persisting: new ids continue the line.
        let rt = rt;
        assert_eq!(rt.start("pay").unwrap(), 2);
    }

    #[test]
    fn open_recovers_silent_completion_via_complete_record() {
        let goal = ctr::goal::seq(vec![
            Goal::atom("a"),
            ctr::goal::or(vec![Goal::Send(ctr::goal::Channel(0)), Goal::atom("b")]),
        ]);
        let store = Arc::new(MemStore::new());
        {
            let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn ctr_store::Store>);
            rt.deploy_compiled("opt", goal).unwrap();
            let id = rt.start("opt").unwrap();
            rt.fire(id, "a").unwrap();
            assert_eq!(rt.try_complete(id).unwrap(), InstanceStatus::Completed);
        }
        let rt = Runtime::open(store).unwrap();
        assert!(rt.is_complete(0).unwrap(), "silent completion survives");
    }

    #[test]
    fn a_record_for_an_instance_no_start_adopted_is_a_journal_error() {
        let orphan = |record: Record| {
            let store = Arc::new(MemStore::new());
            Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>)
                .deploy_source(PAY)
                .unwrap();
            store.append(&record).unwrap();
            Runtime::open(store).err()
        };
        assert_eq!(
            orphan(Record::Complete { instance: 7 }),
            Some(RuntimeError::Journal(
                "completion for unknown instance 7".to_owned()
            ))
        );
        assert_eq!(
            orphan(Record::TimerFire {
                instance: 7,
                event: "invoice".to_owned(),
                at_ms: 0,
            }),
            Some(RuntimeError::Journal(
                "timer fire for unknown instance 7".to_owned()
            ))
        );
        assert!(matches!(
            orphan(Record::Events {
                instance: 7,
                events: vec!["invoice".to_owned()],
            }),
            Some(RuntimeError::Journal(e)) if e.starts_with("instance 7: replaying event `invoice`")
        ));
    }

    #[test]
    fn a_log_that_starts_an_id_twice_is_refused_not_published_twice() {
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
        rt.deploy_source(PAY).unwrap();
        for _ in 0..2 {
            let start = Record::Start {
                instance: 3,
                workflow: "pay".to_owned(),
            };
            store.append(&start).unwrap();
        }
        assert_eq!(
            Runtime::open(store).err(),
            Some(RuntimeError::Journal("duplicate instance 3".to_owned()))
        );
    }

    #[test]
    fn checkpoint_compacts_and_reopens_identically() {
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn ctr_store::Store>);
        rt.deploy_source(PAY).unwrap();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        rt.checkpoint().unwrap();
        // Post-checkpoint traffic lands as fresh records.
        rt.fire(id, "approve").unwrap();
        let snap = rt.snapshot();
        drop(rt);
        let replay = store.replay().unwrap();
        assert!(replay.snapshot.is_some(), "checkpoint installed a baseline");
        assert_eq!(replay.records.len(), 1, "only the post-checkpoint fire");
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap);
    }

    #[test]
    fn storeless_checkpoint_is_a_typed_error() {
        let rt = runtime_with_pay();
        assert!(matches!(rt.checkpoint(), Err(RuntimeError::Store(_))));
    }

    #[test]
    fn a_history_that_does_not_replay_under_its_workflow_line_is_a_typed_error() {
        // The instance line names events its workflow line's program
        // never offers: restore is the one place a cursor is built from
        // text, and it must refuse with an error, not panic or adopt a
        // cursor that disagrees with its history.
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        rt.fire(id, "approve").unwrap();
        let snap = rt.snapshot();
        let swapped = snap.replace("invoice * (approve + reject) * file", "other * things");
        assert_ne!(swapped, snap);
        let restored = Runtime::restore(&swapped).err();
        assert!(
            matches!(restored, Some(RuntimeError::NotEligible { .. })),
            "got {restored:?}"
        );
        // The untouched text restores, and the instance goes on.
        let rt = Runtime::restore(&snap).unwrap();
        assert_eq!(rt.eligible(id).unwrap(), vec!["file".to_owned()]);
        rt.fire(id, "file").unwrap();
        assert!(rt.is_complete(id).unwrap());
    }

    #[test]
    fn an_instance_is_its_cursor_a_name_a_status_and_its_timers() {
        // One history and one record of what is eligible: no list of
        // fired events beside the cursor's, no copy of its frontier.
        assert_eq!(std::mem::size_of::<Instance>(), 144);
    }

    const TIMED: &str = r"
        workflow timed {
            graph invoice * approve * file;
            after(approve, 30s);
        }
    ";

    const GUARDED: &str = r"
        workflow guarded {
            graph invoice * approve;
            deadline(approve, 1h);
        }
    ";

    #[test]
    fn after_gates_its_event_until_the_clock_advances() {
        let rt = Runtime::new();
        rt.deploy_source(TIMED).unwrap();
        let id = rt.start("timed").unwrap();
        assert_eq!(
            rt.pending_timers(id).unwrap(),
            vec![("approve@after30000".to_owned(), 30_000)]
        );
        assert_eq!(rt.pending_timer_count(), 1);
        assert_eq!(rt.next_timer_due(), Some(30_000), "exact, not a bound");
        rt.fire(id, "invoice").unwrap();
        // The gate holds: approve is not eligible (and the tick is
        // internal, never listed).
        assert!(matches!(
            rt.fire(id, "approve"),
            Err(RuntimeError::NotEligible { .. })
        ));
        assert!(rt.eligible(id).unwrap().is_empty());
        assert!(rt.advance(29_999).unwrap().is_empty());
        let fired = rt.advance(30_000).unwrap();
        assert_eq!(fired, vec![(id, "approve@after30000".to_owned())]);
        assert_eq!(rt.clock_ms(), 30_000);
        assert!(rt.pending_timers(id).unwrap().is_empty());
        assert_eq!(rt.eligible(id).unwrap(), vec!["approve".to_owned()]);
        rt.fire(id, "approve").unwrap();
        rt.fire(id, "file").unwrap();
        assert!(rt.is_complete(id).unwrap());
    }

    #[test]
    fn deadline_satisfied_by_its_base_event_disarms() {
        let rt = Runtime::new();
        rt.deploy_source(GUARDED).unwrap();
        let id = rt.start("guarded").unwrap();
        assert_eq!(
            rt.pending_timers(id).unwrap(),
            vec![("approve@deadline3600000".to_owned(), 3_600_000)]
        );
        rt.fire(id, "invoice").unwrap();
        rt.fire(id, "approve").unwrap();
        // Derived disarm: the base event fired, the deadline is gone.
        assert!(rt.pending_timers(id).unwrap().is_empty());
        assert_eq!(rt.pending_timer_count(), 0);
        assert!(rt.advance(4_000_000).unwrap().is_empty());
        // The watchdog or-branch finishes silently.
        assert_eq!(rt.try_complete(id).unwrap(), InstanceStatus::Completed);
    }

    #[test]
    fn deadline_expiry_fires_the_tick_as_a_journal_event() {
        let rt = Runtime::new();
        rt.deploy_source(GUARDED).unwrap();
        let id = rt.start("guarded").unwrap();
        rt.fire(id, "invoice").unwrap();
        let fired = rt.advance(3_600_000).unwrap();
        assert_eq!(fired, vec![(id, "approve@deadline3600000".to_owned())]);
        assert_eq!(
            rt.journal(id).unwrap(),
            vec!["invoice", "approve@deadline3600000"]
        );
        // Expiry records the missed deadline; the instance itself
        // continues — approve can still happen (late).
        assert_eq!(rt.status(id).unwrap(), InstanceStatus::Running);
        rt.fire(id, "approve").unwrap();
        assert_eq!(rt.try_complete(id).unwrap(), InstanceStatus::Completed);
    }

    #[test]
    fn completion_drains_pending_timers() {
        let rt = Runtime::new();
        rt.deploy_source(GUARDED).unwrap();
        let id = rt.start("guarded").unwrap();
        rt.fire(id, "invoice").unwrap();
        rt.fire(id, "approve").unwrap();
        rt.try_complete(id).unwrap();
        assert_eq!(rt.pending_timer_count(), 0);
        assert_eq!(rt.next_timer_due(), None);
    }

    #[test]
    fn cancel_timer_disarms_and_rejects_unknowns() {
        let rt = Runtime::new();
        rt.deploy_source(TIMED).unwrap();
        let id = rt.start("timed").unwrap();
        assert_eq!(
            rt.cancel_timer(id, "nope"),
            Err(RuntimeError::UnknownTimer {
                instance: id,
                event: "nope".to_owned()
            })
        );
        rt.cancel_timer(id, "approve@after30000").unwrap();
        assert!(rt.pending_timers(id).unwrap().is_empty());
        assert_eq!(
            rt.cancel_timer(id, "approve@after30000"),
            Err(RuntimeError::UnknownTimer {
                instance: id,
                event: "approve@after30000".to_owned()
            })
        );
        // The gate never opens now; the timer is simply gone.
        assert!(rt.advance(100_000).unwrap().is_empty());
    }

    #[test]
    fn timer_snapshot_round_trips_and_expires_identically() {
        let rt = Runtime::new();
        rt.deploy_source(TIMED).unwrap();
        rt.deploy_source(GUARDED).unwrap();
        let t = rt.start("timed").unwrap();
        let g = rt.start("guarded").unwrap();
        rt.fire(t, "invoice").unwrap();
        rt.fire(g, "invoice").unwrap();
        let snap = rt.snapshot();
        assert!(
            snap.contains("timer 0 approve@after30000 due 30000"),
            "{snap}"
        );
        let restored = Runtime::restore(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap, "snapshot round-trips");
        assert_eq!(
            restored.pending_timers(t).unwrap(),
            rt.pending_timers(t).unwrap()
        );
        // Both expire the same way.
        assert_eq!(
            rt.advance(4_000_000).unwrap(),
            restored.advance(4_000_000).unwrap()
        );
        assert_eq!(rt.snapshot(), restored.snapshot());
    }

    #[test]
    fn timer_arm_record_precedes_start_and_recovers() {
        let store = Arc::new(MemStore::new());
        let snap_before;
        {
            let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn ctr_store::Store>);
            rt.deploy_source(TIMED).unwrap();
            let id = rt.start("timed").unwrap();
            rt.fire(id, "invoice").unwrap();
            snap_before = rt.snapshot();
        }
        // Arm-before-visible on the wire: TimerArm strictly before
        // Start for the same instance.
        let records = store.replay().unwrap().records;
        let arm = records
            .iter()
            .position(|r| matches!(r, Record::TimerArm { .. }))
            .expect("arm record present");
        let start = records
            .iter()
            .position(|r| matches!(r, Record::Start { .. }))
            .expect("start record present");
        assert!(arm < start, "arm-before-visible: {records:?}");
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap_before);
        assert_eq!(
            rt.pending_timers(0).unwrap(),
            vec![("approve@after30000".to_owned(), 30_000)]
        );
        // The recovered wheel still expires.
        let fired = rt.advance(30_000).unwrap();
        assert_eq!(fired, vec![(0, "approve@after30000".to_owned())]);
    }

    #[test]
    fn timer_fire_records_replay_with_clock_watermark() {
        let store = Arc::new(MemStore::new());
        let snap_before;
        {
            let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn ctr_store::Store>);
            rt.deploy_source(GUARDED).unwrap();
            let id = rt.start("guarded").unwrap();
            rt.fire(id, "invoice").unwrap();
            let fired = rt.advance(3_700_000).unwrap();
            assert_eq!(fired.len(), 1);
            snap_before = rt.snapshot();
        }
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap_before);
        assert_eq!(
            rt.clock_ms(),
            3_600_000,
            "clock restored to the durable expiry watermark"
        );
        assert_eq!(rt.pending_timer_count(), 0);
        assert_eq!(
            rt.journal(0).unwrap(),
            vec!["invoice", "approve@deadline3600000"]
        );
    }

    #[test]
    fn cancel_records_replay_and_checkpoint_keeps_timer_lines() {
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn ctr_store::Store>);
        rt.deploy_source(TIMED).unwrap();
        rt.deploy_source(GUARDED).unwrap();
        let t = rt.start("timed").unwrap();
        let g = rt.start("guarded").unwrap();
        rt.cancel_timer(t, "approve@after30000").unwrap();
        rt.checkpoint().unwrap();
        rt.fire(g, "invoice").unwrap();
        let snap = rt.snapshot();
        drop(rt);
        let replay = store.replay().unwrap();
        let baseline = replay.snapshot.expect("checkpoint installed");
        assert!(
            baseline.contains("timer 1 approve@deadline3600000 due 3600000"),
            "{baseline}"
        );
        // The goal text still names the tick event; only the armed-timer
        // line must be gone.
        assert!(!baseline.contains("timer 0 "), "cancelled timer gone");
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap);
        assert!(rt.pending_timers(t).unwrap().is_empty());
        let fired = rt.advance(3_600_000).unwrap();
        assert_eq!(fired, vec![(g, "approve@deadline3600000".to_owned())]);
    }

    #[test]
    fn every_timers_stagger_and_fire_in_order() {
        let rt = Runtime::new();
        rt.deploy_source(
            "workflow poller { graph connect * repeat(poll, 1, 2) * done; every(poll, 5s); }",
        )
        .unwrap();
        let id = rt.start("poller").unwrap();
        let pending = rt.pending_timers(id).unwrap();
        assert_eq!(
            pending,
            vec![
                ("poll@1@after5000".to_owned(), 5_000),
                ("poll@2@after10000".to_owned(), 10_000)
            ]
        );
        rt.fire(id, "connect").unwrap();
        let fired = rt.advance(20_000).unwrap();
        assert_eq!(
            fired,
            vec![
                (id, "poll@1@after5000".to_owned()),
                (id, "poll@2@after10000".to_owned())
            ],
            "both gates open in period order"
        );
        rt.fire(id, "poll@1").unwrap();
        rt.fire(id, "poll@2").unwrap();
        rt.fire(id, "done").unwrap();
        assert!(rt.is_complete(id).unwrap());
    }

    #[test]
    fn ties_on_a_due_expire_by_instance_then_tick() {
        // `c`'s tick is declared before `b`'s; both are due at 30 s on
        // two instances, live and restored from a snapshot.
        let rt = Runtime::new();
        rt.deploy_source("workflow w { graph a * (c # b); after(c, 30s); after(b, 30s); }")
            .unwrap();
        let ids = [rt.start("w").unwrap(), rt.start("w").unwrap()];
        let restored = Runtime::restore(&rt.snapshot()).unwrap();
        let expected: Vec<(InstanceId, String)> = ids
            .iter()
            .flat_map(|&id| ["b@after30000", "c@after30000"].map(|tick| (id, tick.to_owned())))
            .collect();
        assert_eq!(rt.advance(30_000).unwrap(), expected);
        assert_eq!(restored.advance(30_000).unwrap(), expected);
    }

    #[test]
    fn runtime_enact_runs_a_deployment_and_reports() {
        let rt = runtime_with_pay();
        let order = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut enactor = Enactor::new();
        for e in ["invoice", "approve", "reject", "file"] {
            let log = std::sync::Arc::clone(&order);
            enactor.register(
                e,
                Box::new(move |atom| {
                    log.lock().unwrap().push(atom.to_string());
                    Ok(())
                }),
            );
        }
        let report = rt.enact("pay", &enactor).unwrap();
        assert!(report.is_success());
        assert_eq!(report.completed.len(), 3, "invoice, one branch, file");
        let completed: Vec<String> = report.completed.iter().map(|s| s.to_string()).collect();
        assert_eq!(*order.lock().unwrap(), completed);
        assert!(matches!(
            rt.enact("ghost", &enactor).unwrap_err(),
            RuntimeError::UnknownWorkflow(name) if name == "ghost"
        ));
    }
}
