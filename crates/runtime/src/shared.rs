//! The instance table and its locking model.
//!
//! A fleet of independent workflow instances is exactly the workload the
//! paper's compiled scheduler makes cheap per instance, so the
//! [`Runtime`] must not re-serialize it behind one lock. Its state
//! splits four ways:
//!
//! * a **read-mostly deployment registry** behind an [`RwLock`] — deploys
//!   are rare, `start`/`fire` are hot, and readers only clone an `Arc`;
//! * an **instance table striped across [`SHARD_COUNT`] shards**:
//!   instance `id` is slot `id / SHARD_COUNT` of shard
//!   `id % SHARD_COUNT`, in a dense append-only table whose cells never
//!   move and are **read without a lock**. Each shard has a *gate*
//!   mutex that only its writers (`start`, and recovery's adoption)
//!   and the snapshot freeze take;
//! * **per-instance state behind its own lock**, the only lock an
//!   operation on a known instance acquires, so two clients firing
//!   events on *different* instances share nothing they write;
//! * the **timer queue and logical clock** behind one mutex.
//!
//! The runtime resolves ids and takes locks, and hands the
//! `&mut Instance` it locked, the timer mutex and the store to the
//! `fleet` module, which owns every transition and its write-ahead
//! ordering. The single-instance atomicity guarantee is *per instance*:
//! eligibility check, step and journal append happen under that
//! instance's lock, so of two clients racing to fire mutually-exclusive
//! branch events exactly one wins and the loser gets
//! [`RuntimeError::NotEligible`] with the post-commit alternatives.
//!
//! Recovery ([`Runtime::open`], [`Runtime::restore`]) adopts, replays
//! and completes every instance straight into this table, while it
//! still owns it: the table goes behind the handle's `Arc` only once
//! recovery is done.
//!
//! ## The instance table
//!
//! A shard's table is a fixed directory of geometrically growing
//! buckets of 64-cell chunks, every level a [`OnceLock`]: written once
//! under the gate, found afterwards by arithmetic on the id and two
//! loads. Instances are never removed, so a cell is handed out as a
//! plain `&Mutex<Instance>` borrowed from the runtime. Three rules keep
//! what a locked map gave for free:
//!
//! * **A miss is confirmed under the gate** before it becomes
//!   [`RuntimeError::UnknownInstance`]. `start` arms the wheel before
//!   it publishes the instance (both under the gate), so a
//!   [`Runtime::advance`] that has already popped one of its
//!   timers misses, waits on the gate, and then finds the instance
//!   complete with the timer it is about to fire — rather than dropping
//!   the expiry.
//! * **Memory follows the instances held, not the largest id.** A
//!   restored snapshot may name any id; one that would leave the dense
//!   table under about a quarter full goes to a small ordered *overflow*
//!   map inside the gate (the one place a cell is an `Arc`, so that it
//!   can be used after the gate is released). Lookups of such ids take
//!   the miss path every time, which is the cost the whole table used
//!   to have.
//! * **Ids are unique**: `start` draws them from one counter that
//!   refuses to step past `u64::MAX` rather than wrap
//!   ([`RuntimeError::InstanceIdsExhausted`]), and recovery refuses an
//!   id the table already holds before it publishes, so a cell is never
//!   written a second time.
//!
//! ## Bursts
//!
//! The cross-instance entry points ([`Runtime::fire_many`],
//! [`Runtime::fire_runs`], [`Runtime::fire_runs_into`]) ride
//! one linear *planner*: a single pass over the burst — no sort, no
//! lock — groups its runs by instance in first-appearance order; each
//! instance is then looked up and locked once while the core fires its
//! share and pushes the outcomes straight into the burst's one outcome
//! vector. The planner's tables and that vector are a [`BurstScratch`]
//! the caller may keep: a connection thread submitting burst after
//! burst allocates nothing for them. No step of a fire takes a
//! process-wide lock — the event a client names is resolved by the
//! instance's own program, not by the symbol interner.
//!
//! ## Lock order
//!
//! `registry < gate[0] < … < gate[SHARD_COUNT−1] < instance locks <
//! timer state < the store's own stripe locks`. The store's locks are
//! only ever taken inside a [`Store`] call, never around one. The timer
//! mutex is taken by the core alone, for a few instructions at a time
//! (read the clock, arm, cancel, pop the expired batch), never across a
//! store append and never while another lock is being waited for.
//!
//! | operation | locks, in order | held across its append |
//! |---|---|---|
//! | `deploy_*` | registry (write) | registry (write) |
//! | `start` | registry (read, released), gate, timer (brief, twice) | destination gate |
//! | `fire`, `fire_batch`, `try_complete`, `cancel_timer` | instance, timer (brief, only if a timer settles) | instance |
//! | `fire_many`, `fire_runs`, `fire_runs_into` | each referenced instance, one at a time | instance |
//! | `advance` | timer alone (pop the batch); then per expiry instance, timer (brief); timer (move the clock) | instance |
//! | `snapshot`, `checkpoint` | registry (read), every gate ascending, every instance — all held to the end | — (the freeze) |
//!
//! Every lookup that misses the dense table — an unknown id, an
//! overflow id, an instance still being published — also takes its
//! shard's gate, alone and released before the instance lock.
//!
//! No path ever waits on the registry or a gate while holding an
//! instance lock, so the order is acyclic. (This matters for more than
//! tidiness: `RwLock` readers can queue behind a waiting writer, so a
//! registry read taken under an instance lock could deadlock against
//! `snapshot` + a pending deploy. An instance needs none: its cursor
//! co-owns the program it runs.)
//!
//! Each durable **control-record append rides inside the lock that
//! publishes its effect** (last column). That discipline is what makes
//! [`Runtime::checkpoint`]'s freeze a true cut — holding the
//! registry read lock, every gate, and every instance lock excludes
//! every in-flight control append, so no record can take a sequence
//! number below the checkpoint cut while the state it describes is
//! still invisible to the snapshot. (Without it, a start could append
//! its record, the checkpoint could truncate that record behind a
//! snapshot that misses the instance, and recovery would fail on the
//! instance's surviving event records.)
//!
//! ## Durability policy and blocking
//!
//! With a [`crate::WalStore`] attached, [`crate::Durability`] (set via
//! [`crate::WalOptions`]) decides how long those in-lock appends block:
//!
//! * `Strict` and `Coalesced` — an append blocks until its record is
//!   durable, but concurrent appends on a stripe share **one** fsync
//!   (the store's commit pipeline): the instance lock is held across
//!   the group wait, other instances proceed, and total fsync pressure
//!   drops with concurrency. `Coalesced` also lets the group's leader
//!   linger to gather more of it; it is the recommended policy for
//!   multi-client services.
//! * `Periodic` — appends return at staging time, so instance locks
//!   are barely held; a crash may lose up to one sync interval of
//!   *acknowledged* records (always a contiguous per-stripe suffix).
//!   Only for deployments that accept that loss window.
//!
//! The checkpoint cut is durability-safe in every mode: the store
//! quiesces its commit pipeline (flushing staged frames) before
//! choosing the cut, and the fleet freeze above excludes in-flight
//! appends, so acknowledged-but-unsynced records can never be
//! truncated behind a snapshot that misses them.
//!
//! ## Poisoning
//!
//! All locks recover from poisoning (`PoisonError::into_inner`): a panic
//! mid-operation either completed its journal append or left it
//! untouched, so the inner state is always valid. The symbol interner
//! follows the same discipline (see `ctr::symbol`).

use crate::fleet::{self, lock, TimerState};
use crate::{
    render_snapshot, Deployment, FireOutcome, Instance, InstanceId, Runtime, RuntimeError,
};
use ctr::goal::Goal;
use ctr_store::Store;
use std::collections::BTreeMap;
use std::ops::{Deref, Range};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard};

/// Number of stripes in the instance table. Ids are assigned round-robin
/// (`id % SHARD_COUNT`), so load spreads evenly; a power of two keeps the
/// modulo cheap.
pub const SHARD_COUNT: usize = 16;

type Cell = Mutex<Instance>;

/// Cells per chunk of a shard's dense table.
const CHUNK: u64 = 64;
type Chunk = [OnceLock<Cell>; CHUNK as usize];

/// Directory buckets per shard. Bucket `b` holds `2^b` chunks — chunks
/// `2^b − 1 ..= 2^(b+1) − 2` — so the dense table ends at slot
/// `CHUNK · (2^BUCKETS − 1)`.
const BUCKETS: usize = 32;
type Bucket = Box<[OnceLock<Box<Chunk>>]>;

/// Where a shard's dense table keeps `slot`: the directory bucket, the
/// chunk within the bucket and the cell within the chunk. `None` past
/// the directory.
fn locate(slot: u64) -> Option<(usize, usize, usize)> {
    let chunk = slot / CHUNK + 1;
    let bucket = chunk.ilog2() as usize;
    (bucket < BUCKETS).then(|| {
        (
            bucket,
            (chunk - (1 << bucket)) as usize,
            (slot % CHUNK) as usize,
        )
    })
}

/// One stripe of the instance table: instance `id` is slot
/// `id / SHARD_COUNT` of shard `id % SHARD_COUNT`.
///
/// The **dense table** is append-only and read without a lock: a
/// directory of geometrically growing buckets of fixed-size chunks of
/// cells. Buckets, chunks and cells are each written once (under the
/// gate) and never move, so a reader that finds a cell keeps a plain
/// reference to it for as long as it holds the runtime.
///
/// The **gate** serializes the writers — `start`, and recovery's
/// adoption — and is what the snapshot freeze takes to keep them out. A
/// reader takes it only to confirm a miss ([`Shard::find`]).
///
/// Memory stays proportional to the instances held, not to the largest
/// id: an id that would leave the dense table under about a quarter
/// full (a restored snapshot may name any id) goes to the small ordered
/// **overflow** map inside the gate instead.
#[derive(Default)]
pub(crate) struct Shard {
    dir: [OnceLock<Bucket>; BUCKETS],
    pub(crate) gate: Mutex<Gate>,
}

#[derive(Default)]
pub(crate) struct Gate {
    /// Instances the shard holds, dense and overflow.
    held: u64,
    overflow: BTreeMap<InstanceId, Arc<Cell>>,
}

/// An instance's cell as [`Shard::find`] hands it out: borrowed from
/// the dense table, or co-owned out of the overflow map (whose entries
/// live inside the gate, which the caller has let go of).
pub(crate) enum Found<'a> {
    Dense(&'a Cell),
    Overflow(Arc<Cell>),
}

impl Deref for Found<'_> {
    type Target = Cell;
    fn deref(&self) -> &Cell {
        match self {
            Found::Dense(cell) => cell,
            Found::Overflow(cell) => cell,
        }
    }
}

impl Shard {
    /// The lock-free lookup: two directory loads and the cell's.
    fn dense(&self, id: InstanceId) -> Option<&Cell> {
        let (bucket, chunk, cell) = locate(id / SHARD_COUNT as u64)?;
        self.dir[bucket].get()?.get(chunk)?.get()?[cell].get()
    }

    /// Instance `id`'s cell. A hit takes no lock. A **miss is confirmed
    /// under the gate** before it counts: `start` arms the wheel before
    /// it publishes the instance, so an `advance` that has already
    /// popped that timer must wait out the publish here rather than
    /// drop the expiry. The gate is released before the cell is handed
    /// out — the caller locks the instance without it.
    pub(crate) fn find(&self, id: InstanceId) -> Option<Found<'_>> {
        if let Some(cell) = self.dense(id) {
            return Some(Found::Dense(cell));
        }
        let gate = lock(&self.gate);
        match self.dense(id) {
            Some(cell) => Some(Found::Dense(cell)),
            None => gate.overflow.get(&id).cloned().map(Found::Overflow),
        }
    }

    /// Publishes `instance` as `id`, under the shard's gate.
    pub(crate) fn publish(&self, gate: &mut Gate, id: InstanceId, instance: Instance) {
        let slot = id / SHARD_COUNT as u64;
        let cell = Mutex::new(instance);
        let quarter_full = slot < gate.held.saturating_mul(4).saturating_add(CHUNK);
        let fresh = match locate(slot).filter(|_| quarter_full) {
            Some((bucket, chunk, at)) => {
                let chunks = self.dir[bucket]
                    .get_or_init(|| (0..1usize << bucket).map(|_| OnceLock::new()).collect());
                let chunk = chunks[chunk]
                    .get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
                chunk[at].set(cell).is_ok()
            }
            None => gate.overflow.insert(id, Arc::new(cell)).is_none(),
        };
        // `start` draws ids from a counter, and adoption refuses an id
        // `find` finds.
        assert!(fresh, "instance {id} published twice");
        gate.held += 1;
    }

    /// Bytes the dense table has allocated.
    #[cfg(test)]
    fn table_bytes(&self) -> usize {
        let buckets = self.dir.iter().filter_map(OnceLock::get);
        buckets
            .map(|chunks| {
                std::mem::size_of_val(&**chunks)
                    + chunks.iter().filter_map(OnceLock::get).count() * std::mem::size_of::<Chunk>()
            })
            .sum()
    }

    /// Every instance of the shard (the `index`-th), under its gate:
    /// the dense table's ascending, then the overflow's ascending.
    pub(crate) fn for_each<'a>(
        &'a self,
        index: usize,
        gate: &'a Gate,
        mut f: impl FnMut(InstanceId, &'a Cell),
    ) {
        for (bucket, chunks) in self.dir.iter().enumerate() {
            let first = (1u64 << bucket) - 1;
            for (chunk, cells) in chunks.get().into_iter().flat_map(|c| c.iter()).enumerate() {
                for (at, cell) in cells.get().into_iter().flat_map(|c| c.iter()).enumerate() {
                    if let Some(cell) = cell.get() {
                        let slot = (first + chunk as u64) * CHUNK + at as u64;
                        f(slot * SHARD_COUNT as u64 + index as u64, cell);
                    }
                }
            }
        }
        for (&id, cell) in &gate.overflow {
            f(id, cell);
        }
    }
}

/// The runtime's state, shared by every clone of a [`Runtime`] handle.
pub(crate) struct Inner {
    /// Read-mostly: `start` takes a read lock and clones an `Arc`;
    /// only deployment takes the write lock.
    registry: RwLock<BTreeMap<String, Arc<Deployment>>>,
    pub(crate) shards: [Shard; SHARD_COUNT],
    pub(crate) next_id: AtomicU64,
    /// Replay work recovery did (see [`Runtime::replayed_steps`]);
    /// written only while recovery still owns the table.
    pub(crate) replayed: u64,
    /// Durability backend shared by every shard; immutable for the life
    /// of the handle, so reads need no lock. The WAL backend stripes
    /// its segments by the same `id % SHARD_COUNT` rule as the instance
    /// table, so two instances on different shards never contend on a
    /// log stripe either.
    pub(crate) store: Option<Arc<dyn Store>>,
    /// Timer queue + logical clock; strictly below every other lock.
    pub(crate) timers: Mutex<TimerState>,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            registry: RwLock::new(BTreeMap::new()),
            shards: std::array::from_fn(|_| Shard::default()),
            next_id: AtomicU64::new(0),
            replayed: 0,
            store: None,
            timers: Mutex::new(TimerState::default()),
        }
    }
}

impl Inner {
    pub(crate) fn shard(&self, id: InstanceId) -> &Shard {
        &self.shards[(id % SHARD_COUNT as u64) as usize]
    }

    pub(crate) fn registry(&self) -> RwLockReadGuard<'_, BTreeMap<String, Arc<Deployment>>> {
        self.registry.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn deployment(&self, workflow: &str) -> Result<Arc<Deployment>, RuntimeError> {
        self.registry()
            .get(workflow)
            .cloned()
            .ok_or_else(|| RuntimeError::UnknownWorkflow(workflow.to_owned()))
    }

    /// See [`Runtime::deploy_compiled`]: the durable append and the
    /// insert, both under the registry write lock.
    pub(crate) fn deploy_compiled(&self, name: &str, compiled: Goal) -> Result<(), RuntimeError> {
        let deployment = Arc::new(Deployment::new(name, compiled)?);
        let mut registry = self
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        fleet::persist_deploy(&deployment, self.store.as_deref())?;
        registry.insert(name.to_owned(), deployment);
        Ok(())
    }

    /// Lookup and locking for one instance: runs `f` under the
    /// instance's own lock — on a hit the only lock taken
    /// ([`Shard::find`]), so operations on different instances share
    /// nothing they write.
    pub(crate) fn with_instance<R>(
        &self,
        id: InstanceId,
        f: impl FnOnce(&mut Instance) -> R,
    ) -> Result<R, RuntimeError> {
        let cell = self.shard(id).find(id);
        let cell = cell.ok_or(RuntimeError::UnknownInstance(id))?;
        let mut inst = lock(&cell);
        Ok(f(&mut inst))
    }

    /// Freezes the fleet (registry read lock, every shard's gate in
    /// ascending index order, then every instance lock), renders the
    /// snapshot text, and runs `consume` on it *before* releasing
    /// anything — the shared underpinning of [`Runtime::snapshot`] and
    /// [`Runtime::checkpoint`].
    pub(crate) fn frozen_snapshot<R>(&self, consume: impl FnOnce(String) -> R) -> R {
        let registry = self.registry();
        let gates: Vec<MutexGuard<'_, Gate>> = self.shards.iter().map(|s| lock(&s.gate)).collect();
        let held: u64 = gates.iter().map(|gate| gate.held).sum();
        let mut instance_guards: Vec<(InstanceId, MutexGuard<'_, Instance>)> =
            Vec::with_capacity(held as usize);
        for (index, (shard, gate)) in self.shards.iter().zip(&gates).enumerate() {
            shard.for_each(index, gate, |id, cell| {
                instance_guards.push((id, lock(cell)));
            });
        }
        // Ids interleave across shards (round-robin); the output orders
        // them globally.
        instance_guards.sort_unstable_by_key(|(id, _)| *id);
        consume(render_snapshot(
            registry.iter().map(|(n, d)| (n, &**d)),
            instance_guards.iter().map(|(id, guard)| (*id, &**guard)),
        ))
    }
}

/// End of an intrusive list, empty table entry.
const NIL: u32 = u32::MAX;

/// One instance's share of a burst.
struct Group {
    id: InstanceId,
    /// The group's runs by input position, first and last, linked in
    /// input order through [`Run::next`].
    head: u32,
    tail: u32,
}

/// One run of a burst, by input position.
#[derive(Clone, Copy)]
struct Run {
    /// The next run against the same instance, or [`NIL`].
    next: u32,
    /// Where the run's outcomes sit in [`BurstScratch::outcomes`].
    offset: u32,
    len: u32,
}

/// The working memory of [`Runtime::fire_runs_into`]: the burst
/// planner's tables and the burst's outcomes. Owned by the caller, so a
/// connection that submits burst after burst reuses one set of
/// allocations.
///
/// The outcomes of a burst sit in **one** vector, instance by instance
/// in first-appearance order and, within an instance, run by run in
/// input order — the order the fleet core produces them in, so it
/// pushes straight into it. [`BurstScratch::outcomes`] finds a run's by
/// its input position.
#[derive(Default)]
pub struct BurstScratch {
    /// One per distinct instance, in first-appearance order.
    groups: Vec<Group>,
    /// Open-addressed instance id → index into `groups`; a power of two
    /// in size and at most half full.
    table: Vec<u32>,
    runs: Vec<Run>,
    outcomes: Vec<FireOutcome>,
}

impl BurstScratch {
    /// An empty scratch; it sizes itself to the bursts it is given.
    pub fn new() -> BurstScratch {
        BurstScratch::default()
    }

    /// The outcomes of the `run`-th run of the burst last fired through
    /// this scratch, one per event of the run.
    pub fn outcomes(&self, run: usize) -> &[FireOutcome] {
        &self.outcomes[self.span(run)]
    }

    fn span(&self, run: usize) -> Range<usize> {
        let run = self.runs[run];
        run.offset as usize..(run.offset + run.len) as usize
    }

    /// Moves a run's outcomes out, for the adapters that return owned
    /// vectors.
    fn take_outcomes(&mut self, run: usize) -> impl Iterator<Item = FireOutcome> + '_ {
        let span = self.span(run);
        self.outcomes[span]
            .iter_mut()
            .map(|outcome| std::mem::replace(outcome, FireOutcome::Skipped))
    }
}

/// The input positions of the runs of the group whose first is `head`,
/// in input order.
fn runs_from(runs: &[Run], head: u32) -> impl Iterator<Item = usize> + Clone + '_ {
    let mut at = head;
    std::iter::from_fn(move || {
        let run = (at != NIL).then_some(at as usize)?;
        at = runs[run].next;
        Some(run)
    })
}

/// The burst entry points.
impl Runtime {
    /// The burst planner under [`Runtime::fire_many`] and
    /// [`Runtime::fire_runs_into`]: groups a burst's `n` runs —
    /// `run_at(i)` is the `i`-th run's instance and event count — by
    /// instance and lays the burst's outcomes out. One pass over the
    /// runs, no sort: a run finds its group through a small hash table
    /// and joins the tail of the group's list, so groups come out in
    /// first-appearance order (which keeps cross-instance progress
    /// deterministic) with their runs in input order. It touches no
    /// runtime state and takes no lock.
    fn plan(n: usize, run_at: impl Fn(usize) -> (InstanceId, usize), scratch: &mut BurstScratch) {
        let BurstScratch {
            groups,
            table,
            runs,
            outcomes,
        } = scratch;
        let slots = (n * 2).next_power_of_two().max(2);
        assert!(slots <= NIL as usize, "a burst of {n} runs");
        groups.clear();
        runs.clear();
        outcomes.clear();
        table.clear();
        table.resize(slots, NIL);
        for i in 0..n {
            let (id, len) = run_at(i);
            let len = u32::try_from(len).expect("a run of more than u32::MAX events");
            runs.push(Run {
                next: NIL,
                offset: 0,
                len,
            });
            // Fibonacci hashing: sequential ids spread over the table.
            let mut at = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (slots - 1);
            while table[at] != NIL && groups[table[at] as usize].id != id {
                at = (at + 1) & (slots - 1);
            }
            match table[at] {
                NIL => {
                    table[at] = groups.len() as u32;
                    groups.push(Group {
                        id,
                        head: i as u32,
                        tail: i as u32,
                    });
                }
                g => {
                    let group = &mut groups[g as usize];
                    runs[group.tail as usize].next = i as u32;
                    group.tail = i as u32;
                }
            }
        }
        let mut total = 0u32;
        for group in groups.iter() {
            let mut at = group.head;
            while at != NIL {
                let run = &mut runs[at as usize];
                run.offset = total;
                total = total
                    .checked_add(run.len)
                    .expect("a burst of more than u32::MAX events");
                at = run.next;
            }
        }
        outcomes.reserve(total as usize);
    }

    /// One instance's share of a burst that addresses many, fired under
    /// one acquisition of its lock (see `fleet::fire_burst`); `out`
    /// receives one outcome per event, after the outcomes of the groups
    /// before it. A group that cannot be tried at all — the id is
    /// unknown, or a rollback found the history unreplayable — fails
    /// alone: every one of its runs rejects its first event with the
    /// reason and skips the rest, exactly as back-to-back submissions
    /// against that instance would, and the other groups proceed.
    fn fire_group<'a>(
        &self,
        group: &Group,
        events: impl Iterator<Item = (bool, &'a str)> + Clone,
        out: &mut Vec<FireOutcome>,
    ) {
        let first = out.len();
        let tried = self
            .inner
            .with_instance(group.id, |inst| {
                let timers = &self.inner.timers;
                fleet::fire_burst(inst, group.id, events.clone(), out, timers, self.store())
            })
            .and_then(|tried| tried);
        if let Err(e) = tried {
            out.truncate(first);
            fleet::reject_runs(events, &e, out);
        }
    }

    /// Fires a mixed batch of `(instance, event)` pairs, amortizing lock
    /// traffic across the fleet: the batch is grouped by instance in one
    /// linear pass, and each referenced instance is looked up and locked
    /// once, in first-appearance order.
    ///
    /// Within each instance its events fire in input order with
    /// [`Runtime::fire_batch`] semantics: first failure stops *that
    /// instance's* sub-batch (committed prefix journaled, rest
    /// [`FireOutcome::Skipped`]) while other instances' sub-batches
    /// proceed independently. An unknown instance id rejects its first
    /// event with [`RuntimeError::UnknownInstance`] and skips the rest.
    /// Returns one [`FireOutcome`] per input pair, in input positions.
    ///
    /// Instance locks are taken one at a time, none held while the next
    /// is waited for.
    pub fn fire_many<S: AsRef<str>>(&self, batch: &[(InstanceId, S)]) -> Vec<FireOutcome> {
        let mut scratch = BurstScratch::new();
        Self::plan(batch.len(), |i| (batch[i].0, 1), &mut scratch);
        for group in &scratch.groups {
            // An instance's pairs are one run.
            let events = runs_from(&scratch.runs, group.head)
                .enumerate()
                .map(|(k, i)| (k == 0, batch[i].1.as_ref()));
            self.fire_group(group, events, &mut scratch.outcomes);
        }
        (0..batch.len())
            .map(|i| scratch.take_outcomes(i).next().expect("one per pair"))
            .collect()
    }

    /// Fires a burst of independent *runs* — `(instance, events)`
    /// sub-batches — amortizing lock and durability traffic while
    /// preserving each run's identity: runs against the same instance
    /// execute in input order under **one** instance-lock acquisition,
    /// each with [`Runtime::fire_batch`] semantics (its failure stops
    /// that run only, never a later run), and all of an instance's
    /// committed events from the burst reach the store through **one**
    /// append — one WAL group commit per instance per burst.
    ///
    /// This is the service batching primitive: a connection that reads
    /// several pipelined `fire`/`fire_batch` requests submits them as
    /// one burst and gets per-request outcomes identical to submitting
    /// them one by one — batching amortizes, it never merges requests
    /// into a wider failure domain (except store-append failure, where
    /// an instance's share of the burst is one commit unit and nothing
    /// of it is acknowledged).
    ///
    /// The outcomes land in `scratch`, one slice per input run
    /// ([`BurstScratch::outcomes`]); a caller that keeps its scratch
    /// allocates nothing per burst. Every run against an unknown
    /// instance rejects its own first event and skips the rest. Locking
    /// is [`Runtime::fire_many`]'s: instance locks, one at a time.
    pub fn fire_runs_into<S: AsRef<str>>(
        &self,
        runs: &[(InstanceId, &[S])],
        scratch: &mut BurstScratch,
    ) {
        Self::plan(runs.len(), |i| (runs[i].0, runs[i].1.len()), scratch);
        for group in &scratch.groups {
            let events =
                runs_from(&scratch.runs, group.head).flat_map(|i| fleet::one_run(runs[i].1));
            self.fire_group(group, events, &mut scratch.outcomes);
        }
    }

    /// [`Runtime::fire_runs_into`] with owned results: one outcome
    /// vector per input run, in input positions.
    pub fn fire_runs<S: AsRef<str>>(&self, runs: &[(InstanceId, &[S])]) -> Vec<Vec<FireOutcome>> {
        let mut scratch = BurstScratch::new();
        self.fire_runs_into(runs, &mut scratch);
        (0..runs.len())
            .map(|i| scratch.take_outcomes(i).collect())
            .collect()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{recovered, wal_on};
    use crate::InstanceStatus;
    use ctr_store::sim::{Fault, Op, SimFs};
    use std::sync::atomic::Ordering;

    const PAY: &str = "workflow pay { graph invoice * (approve + reject) * file; }";

    fn shared_pay() -> Runtime {
        let rt = Runtime::new();
        rt.deploy_source(PAY).unwrap();
        rt
    }

    #[test]
    fn handles_are_send_sync_and_cloneable() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<Runtime>();
    }

    #[test]
    fn racing_exclusive_branches_serialize_per_instance() {
        // Two threads race to decide the same instance; exactly one of
        // approve/reject lands, every time — the per-instance lock is
        // the arbiter now, not a global one.
        for round in 0..20 {
            let rt = shared_pay();
            let id = rt.start("pay").unwrap();
            rt.fire(id, "invoice").unwrap();

            let (a, b) = (rt.clone(), rt.clone());
            let ta = std::thread::spawn(move || a.fire(id, "approve").is_ok());
            let tb = std::thread::spawn(move || b.fire(id, "reject").is_ok());
            let (ra, rb) = (ta.join().unwrap(), tb.join().unwrap());
            assert!(
                ra ^ rb,
                "round {round}: exactly one decision wins (a={ra}, b={rb})"
            );

            let journal = rt.journal(id).unwrap();
            assert_eq!(journal.len(), 2);
            assert!(journal[1] == "approve" || journal[1] == "reject");
        }
    }

    #[test]
    fn loser_gets_post_commit_alternatives() {
        let rt = shared_pay();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        rt.fire(id, "approve").unwrap();
        let err = rt.fire(id, "reject").unwrap_err();
        let RuntimeError::NotEligible { event, eligible } = err else {
            panic!("expected NotEligible");
        };
        assert_eq!(event, "reject");
        assert_eq!(eligible, vec!["file".to_owned()], "post-commit view");
    }

    #[test]
    fn concurrent_instances_do_not_interfere() {
        let rt = shared_pay();
        let ids: Vec<_> = (0..32).map(|_| rt.start("pay").unwrap()).collect();
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| {
                let rt = rt.clone();
                std::thread::spawn(move || {
                    rt.fire(id, "invoice").unwrap();
                    rt.fire(id, "approve").unwrap();
                    rt.fire(id, "file").unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for id in ids {
            assert_eq!(rt.status(id).unwrap(), InstanceStatus::Completed);
        }
    }

    #[test]
    fn instances_stripe_across_shards() {
        let rt = shared_pay();
        let ids: Vec<_> = (0..SHARD_COUNT as u64 * 2)
            .map(|_| rt.start("pay").unwrap())
            .collect();
        // Sequential ids land round-robin: every shard holds exactly two.
        for shard in &rt.inner.shards {
            assert_eq!(lock(&shard.gate).held, 2);
        }
        assert_eq!(rt.instances(), ids);
    }

    #[test]
    fn deploy_while_firing_does_not_disturb_running_instances() {
        let rt = shared_pay();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        // Redeploy the same name with a different body mid-flight.
        rt.deploy_source("workflow pay { graph invoice * file; }")
            .unwrap();
        // The running instance still follows the program it pinned …
        assert_eq!(
            rt.eligible(id).unwrap(),
            vec!["approve".to_owned(), "reject".to_owned()]
        );
        // … and new instances follow the new deployment.
        let id2 = rt.start("pay").unwrap();
        rt.fire(id2, "invoice").unwrap();
        assert_eq!(rt.eligible(id2).unwrap(), vec!["file".to_owned()]);
    }

    #[test]
    fn enact_resolves_the_deployment_and_holds_no_locks() {
        let rt = shared_pay();
        // Handlers fire events on the *same* shared runtime while the
        // enactment is in flight: if `enact` held any runtime lock this
        // would deadlock instead of completing.
        let rt2 = rt.clone();
        let id = rt.start("pay").unwrap();
        let mut enactor = crate::Enactor::new();
        enactor.register(
            "invoice",
            Box::new(move |_| {
                rt2.fire(id, "invoice")
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }),
        );
        let report = rt.enact("pay", &enactor).unwrap();
        assert!(report.is_success());
        assert_eq!(report.completed.len(), 3);
        assert_eq!(rt.journal(id).unwrap(), vec!["invoice"]);
        assert!(matches!(
            rt.enact("ghost", &crate::Enactor::new()).unwrap_err(),
            RuntimeError::UnknownWorkflow(_)
        ));
    }

    #[test]
    fn a_fleet_across_shards_snapshots_in_id_order() {
        // Ids run on across every shard, and the snapshot lists the
        // instances in id order whichever shard holds them.
        let rt = shared_pay();
        let n = SHARD_COUNT as u64 + 3;
        for id in 0..n {
            assert_eq!(rt.start("pay"), Ok(id));
        }
        for id in [0u64, 3, 7, 17] {
            rt.fire(id, "invoice").unwrap();
        }
        rt.fire(3, "approve").unwrap();
        let journal = |id| match id {
            3 => "invoice approve",
            0 | 7 | 17 => "invoice",
            _ => "",
        };
        let instances: Vec<String> = (rt.snapshot().lines())
            .filter(|line| line.starts_with("instance "))
            .map(str::to_owned)
            .collect();
        let expected: Vec<String> = (0..n)
            .map(|id| format!("instance {id} of pay [running]: {}", journal(id)))
            .collect();
        assert_eq!(instances, expected);
    }

    #[test]
    fn snapshot_restore_round_trips_through_shards() {
        let rt = shared_pay();
        let i1 = rt.start("pay").unwrap();
        let i2 = rt.start("pay").unwrap();
        rt.fire(i1, "invoice").unwrap();
        rt.fire(i1, "approve").unwrap();
        rt.fire(i2, "invoice").unwrap();
        let restored = Runtime::restore(&rt.snapshot()).unwrap();
        assert_eq!(restored.journal(i1).unwrap(), vec!["invoice", "approve"]);
        assert_eq!(
            restored.eligible(i2).unwrap(),
            vec!["approve".to_owned(), "reject".to_owned()]
        );
        // Fresh ids allocate past the restored ones.
        let i3 = restored.start("pay").unwrap();
        assert!(i3 > i2);
    }

    #[test]
    fn snapshot_under_concurrency_is_consistent() {
        let rt = shared_pay();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        let writer = {
            let rt = rt.clone();
            std::thread::spawn(move || {
                let _ = rt.fire(id, "approve");
                let _ = rt.fire(id, "file");
            })
        };
        // Snapshots taken at any point restore cleanly.
        for _ in 0..10 {
            let snap = rt.snapshot();
            Runtime::restore(&snap).expect("snapshot is internally consistent");
        }
        writer.join().unwrap();
        let final_snap = rt.snapshot();
        let restored = Runtime::restore(&final_snap).unwrap();
        assert!(restored.is_complete(id).unwrap());
    }

    #[test]
    fn restore_replays_once_and_the_cursor_goes_on_from_there() {
        let rt = shared_pay();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        rt.fire(id, "reject").unwrap();
        assert_eq!(rt.replayed_steps(), 0);
        let rt = Runtime::restore(&rt.snapshot()).unwrap();
        assert_eq!(rt.replayed_steps(), 2);
        assert_eq!(rt.journal(id).unwrap(), vec!["invoice", "reject"]);
        assert_eq!(rt.eligible(id).unwrap(), vec!["file".to_owned()]);
        rt.fire(id, "file").unwrap();
        assert!(rt.is_complete(id).unwrap());
        assert_eq!(rt.replayed_steps(), 2, "fires replay nothing");
    }

    #[test]
    fn fire_batch_stops_at_the_first_refusal() {
        let rt = shared_pay();
        let id = rt.start("pay").unwrap();
        let events = ["invoice", "reject", "reject", "file"];
        use FireOutcome::{Fired, Rejected, Skipped};
        let refused = RuntimeError::NotEligible {
            event: "reject".to_owned(),
            eligible: vec!["file".to_owned()],
        };
        assert_eq!(
            rt.fire_batch(id, &events).unwrap(),
            [
                Fired(InstanceStatus::Running),
                Fired(InstanceStatus::Running),
                Rejected(refused),
                Skipped
            ]
        );
        assert_eq!(rt.journal(id).unwrap(), ["invoice", "reject"]);
    }

    #[test]
    fn fire_many_splices_outcomes_to_input_positions() {
        let rt = shared_pay();
        let i1 = rt.start("pay").unwrap();
        let i2 = rt.start("pay").unwrap();
        let ghost = 999u64;
        // Interleave two instances and an unknown id; per-instance event
        // order is the input order regardless of interleaving.
        let batch = [
            (i1, "invoice"),
            (i2, "invoice"),
            (ghost, "invoice"),
            (i1, "approve"),
            (ghost, "file"),
            (i2, "file"), // ineligible: i2 has not decided yet
            (i2, "reject"),
            (i1, "file"),
        ];
        let outcomes = rt.fire_many(&batch);
        use FireOutcome::{Fired, Rejected, Skipped};
        use InstanceStatus::{Completed, Running};
        assert_eq!(outcomes.len(), batch.len());
        assert_eq!(outcomes[0], Fired(Running));
        assert_eq!(outcomes[1], Fired(Running));
        assert_eq!(outcomes[2], Rejected(RuntimeError::UnknownInstance(ghost)));
        assert_eq!(outcomes[3], Fired(Running));
        assert_eq!(outcomes[4], Skipped, "later event of the unknown id");
        assert!(
            matches!(&outcomes[5], Rejected(RuntimeError::NotEligible { event, .. }) if event == "file")
        );
        assert_eq!(outcomes[6], Skipped, "after i2's failure");
        assert_eq!(outcomes[7], Fired(Completed));
        // Committed prefixes landed; i2 remains decidable.
        assert_eq!(rt.journal(i1).unwrap(), vec!["invoice", "approve", "file"]);
        assert_eq!(rt.journal(i2).unwrap(), vec!["invoice"]);
        rt.fire(i2, "reject").unwrap();
        rt.fire(i2, "file").unwrap();
        assert!(rt.is_complete(i2).unwrap());
    }

    #[test]
    fn fire_many_matches_sequential_fires_across_shards() {
        // A batch spanning more instances than shards produces the same
        // fleet state as firing every pair individually.
        let many = shared_pay();
        let single = shared_pay();
        let n = SHARD_COUNT as u64 * 2 + 3;
        let mut batch: Vec<(InstanceId, &str)> = Vec::new();
        for _ in 0..n {
            let a = many.start("pay").unwrap();
            let b = single.start("pay").unwrap();
            assert_eq!(a, b);
        }
        for round in ["invoice", "approve", "file"] {
            for id in 0..n {
                batch.push((id, round));
            }
        }
        let outcomes = many.fire_many(&batch);
        for (&(id, event), outcome) in batch.iter().zip(&outcomes) {
            assert_eq!(single.fire(id, event).unwrap(), {
                let FireOutcome::Fired(status) = outcome else {
                    panic!("expected Fired, got {outcome:?}");
                };
                *status
            });
        }
        assert_eq!(many.snapshot(), single.snapshot());
    }

    #[test]
    fn fire_many_singleton_batches_match_individual_fires() {
        // Pairwise-distinct ids take the allocation-light fast path;
        // outcomes (including unknown-instance and not-eligible
        // rejections) must be exactly those of per-pair fires.
        let fast = shared_pay();
        let slow = shared_pay();
        let n = SHARD_COUNT as u64 + 5;
        for _ in 0..n {
            assert_eq!(fast.start("pay").unwrap(), slow.start("pay").unwrap());
        }
        let ghost = 999u64;
        let mut batch: Vec<(InstanceId, &str)> = (0..n).map(|id| (id, "invoice")).collect();
        batch.push((ghost, "invoice"));
        batch.push((n - 1, "file")); // duplicate id → general path
        let outcomes = fast.fire_many(&batch);
        for (&(id, event), outcome) in batch.iter().zip(&outcomes) {
            match slow.fire(id, event) {
                Ok(status) => assert_eq!(*outcome, FireOutcome::Fired(status)),
                Err(e) => assert_eq!(*outcome, FireOutcome::Rejected(e)),
            }
        }
        assert_eq!(fast.snapshot(), slow.snapshot());
        // And the genuinely-singleton version of the same batch.
        batch.pop();
        let outcomes = fast.fire_many(&batch[..]);
        assert!(
            matches!(&outcomes[..n as usize], o if o.iter().all(|o| matches!(o, FireOutcome::Rejected(RuntimeError::NotEligible { .. })))),
            "second invoice is no longer eligible anywhere"
        );
        assert_eq!(
            outcomes[n as usize],
            FireOutcome::Rejected(RuntimeError::UnknownInstance(ghost))
        );
    }

    #[test]
    fn fire_runs_matches_back_to_back_fire_batches() {
        // A burst of runs — including two runs on the same instance
        // where the first fails mid-way — must produce exactly the
        // outcomes and journals of sequential fire_batch calls.
        let burst = shared_pay();
        let seq = shared_pay();
        let a = burst.start("pay").unwrap();
        assert_eq!(a, seq.start("pay").unwrap());
        let b = burst.start("pay").unwrap();
        assert_eq!(b, seq.start("pay").unwrap());
        let runs: Vec<(InstanceId, &[&str])> = vec![
            (a, &["invoice", "file"]), // "file" ineligible: stops run 1
            (b, &["invoice"]),
            (a, &["approve", "file"]), // run 3 proceeds despite run 1's failure
            (b, &["reject", "file"]),
        ];
        let outcomes = burst.fire_runs(&runs);
        assert_eq!(outcomes.len(), runs.len());
        for ((id, events), outcome) in runs.iter().zip(&outcomes) {
            assert_eq!(outcome, &seq.fire_batch(*id, events).unwrap());
        }
        assert_eq!(burst.snapshot(), seq.snapshot());
        assert_eq!(
            burst.journal(a).unwrap(),
            vec!["invoice", "approve", "file"]
        );
        // Every run against an unknown id rejects its own first event —
        // each run is a separate logical request.
        let ghost = 999u64;
        let ghost_runs: Vec<(InstanceId, &[&str])> =
            vec![(ghost, &["invoice", "file"]), (ghost, &["approve"])];
        let outcomes = burst.fire_runs(&ghost_runs);
        assert_eq!(
            outcomes[0],
            vec![
                FireOutcome::Rejected(RuntimeError::UnknownInstance(ghost)),
                FireOutcome::Skipped
            ]
        );
        assert_eq!(
            outcomes[1],
            vec![FireOutcome::Rejected(RuntimeError::UnknownInstance(ghost))]
        );
    }

    #[test]
    fn fire_runs_appends_once_per_instance_per_burst() {
        use ctr_store::MemStore;
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
        rt.deploy_source(PAY).unwrap();
        let a = rt.start("pay").unwrap();
        let b = rt.start("pay").unwrap();
        let before = store.stats().appends;
        // Three runs on `a`, one on `b` → exactly two Events appends.
        let runs: Vec<(InstanceId, &[&str])> = vec![
            (a, &["invoice"]),
            (b, &["invoice", "approve"]),
            (a, &["approve"]),
            (a, &["file"]),
        ];
        for outcome in rt.fire_runs(&runs).into_iter().flatten() {
            assert!(matches!(outcome, FireOutcome::Fired(_)));
        }
        assert_eq!(store.stats().appends - before, 2);
        // The grouped appends replay to the same fleet.
        let recovered = Runtime::open(store).unwrap();
        assert_eq!(recovered.snapshot(), rt.snapshot());
    }

    #[test]
    fn fire_runs_store_failure_rolls_back_the_whole_burst() {
        let fs = SimFs::new(1);
        let rt = Runtime::with_store(wal_on(&fs));
        rt.deploy_source(PAY).unwrap();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        fs.inject(Some(Op::Append), 0, Fault::Eio, true);
        let runs: Vec<(InstanceId, &[&str])> = vec![(id, &["approve"]), (id, &["file"])];
        let outcomes = rt.fire_runs(&runs);
        // Every run reports the store failure shape; nothing committed.
        assert!(matches!(
            outcomes[0][0],
            FireOutcome::Rejected(RuntimeError::Store(_))
        ));
        assert!(matches!(
            outcomes[1][0],
            FireOutcome::Rejected(RuntimeError::Store(_))
        ));
        assert_eq!(rt.journal(id).unwrap(), vec!["invoice"]);
        assert_eq!(rt.status(id).unwrap(), InstanceStatus::Running);
        // The instance stays usable once the store heals.
        fs.heal();
        rt.fire(id, "approve").unwrap();
        rt.fire(id, "file").unwrap();
        assert!(rt.is_complete(id).unwrap());
    }

    #[test]
    fn shared_store_survives_crash_and_recovers_sharded() {
        use ctr_store::MemStore;
        let store = Arc::new(MemStore::new());
        let snap_before;
        {
            let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
            rt.deploy_source(PAY).unwrap();
            // Span several shards.
            let ids: Vec<_> = (0..SHARD_COUNT as u64 + 3)
                .map(|_| rt.start("pay").unwrap())
                .collect();
            let batch: Vec<(InstanceId, &str)> = ids.iter().map(|&id| (id, "invoice")).collect();
            for outcome in rt.fire_many(&batch) {
                assert!(matches!(outcome, FireOutcome::Fired(_)));
            }
            rt.fire(3, "approve").unwrap();
            snap_before = rt.snapshot();
        }
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap_before);
        assert_eq!(rt.journal(3).unwrap(), vec!["invoice", "approve"]);
        let stats = rt.store_stats().expect("store stays attached");
        assert!(stats.appends > 0);
    }

    #[test]
    fn shared_checkpoint_compacts_under_the_freeze() {
        use ctr_store::{MemStore, Store as _};
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
        rt.deploy_source(PAY).unwrap();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        rt.checkpoint().unwrap();
        rt.fire(id, "approve").unwrap();
        let replay = store.replay().unwrap();
        assert!(replay.snapshot.is_some());
        assert_eq!(replay.records.len(), 1, "pre-checkpoint records truncated");
        // Concurrent fires + checkpoints never lose an event.
        let writer = {
            let rt = rt.clone();
            std::thread::spawn(move || {
                let _ = rt.fire(id, "file");
            })
        };
        for _ in 0..5 {
            rt.checkpoint().unwrap();
        }
        writer.join().unwrap();
        rt.checkpoint().unwrap();
        let recovered = Runtime::open(store).unwrap();
        assert_eq!(recovered.snapshot(), rt.snapshot());
        assert!(recovered.is_complete(id).unwrap());
    }

    #[test]
    fn checkpoint_never_loses_concurrent_starts_or_deploys() {
        use ctr_store::MemStore;
        // Regression: `start` used to append its Start record *before*
        // taking the shard lock (and deploys appended before the
        // registry write lock), so a checkpoint could freeze the fleet
        // without the new instance, truncate its already-appended Start
        // record behind the snapshot, and recovery would then fail with
        // UnknownInstance on the instance's surviving event records.
        // Hammer starts, fires, redeploys, and checkpoints concurrently;
        // recovery reproducing the exact fleet is the assertion.
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
        rt.deploy_source(PAY).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rt = rt.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let id = rt.start("pay").unwrap();
                        rt.fire(id, "invoice").unwrap();
                    }
                });
            }
            let deployer = rt.clone();
            scope.spawn(move || {
                for _ in 0..50 {
                    deployer.deploy_source(PAY).unwrap();
                }
            });
            let compactor = rt.clone();
            scope.spawn(move || {
                for _ in 0..50 {
                    compactor.checkpoint().unwrap();
                }
            });
        });
        let recovered = Runtime::open(store).unwrap();
        assert_eq!(recovered.snapshot(), rt.snapshot());
        assert_eq!(recovered.instances().len(), 200);
    }

    const TIMED: &str = "workflow timed { graph invoice * approve * file; after(approve, 30s); }";
    const GUARDED: &str = "workflow guarded { graph invoice * approve; deadline(approve, 1h); }";

    #[test]
    fn timers_arm_expire_and_settle() {
        let rt = Runtime::new();
        for src in [TIMED, GUARDED] {
            rt.deploy_source(src).unwrap();
        }
        let t = rt.start("timed").unwrap();
        let g = rt.start("guarded").unwrap();
        assert_eq!(rt.pending_timer_count(), 2);
        assert_eq!(rt.next_timer_due(), Some(30_000));
        rt.fire(t, "invoice").unwrap();
        assert_eq!(
            rt.advance(30_000).unwrap(),
            vec![(t, "approve@after30000".to_owned())]
        );
        assert_eq!(rt.clock_ms(), 30_000);
        assert_eq!(rt.pending_timers(t).unwrap(), Vec::new());
        assert_eq!(
            rt.pending_timers(g).unwrap(),
            vec![("approve@deadline3600000".to_owned(), 3_600_000)]
        );
        // The guarded deadline is satisfied by its base event.
        rt.fire(g, "invoice").unwrap();
        rt.fire(g, "approve").unwrap();
        assert!(rt.pending_timers(g).unwrap().is_empty());
        assert_eq!(rt.pending_timer_count(), 0);
    }

    #[test]
    fn a_far_future_tick_does_not_stall_advance() {
        // Durations parse up to i64::MAX ms; a due of 2^62 ms must not
        // make `advance` walk the time in between under the timer lock.
        const FAR: &str = "workflow w { graph a * b; after(b, 4611686018427387904ms); }";
        const TICK: &str = "b@after4611686018427387904";
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let rt = Runtime::new();
            rt.deploy_source(FAR).unwrap();
            let id = rt.start("w").unwrap();
            let fired = rt.advance(1 << 62).unwrap() == vec![(id, TICK.to_owned())];
            tx.send(fired && rt.clock_ms() == 1 << 62).unwrap();
        });
        let fired = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("advance returns");
        assert!(fired, "the far tick fires at its due");
    }

    #[test]
    fn shared_cancel_timer_disarms_and_rejects_unknowns() {
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
        assert_eq!(rt.pending_timer_count(), 0);
        assert!(rt.advance(100_000).unwrap().is_empty());
    }

    #[test]
    fn concurrent_advances_fire_each_timer_exactly_once() {
        let rt = Runtime::new();
        rt.deploy_source(TIMED).unwrap();
        let n = 64u64;
        let ids: Vec<_> = (0..n).map(|_| rt.start("timed").unwrap()).collect();
        for &id in &ids {
            rt.fire(id, "invoice").unwrap();
        }
        assert_eq!(rt.pending_timer_count(), n as usize);
        let mut total = 0usize;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let rt = rt.clone();
                    scope.spawn(move || rt.advance(30_000).unwrap().len())
                })
                .collect();
            for h in handles {
                total += h.join().unwrap();
            }
        });
        assert_eq!(total, n as usize, "every tick fired exactly once");
        assert_eq!(rt.pending_timer_count(), 0);
        for &id in &ids {
            assert_eq!(
                rt.journal(id).unwrap(),
                vec!["invoice", "approve@after30000"]
            );
            rt.fire(id, "approve").unwrap();
        }
    }

    #[test]
    fn shared_timer_recovery_rearms_from_the_wal() {
        use ctr_store::MemStore;
        let store = Arc::new(MemStore::new());
        let snap_before;
        {
            let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
            rt.deploy_source(TIMED).unwrap();
            let id = rt.start("timed").unwrap();
            rt.fire(id, "invoice").unwrap();
            snap_before = rt.snapshot();
        }
        // Arm-before-visible: the arm record precedes the start record.
        let records = store.replay().unwrap().records;
        let arm = records
            .iter()
            .position(|r| matches!(r, ctr_store::Record::TimerArm { .. }))
            .expect("arm record present");
        let start = records
            .iter()
            .position(|r| matches!(r, ctr_store::Record::Start { .. }))
            .expect("start record present");
        assert!(arm < start, "arm-before-visible: {records:?}");
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap_before);
        assert_eq!(
            rt.pending_timers(0).unwrap(),
            vec![("approve@after30000".to_owned(), 30_000)]
        );
        let fired = rt.advance(30_000).unwrap();
        assert_eq!(fired, vec![(0, "approve@after30000".to_owned())]);
        assert_eq!(rt.clock_ms(), 30_000);
    }

    #[test]
    fn shared_timer_fires_are_durable_and_survive_checkpoint() {
        use ctr_store::MemStore;
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
        rt.deploy_source(TIMED).unwrap();
        rt.deploy_source(GUARDED).unwrap();
        let t = rt.start("timed").unwrap();
        let g = rt.start("guarded").unwrap();
        rt.fire(t, "invoice").unwrap();
        rt.advance(30_000).unwrap();
        rt.checkpoint().unwrap();
        rt.fire(g, "invoice").unwrap();
        let snap = rt.snapshot();
        drop(rt);
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap);
        assert_eq!(rt.clock_ms(), 0, "clock is not part of the snapshot");
        // The surviving deadline still expires (files past-due on the
        // recovered wheel) and fires as a compensationable event.
        let fired = rt.advance(3_600_000).unwrap();
        assert_eq!(fired, vec![(g, "approve@deadline3600000".to_owned())]);
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
    fn unknown_ids_miss_wherever_the_table_puts_them() {
        let rt = shared_pay();
        for _ in 0..3 {
            rt.start("pay").unwrap();
        }
        let shards = SHARD_COUNT as u64;
        for ghost in [
            5,              // a shard that has allocated nothing
            shards,         // an allocated chunk's empty cell
            CHUNK * shards, // shard 0's second bucket, unallocated
            u64::MAX,       // past the directory
        ] {
            assert!(rt.inner.shard(ghost).dense(ghost).is_none());
            let unknown = RuntimeError::UnknownInstance(ghost);
            assert_eq!(rt.eligible(ghost), Err(unknown.clone()));
            assert_eq!(rt.fire(ghost, "invoice"), Err(unknown.clone()));
            assert_eq!(
                rt.fire_many(&[(ghost, "invoice")]),
                vec![FireOutcome::Rejected(unknown)]
            );
        }
        assert!(locate(u64::MAX / shards).is_none());
        assert_eq!(rt.instances(), vec![0, 1, 2]);
    }

    #[test]
    fn a_far_id_restores_into_the_overflow_not_a_table_sized_for_it() {
        const FAR: InstanceId = 1 << 40;
        let plain = {
            let rt = Runtime::new();
            rt.deploy_source(PAY).unwrap();
            rt.start("pay").unwrap();
            rt.snapshot()
        };
        let text = format!("{plain}instance {FAR} of pay [running]: invoice\n");
        let rt = Runtime::restore(&text).unwrap();
        assert_eq!(rt.snapshot(), text);
        let table: usize = rt.inner.shards.iter().map(Shard::table_bytes).sum();
        assert!(table < 1 << 20, "{table} B of table for two instances");
        assert_eq!(lock(&rt.inner.shard(FAR).gate).overflow.len(), 1);
        // The far instance and its successors work like any other.
        assert_eq!(rt.fire(FAR, "approve"), Ok(InstanceStatus::Running));
        assert_eq!(rt.start("pay"), Ok(FAR + 1));
        let burst = [(FAR + 1, "invoice"), (FAR, "file"), (0, "invoice")];
        use InstanceStatus::{Completed, Running};
        assert_eq!(
            rt.fire_many(&burst),
            [Running, Completed, Running].map(FireOutcome::Fired)
        );
        assert_eq!(rt.instances(), vec![0, FAR, FAR + 1]);
        assert_eq!(rt.journal(FAR).unwrap(), ["invoice", "approve", "file"]);
    }

    const INSTANT: &str = "workflow instant { graph go * done; after(go, 0ms); }";
    const TICK: &str = "go@after0";

    #[test]
    fn advance_waits_out_a_start_that_has_armed_but_not_published() {
        let rt = Runtime::new();
        rt.deploy_source(INSTANT).unwrap();
        // `start`, stopped between arming the wheel and publishing.
        let deployment = rt.inner.deployment("instant").unwrap();
        let mut instance = Instance::new(&deployment);
        let id = rt.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let shard = rt.inner.shard(id);
        let mut gate = lock(&shard.gate);
        fleet::start(&mut instance, id, &deployment, &rt.inner.timers, None).unwrap();
        std::thread::scope(|scope| {
            let advancing = scope.spawn(|| rt.advance(1).unwrap());
            // The advance has popped the timer: its lookup misses and
            // must block on the gate, not report the instance unknown.
            while rt.pending_timer_count() > 0 {
                std::thread::yield_now();
            }
            shard.publish(&mut gate, id, instance);
            drop(gate);
            assert_eq!(advancing.join().unwrap(), vec![(id, TICK.to_owned())]);
        });
        assert_eq!(rt.journal(id).unwrap(), vec![TICK]);
    }

    /// `start` on one thread against `advance` on another, over a
    /// workflow whose timer is due the moment it is armed.
    fn starts_racing_advances(fs: Option<Arc<SimFs>>) {
        let rt = match &fs {
            Some(fs) => Runtime::with_store(wal_on(fs)),
            None => Runtime::new(),
        };
        rt.deploy_source(INSTANT).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let (ids, mut fired, mut clock) = std::thread::scope(|scope| {
            let starting = scope.spawn(|| {
                let mut ids = Vec::new();
                for i in 0..3_000 {
                    match &fs {
                        Some(fs) if i % 5 == 4 => fs.inject(Some(Op::Append), 0, Fault::Eio, true),
                        Some(fs) => fs.heal(),
                        None => {}
                    }
                    ids.extend(rt.start("instant"));
                }
                done.store(true, Ordering::SeqCst);
                ids
            });
            let advancing = scope.spawn(|| {
                let (mut fired, mut clock) = (0, 0);
                while !done.load(Ordering::SeqCst) {
                    clock += 1;
                    // A failed advance re-arms what it did not commit.
                    fired += rt.advance(clock).map_or(0, |fired| fired.len());
                }
                (fired, clock)
            });
            let (fired, clock) = advancing.join().unwrap();
            (starting.join().unwrap(), fired, clock)
        });
        if let Some(fs) = &fs {
            fs.heal();
        }
        for _ in 0..2 {
            clock += 1;
            fired += rt.advance(clock).unwrap().len();
        }
        assert_eq!(rt.pending_timer_count(), 0);
        assert_eq!(rt.instances(), ids);
        for &id in &ids {
            assert_eq!(rt.journal(id).unwrap(), vec![TICK], "instance {id}");
        }
        match fs {
            // An advance that fails reports nothing of what it fired.
            Some(fs) => {
                assert!(fired <= ids.len());
                assert_eq!(recovered(&fs).snapshot(), rt.snapshot());
            }
            None => assert_eq!(fired, ids.len(), "every timer fired exactly once"),
        }
    }

    #[test]
    fn starts_racing_advances_fire_every_timer_exactly_once() {
        starts_racing_advances(None);
    }

    #[test]
    fn starts_racing_advances_survive_store_failures() {
        starts_racing_advances(Some(SimFs::new(1)));
    }
}
