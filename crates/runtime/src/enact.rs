//! Workflow enactment: actually *running* the activities, fault-tolerantly.
//!
//! "An activity in a workflow might be performed by a human, a device, or
//! a program" (paper, §1) — that is, by things that fail, stall, and
//! crash. The scheduler decides *what may start*; the [`Enactor`] is the
//! dispatch loop that starts it — invoking a registered handler per
//! activity on a worker thread, firing the completion back into the
//! compiled schedule, and launching whatever becomes eligible next.
//! Independent activities (concurrent conjuncts) genuinely run in
//! parallel; `∨`-choices are resolved by a pluggable policy before
//! dispatch, because starting two mutually-exclusive activities would
//! waste (or worse, externally commit) real work.
//!
//! ## Fault model
//!
//! Every attempt at an activity ends in exactly one of five ways, all of
//! which the dispatcher observes in **bounded time** — no outcome can
//! wedge the loop:
//!
//! * **Success** — the handler returned `Ok`; the node is fired.
//! * **Failure** — the handler returned `Err`.
//! * **Panic** — the handler panicked. The worker wraps the invocation in
//!   [`std::panic::catch_unwind`], so the panic becomes an ordinary
//!   completion message instead of a silently dead thread. (This fixes a
//!   real bug: the dispatch loop used to hold its own sender, so the
//!   completion channel could never disconnect and a panicking handler
//!   hung `run` forever — the old `WorkerLost` branch was dead code.)
//! * **Loss** — the worker vanished without reporting. Each worker owns a
//!   send-on-drop *sentinel* (`SendGuard`): if the completion message
//!   is not sent by the time the worker's stack unwinds for *any* reason,
//!   the guard's `Drop` reports the loss. Exhausting retries on losses
//!   yields [`EnactError::WorkerLost`] — now an actually reachable,
//!   tested path.
//! * **Timeout** — the attempt's [`RetryPolicy::timeout`] elapsed. The
//!   dispatcher stops waiting (workers are detached threads, so an
//!   unresponsive handler cannot block the run's return) and a late
//!   completion from the abandoned worker is recognized by its stale
//!   ticket and ignored.
//!
//! Failures, panics, losses, and timeouts consult the activity's
//! [`RetryPolicy`] — attempt budget, fixed/exponential backoff with
//! deterministic jitter — before they abort the run. An aborted run
//! returns a typed [`EnactError`] inside an [`EnactReport`] that also
//! carries every attempt's outcome and latency, the committed trace, and
//! the compensating activity sequence for the committed prefix (computed
//! through `ctr_workflow::compensation`, Sagas-style).
//!
//! Deterministic fault injection for tests and benchmarks lives in
//! [`FaultPlan`]: fail-N-times-then-succeed, panic-on-attempt-K, delay
//! injection, and sentinel-loss injection, all keyed by activity.
//!
//! Because workers are detached, a run that aborts (or times an attempt
//! out) may leave handler invocations still executing in the background;
//! their completions go nowhere. This is inherent to timing out real
//! work — the compensation plan in the report is the tool for undoing
//! what such stragglers may have externally committed.
//!
//! ## One clock
//!
//! Every wait of a run is an entry on one [`TimerWheel`], counted in µs
//! since the run started: a timer tick's due, a retry's backoff, an
//! attempt's timeout. Each turn of the loop reads the elapsed time once,
//! settles the completions that arrived, pops what is due, dispatches,
//! and sleeps until the wheel's next due or the next completion. The
//! ticks are the deployment's timer table (`Deployment::new` builds it;
//! [`Enactor::run_report`] builds the same table for a bare program).
//! Durations saturate into the wheel's `u64`, so `Duration::MAX` means
//! "never".

use crate::wheel::{TimerToken, TimerWheel};
use crate::DeployedTimer;
use ctr::goal::Goal;
use ctr::symbol::Symbol;
use ctr::term::Atom;
use ctr::timer::render_delay;
use ctr_engine::scheduler::{Choice, Program, Scheduler};
use ctr_workflow::compensation::{compensation_plan, SagaStep};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// An activity implementation. Receives the atom being executed; `Err`
/// counts as a failed attempt (retried under the activity's
/// [`RetryPolicy`], then aborting the enactment). Panics are caught and
/// treated the same way.
pub type Handler = Box<dyn Fn(&Atom) -> Result<(), String> + Send + Sync>;

/// How the enactor resolves a branching decision when nothing
/// commitment-free is eligible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChoicePolicy {
    /// Deterministically take the first eligible step.
    #[default]
    First,
    /// Pseudo-randomly pick among eligible steps (seeded).
    Random(u64),
}

/// Backoff schedule between retry attempts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backoff {
    /// Retry immediately.
    #[default]
    None,
    /// The same delay before every retry.
    Fixed(Duration),
    /// `base · factorⁿ` before the n-th retry, capped at `max`.
    Exponential {
        /// Delay before the first retry.
        base: Duration,
        /// Multiplier per subsequent retry.
        factor: u32,
        /// Upper bound on the delay.
        max: Duration,
    },
}

/// Per-activity robustness policy: how many attempts an activity gets,
/// how long to wait between them, and how long a single attempt may run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (including the first); at least 1.
    pub max_attempts: u32,
    /// Delay schedule between attempts.
    pub backoff: Backoff,
    /// Adds a deterministic pseudo-random extra delay of up to half the
    /// backoff, derived from the enactor seed, the activity, and the
    /// attempt number — same seed, same schedule.
    pub jitter: bool,
    /// Per-attempt wall-clock budget; `None` waits indefinitely.
    pub timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff: Backoff::None,
            jitter: false,
            timeout: None,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total attempts (min 1), no
    /// backoff, no timeout.
    pub fn attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// Sets the backoff schedule.
    pub fn with_backoff(mut self, backoff: Backoff) -> RetryPolicy {
        self.backoff = backoff;
        self
    }

    /// Enables deterministic jitter on top of the backoff.
    pub fn with_jitter(mut self) -> RetryPolicy {
        self.jitter = true;
        self
    }

    /// Sets the per-attempt timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> RetryPolicy {
        self.timeout = Some(timeout);
        self
    }

    /// Delay before `next_attempt` (2-based: the first retry is attempt
    /// 2). `salt` folds the enactor seed and the activity identity into
    /// the jitter so schedules are deterministic per seed.
    fn delay_before(&self, next_attempt: u32, salt: u64) -> Duration {
        let base = match self.backoff {
            Backoff::None => Duration::ZERO,
            Backoff::Fixed(d) => d,
            Backoff::Exponential { base, factor, max } => {
                let exp = next_attempt.saturating_sub(2).min(20);
                let mut d = base;
                for _ in 0..exp {
                    d = d.saturating_mul(factor);
                    if d >= max {
                        break;
                    }
                }
                d.min(max)
            }
        };
        if !self.jitter || base.is_zero() {
            return base;
        }
        let span = u64::try_from(base.as_nanos() / 2).map_or(u64::MAX, |s| s.max(1));
        base.saturating_add(Duration::from_nanos(
            splitmix(salt ^ u64::from(next_attempt)) % span,
        ))
    }
}

/// `d` in whole µs, the wheel's unit, saturating: `Duration::MAX` is a due
/// that never comes.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One injected fault, applied to every attempt it matches *before* the
/// real handler runs. Attempt numbers are 1-based.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Attempts `1..=n` return an injected `Err`; later attempts pass
    /// through to the handler (fail-N-times-then-succeed).
    FailTimes(u32),
    /// Attempt `k` panics inside the worker (exercises the
    /// `catch_unwind` path); other attempts pass through.
    PanicOnAttempt(u32),
    /// Every attempt sleeps this long before the handler runs (exercises
    /// timeouts and overlap).
    Delay(Duration),
    /// Attempts `1..=n` end without reporting at all — the worker
    /// returns early and only the send-on-drop sentinel speaks
    /// (exercises the [`EnactError::WorkerLost`] path).
    Vanish(u32),
}

/// A deterministic, seeded fault-injection plan: per-activity faults
/// consulted by the dispatcher on every attempt. The seed also feeds the
/// retry jitter, so a `(plan, seed, policy)` triple replays exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: BTreeMap<Symbol, Vec<Fault>>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True if no faults are registered.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a fault for `event`.
    pub fn inject(mut self, event: impl Into<Symbol>, fault: Fault) -> FaultPlan {
        self.faults.entry(event.into()).or_default().push(fault);
        self
    }

    /// Shorthand: `event` fails on its first `times` attempts.
    pub fn fail(self, event: impl Into<Symbol>, times: u32) -> FaultPlan {
        self.inject(event, Fault::FailTimes(times))
    }

    /// Shorthand: `event` panics on attempt `attempt`.
    pub fn panic_on(self, event: impl Into<Symbol>, attempt: u32) -> FaultPlan {
        self.inject(event, Fault::PanicOnAttempt(attempt))
    }

    /// Shorthand: every attempt of `event` is delayed by `delay`.
    pub fn delay(self, event: impl Into<Symbol>, delay: Duration) -> FaultPlan {
        self.inject(event, Fault::Delay(delay))
    }

    fn for_event(&self, event: Symbol) -> &[Fault] {
        self.faults.get(&event).map_or(&[], Vec::as_slice)
    }
}

/// How one attempt at an activity ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The handler returned `Ok`; the activity fired.
    Success,
    /// The handler returned `Err` with this reason.
    Failed(String),
    /// The handler panicked with this message (caught by the worker).
    Panicked(String),
    /// The attempt exceeded its [`RetryPolicy::timeout`].
    TimedOut,
    /// The worker ended without reporting; detected by the send-on-drop
    /// sentinel.
    Lost,
}

/// One attempt at one activity, as recorded in the [`EnactReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttemptRecord {
    /// The activity.
    pub event: Symbol,
    /// 1-based attempt number.
    pub attempt: u32,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Wall-clock time from dispatch to outcome (for timeouts: the
    /// budget that elapsed).
    pub latency: Duration,
}

/// The full record of an enactment run, produced on success *and*
/// failure by [`Enactor::run_report`].
#[derive(Clone, Debug)]
pub struct EnactReport {
    /// The committed trace: the atom of every fired event node, in commit
    /// order. Silent steps carry no atom and leave no entry.
    pub trace: Vec<Atom>,
    /// The committed observable events, in commit order.
    pub completed: Vec<Symbol>,
    /// Every attempt, in completion order, with outcome and latency.
    pub attempts: Vec<AttemptRecord>,
    /// On failure: the compensating activity sequence for the committed
    /// prefix (Sagas-style, via `ctr_workflow::compensation`); empty on
    /// success or when no compensators are registered.
    pub compensation: Vec<Symbol>,
    /// Total wall-clock time of the run.
    pub elapsed: Duration,
    /// `None` on success; the typed abort reason otherwise.
    pub error: Option<EnactError>,
}

impl EnactReport {
    /// True if the workflow ran to completion.
    pub fn is_success(&self) -> bool {
        self.error.is_none()
    }

    /// Number of attempts recorded for `event`.
    pub fn attempts_for(&self, event: Symbol) -> u32 {
        self.attempts.iter().filter(|a| a.event == event).count() as u32
    }

    /// Attempts beyond each activity's first — the total retry work.
    pub fn total_retries(&self) -> u32 {
        self.attempts.iter().filter(|a| a.attempt > 1).count() as u32
    }
}

/// Errors from an enactment run. Every variant carries the committed
/// observable prefix, which is always a valid schedule prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnactError {
    /// A handler exhausted its retry budget with `Err`; the run stops.
    HandlerFailed {
        /// The failing activity.
        event: String,
        /// The final attempt's error.
        reason: String,
        /// Events committed before the failure.
        completed: Vec<Symbol>,
    },
    /// A handler exhausted its retry budget by panicking.
    HandlerPanicked {
        /// The panicking activity.
        event: String,
        /// The final panic message.
        message: String,
        /// Events committed before the failure.
        completed: Vec<Symbol>,
    },
    /// An attempt exceeded its timeout budget on every allowed attempt.
    TimedOut {
        /// The unresponsive activity.
        event: String,
        /// Events committed before the failure.
        completed: Vec<Symbol>,
    },
    /// A `deadline(event, d)` timer came due before its guarded event
    /// committed. The run aborts and the report carries the
    /// compensation plan for the committed prefix.
    DeadlineExpired {
        /// The event the deadline guarded.
        event: String,
        /// The deadline delay, in milliseconds from run start.
        delay_ms: u64,
        /// Events committed before the expiry.
        completed: Vec<Symbol>,
    },
    /// The schedule deadlocked (cannot happen for excised programs with
    /// the knot-free guarantee).
    Deadlock,
    /// A worker thread ended without reporting a result on every allowed
    /// attempt (detected by the send-on-drop sentinel).
    WorkerLost {
        /// Events committed before the worker vanished.
        completed: Vec<Symbol>,
    },
}

impl EnactError {
    /// The committed observable prefix at the point of failure (empty
    /// for [`EnactError::Deadlock`], which commits nothing new).
    pub fn completed(&self) -> &[Symbol] {
        match self {
            EnactError::HandlerFailed { completed, .. }
            | EnactError::HandlerPanicked { completed, .. }
            | EnactError::TimedOut { completed, .. }
            | EnactError::DeadlineExpired { completed, .. }
            | EnactError::WorkerLost { completed } => completed,
            EnactError::Deadlock => &[],
        }
    }
}

impl fmt::Display for EnactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnactError::HandlerFailed { event, reason, .. } => {
                write!(f, "activity `{event}` failed: {reason}")
            }
            EnactError::HandlerPanicked { event, message, .. } => {
                write!(f, "activity `{event}` panicked: {message}")
            }
            EnactError::TimedOut { event, .. } => {
                write!(f, "activity `{event}` timed out")
            }
            EnactError::DeadlineExpired {
                event, delay_ms, ..
            } => {
                write!(
                    f,
                    "deadline on `{event}` expired after {}",
                    render_delay(*delay_ms)
                )
            }
            EnactError::Deadlock => write!(f, "schedule deadlocked"),
            EnactError::WorkerLost { .. } => {
                write!(f, "a worker thread died without reporting")
            }
        }
    }
}

impl std::error::Error for EnactError {}

// ---------------------------------------------------------------------------
// Worker protocol
// ---------------------------------------------------------------------------

/// A worker's report: how the attempt under `ticket` ended. Never
/// [`AttemptOutcome::TimedOut`] — only the dispatcher's clock says that.
struct Done {
    ticket: u64,
    outcome: AttemptOutcome,
}

/// The send-on-drop sentinel: every worker owns one, so *some* message
/// reaches the dispatcher per attempt even if the worker's body never
/// gets to report — the channel can starve the loop only if a thread is
/// destroyed without unwinding, which the per-attempt timeout covers.
struct SendGuard {
    tx: Option<mpsc::Sender<Done>>,
    ticket: u64,
}

impl SendGuard {
    fn complete(mut self, outcome: AttemptOutcome) {
        self.send(outcome);
    }

    fn send(&mut self, outcome: AttemptOutcome) {
        if let Some(tx) = self.tx.take() {
            // The loop may have aborted already; a closed channel is fine.
            let _ = tx.send(Done {
                ticket: self.ticket,
                outcome,
            });
        }
    }
}

impl Drop for SendGuard {
    fn drop(&mut self) {
        self.send(AttemptOutcome::Lost);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_owned())
}

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

/// One in-flight attempt.
struct Pending {
    node: usize,
    event: Symbol,
    attempt: u32,
    /// Dispatch time, in µs since the run started.
    started: u64,
    /// Its [`Wake::Timeout`] entry, if the policy sets a timeout.
    timeout: Option<TimerToken>,
    policy: RetryPolicy,
}

/// What an entry on the run's wheel wakes the loop for.
enum Wake {
    /// The `i`-th timer of the run's table came due.
    Tick(usize),
    /// Attempt `attempt` of `node` has waited out its backoff.
    Retry { node: usize, attempt: u32 },
    /// The attempt under this ticket ran out of time.
    Timeout(u64),
}

/// Why a run stopped short. It becomes an [`EnactError`] once, when the
/// committed prefix is known.
enum Abort {
    /// The activity's last allowed attempt ended so.
    Exhausted(Symbol, AttemptOutcome),
    /// The deadline on the event, due this many ms after the start,
    /// came due before the event committed.
    Deadline(Symbol, u64),
    Deadlock,
}

impl Abort {
    fn into_error(self, completed: Vec<Symbol>) -> EnactError {
        match self {
            Abort::Exhausted(event, outcome) => {
                let event = event.to_string();
                match outcome {
                    AttemptOutcome::Failed(reason) => EnactError::HandlerFailed {
                        event,
                        reason,
                        completed,
                    },
                    AttemptOutcome::Panicked(message) => EnactError::HandlerPanicked {
                        event,
                        message,
                        completed,
                    },
                    AttemptOutcome::TimedOut => EnactError::TimedOut { event, completed },
                    AttemptOutcome::Lost | AttemptOutcome::Success => {
                        EnactError::WorkerLost { completed }
                    }
                }
            }
            Abort::Deadline(event, delay_ms) => EnactError::DeadlineExpired {
                event: event.to_string(),
                delay_ms,
                completed,
            },
            Abort::Deadlock => EnactError::Deadlock,
        }
    }
}

/// The per-run dispatch state, split out of the main loop so attempt
/// bookkeeping has a home.
struct Dispatch<'e> {
    enactor: &'e Enactor,
    tx: mpsc::Sender<Done>,
    /// Every wait of the run, in µs since it started.
    wheel: TimerWheel<Wake>,
    pending: BTreeMap<u64, Pending>,
    /// Nodes with an attempt in flight or a retry on the wheel.
    busy: BTreeSet<usize>,
    log: Vec<AttemptRecord>,
    next_ticket: u64,
}

impl Dispatch<'_> {
    /// Spawns a detached worker for attempt `attempt` of `node` at `now`.
    fn spawn(&mut self, node: usize, atom: &Atom, attempt: u32, now: u64) {
        let event = atom
            .as_event()
            .unwrap_or_else(|| Symbol::intern(&atom.to_string()));
        let policy = *self
            .enactor
            .retries
            .get(&event)
            .unwrap_or(&self.enactor.default_retry);
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let timeout = policy.timeout.map(|t| {
            self.wheel
                .arm(now.saturating_add(micros(t)), Wake::Timeout(ticket))
        });
        self.busy.insert(node);
        self.pending.insert(
            ticket,
            Pending {
                node,
                event,
                attempt,
                started: now,
                timeout,
                policy,
            },
        );
        let handler = atom
            .as_event()
            .and_then(|e| self.enactor.handlers.get(&e))
            .cloned();
        let faults: Vec<Fault> = self.enactor.faults.for_event(event).to_vec();
        let atom = atom.clone();
        let guard = SendGuard {
            tx: Some(self.tx.clone()),
            ticket,
        };
        std::thread::spawn(move || {
            if faults
                .iter()
                .any(|f| matches!(f, Fault::Vanish(n) if attempt <= *n))
            {
                // Simulated worker loss: return with the sentinel armed —
                // its Drop is the only report the dispatcher gets.
                return;
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                for fault in &faults {
                    match fault {
                        Fault::FailTimes(n) if attempt <= *n => {
                            return Err(format!("injected failure ({attempt}/{n})"));
                        }
                        Fault::PanicOnAttempt(k) if attempt == *k => {
                            panic!("injected panic on attempt {k}");
                        }
                        Fault::Delay(d) => std::thread::sleep(*d),
                        _ => {}
                    }
                }
                match &handler {
                    Some(h) => h(&atom),
                    None => Ok(()),
                }
            }));
            guard.complete(match result {
                Ok(Ok(())) => AttemptOutcome::Success,
                Ok(Err(reason)) => AttemptOutcome::Failed(reason),
                Err(payload) => AttemptOutcome::Panicked(panic_message(&*payload)),
            });
        });
    }

    /// Logs how attempt `p` ended at `now` and disarms its timeout. A
    /// success frees the node and returns it, for the caller to fire;
    /// any other outcome arms the retry, or — the attempts spent — is the
    /// run's abort reason.
    fn finish(
        &mut self,
        p: Pending,
        outcome: AttemptOutcome,
        now: u64,
    ) -> Result<Option<usize>, Abort> {
        if let Some(token) = p.timeout {
            self.wheel.cancel(token);
        }
        let latency = match outcome {
            AttemptOutcome::TimedOut => p.policy.timeout.unwrap_or_default(),
            _ => Duration::from_micros(now.saturating_sub(p.started)),
        };
        let success = outcome == AttemptOutcome::Success;
        let spent = !success && p.attempt >= p.policy.max_attempts;
        let abort = spent.then(|| Abort::Exhausted(p.event, outcome.clone()));
        self.log.push(AttemptRecord {
            event: p.event,
            attempt: p.attempt,
            outcome,
            latency,
        });
        if success {
            self.busy.remove(&p.node);
            return Ok(Some(p.node));
        }
        if let Some(abort) = abort {
            return Err(abort);
        }
        let salt =
            self.enactor.seed ^ self.enactor.faults.seed ^ (u64::from(p.event.index()) << 32);
        let backoff = micros(p.policy.delay_before(p.attempt + 1, salt));
        let retry = Wake::Retry {
            node: p.node,
            attempt: p.attempt + 1,
        };
        self.wheel.arm(now.saturating_add(backoff), retry);
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Enactor
// ---------------------------------------------------------------------------

/// The fault-tolerant activity dispatch loop.
#[derive(Default)]
pub struct Enactor {
    handlers: BTreeMap<Symbol, Arc<Handler>>,
    policy: ChoicePolicy,
    default_retry: RetryPolicy,
    retries: BTreeMap<Symbol, RetryPolicy>,
    saga: Vec<SagaStep>,
    faults: FaultPlan,
    seed: u64,
}

impl Enactor {
    /// An enactor with no handlers; unregistered activities complete
    /// instantly (pure significant events).
    pub fn new() -> Enactor {
        Enactor::default()
    }

    /// Registers the implementation of an activity.
    pub fn register(&mut self, event: impl Into<Symbol>, handler: Handler) -> &mut Self {
        self.handlers.insert(event.into(), Arc::new(handler));
        self
    }

    /// Registers the compensator activity that semantically undoes
    /// `event` — sugar for a single-step saga. On an aborted run the
    /// report's compensation plan lists the compensators of the
    /// committed prefix in reverse commit order.
    pub fn compensate(&mut self, event: impl Into<Symbol>, undo: impl Into<Symbol>) -> &mut Self {
        self.saga.push(SagaStep::new(
            Goal::atom(event.into()),
            Goal::atom(undo.into()),
        ));
        self
    }

    /// Registers saga steps (see [`SagaStep`]); an aborted run's
    /// compensation plan is computed from fully-committed steps via
    /// [`compensation_plan`].
    pub fn with_saga(&mut self, steps: &[SagaStep]) -> &mut Self {
        self.saga.extend_from_slice(steps);
        self
    }

    /// Sets the branching policy.
    pub fn with_policy(mut self, policy: ChoicePolicy) -> Enactor {
        self.policy = policy;
        self
    }

    /// Sets the retry policy applied to activities without a specific
    /// one.
    pub fn with_default_retry(mut self, policy: RetryPolicy) -> Enactor {
        self.default_retry = policy;
        self
    }

    /// Sets the retry policy of one activity.
    pub fn with_retry(mut self, event: impl Into<Symbol>, policy: RetryPolicy) -> Enactor {
        self.retries.insert(event.into(), policy);
        self
    }

    /// Installs a fault-injection plan (testing/benchmarking).
    pub fn with_faults(mut self, faults: FaultPlan) -> Enactor {
        self.faults = faults;
        self
    }

    /// Sets the seed feeding deterministic retry jitter.
    pub fn with_seed(mut self, seed: u64) -> Enactor {
        self.seed = seed;
        self
    }

    /// The compensating activity sequence for a committed prefix, from
    /// the registered saga steps / compensators.
    pub fn compensation_for(&self, committed: &[Symbol]) -> Vec<Symbol> {
        compensation_plan(&self.saga, committed)
    }

    /// Runs the program to completion, dispatching commitment-free
    /// eligible activities concurrently. Returns the executed path, or
    /// the typed abort reason. See [`Enactor::run_report`] for the full
    /// per-attempt record.
    pub fn run(&self, program: &Program) -> Result<Vec<Atom>, EnactError> {
        let report = self.run_report(program);
        match report.error {
            None => Ok(report.trace),
            Some(err) => Err(err),
        }
    }

    /// Runs the program to completion and returns the full
    /// [`EnactReport`] — committed trace, every attempt's outcome and
    /// latency, and (on failure) the typed error plus compensation plan.
    ///
    /// Termination is bounded: every attempt either reports (worker
    /// message or sentinel) or times out under its policy; a handler
    /// that blocks forever *without* a configured timeout blocks the run
    /// by design (the caller asked to wait).
    pub fn run_report(&self, program: &Program) -> EnactReport {
        let events = (0..program.len()).filter_map(|node| program.event(node)?.as_event());
        self.run_timed(program, &DeployedTimer::table(events))
    }

    /// [`Enactor::run_report`] with `program`'s timer table given — the
    /// one its deployment built.
    pub(crate) fn run_timed(&self, program: &Program, timers: &[DeployedTimer]) -> EnactReport {
        let started = Instant::now();
        let mut scheduler = Scheduler::new(program);
        // Timer ticks are alarms, not activities: a node carrying one is
        // never dispatched or picked. Its timer's `Tick` entry marks it
        // due; a due `after` tick fires as soon as its node is eligible,
        // opening the gate it feeds; a due deadline aborts the run unless
        // its base event committed.
        let tick_of = |node: usize| {
            let event = program.event(node).and_then(Atom::as_event);
            timers.iter().position(|t| Some(t.tick) == event)
        };
        let mut due = vec![false; timers.len()];
        let mut rng_state = match self.policy {
            ChoicePolicy::Random(seed) => seed,
            ChoicePolicy::First => 0,
        };
        let (tx, rx) = mpsc::channel::<Done>();
        let mut d = Dispatch {
            enactor: self,
            tx,
            wheel: TimerWheel::new(),
            pending: BTreeMap::new(),
            busy: BTreeSet::new(),
            log: Vec::new(),
            next_ticket: 0,
        };
        for (i, t) in timers.iter().enumerate() {
            d.wheel.arm(t.delay_ms.saturating_mul(1_000), Wake::Tick(i));
        }
        let mut batch: Vec<Done> = Vec::new();

        let abort: Option<Abort> = 'run: loop {
            let now = micros(started.elapsed());

            // Completions first, so a base event that beat its deadline
            // is in the trace before the tick is looked at.
            for done in batch.drain(..) {
                // A stale ticket is a timed-out attempt's worker reporting
                // late: its claim was withdrawn.
                let Some(p) = d.pending.remove(&done.ticket) else {
                    continue;
                };
                match d.finish(p, done.outcome, now) {
                    Ok(Some(node)) => scheduler.fire(node),
                    Ok(None) => {}
                    Err(abort) => break 'run Some(abort),
                }
            }

            for (_, wake) in d.wheel.advance_to(now) {
                match wake {
                    Wake::Tick(i) => due[i] = true,
                    Wake::Retry { node, attempt } => {
                        let atom = program.event(node).expect("retried node carries an event");
                        d.spawn(node, atom, attempt, now);
                    }
                    Wake::Timeout(ticket) => {
                        // The worker runs on, detached; its report will be
                        // stale. A finished attempt cancelled this entry.
                        let p = d
                            .pending
                            .remove(&ticket)
                            .expect("timed-out attempt pending");
                        if let Err(abort) = d.finish(p, AttemptOutcome::TimedOut, now) {
                            break 'run Some(abort);
                        }
                    }
                }
            }

            let ready = scheduler.eligible().iter().find_map(|c| {
                let i = tick_of(c.node).filter(|&i| due[i])?;
                match timers[i].base {
                    None => Some(Ok(c.node)),
                    // Met in time: the watchdog's silent branch dismisses it.
                    Some(base) if scheduler.history_from(0).any(|e| e == base) => None,
                    Some(base) => Some(Err(Abort::Deadline(base, timers[i].delay_ms))),
                }
            });
            match ready {
                Some(Ok(gate)) => {
                    scheduler.fire(gate);
                    continue;
                }
                Some(Err(abort)) => break 'run Some(abort),
                None => {}
            }

            // Dispatch every eligible, commitment-free, observable step
            // that is not already being attempted.
            for choice in scheduler.eligible() {
                let Some(atom) = program.event(choice.node) else {
                    continue;
                };
                if tick_of(choice.node).is_none()
                    && !d.busy.contains(&choice.node)
                    && scheduler.is_commitment_free(choice.node)
                {
                    d.spawn(choice.node, atom, 1, now);
                }
            }

            if d.busy.is_empty() {
                if scheduler.is_complete() {
                    break 'run None;
                }
                // Nothing runnable without committing: resolve a choice
                // via the policy (silent steps included — a silent
                // branch may be the only way to finish).
                let eligible: Vec<Choice> = scheduler
                    .eligible()
                    .iter()
                    .filter(|c| tick_of(c.node).is_none())
                    .copied()
                    .collect();
                if eligible.is_empty() {
                    // Only ticks (or nothing) are left: wait for one
                    // still on the wheel instead of declaring a deadlock.
                    let waiting = scheduler
                        .eligible()
                        .iter()
                        .any(|c| tick_of(c.node).is_some_and(|i| !due[i]));
                    if !waiting {
                        break 'run Some(Abort::Deadlock);
                    }
                } else {
                    let idx = match self.policy {
                        ChoicePolicy::First => 0,
                        ChoicePolicy::Random(_) => {
                            rng_state = rng_state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            (rng_state >> 33) as usize % eligible.len()
                        }
                    };
                    let pick = eligible[idx];
                    match program.event(pick.node) {
                        // The branch is committed when its first activity
                        // *succeeds* (work-then-claim): the attempt runs
                        // through the normal retry machinery and the node is
                        // fired on success. Nothing else dispatches until
                        // then — the schedule cannot move under the attempt.
                        Some(atom) => d.spawn(pick.node, atom, 1, now),
                        None => scheduler.fire(pick.node),
                    }
                    continue;
                }
            }

            // Wait for the wheel's next due or the next completion. The
            // sentinel protocol guarantees one message per in-flight
            // attempt, so an empty wheel blocks only as long as an
            // (untimed) handler runs; `d` holds a sender, so the channel
            // never disconnects. The last µs before a due is spun, not
            // slept: a retry without backoff is due the µs after its
            // failure, and a sleep that short would cost a wake-up.
            let wait = d.wheel.next_due().map_or(Duration::MAX, |at| {
                Duration::from_micros(at.saturating_sub(now + 1))
            });
            batch.extend(rx.recv_timeout(wait).ok());
            // Opportunistically drain every completion already queued: a
            // burst of finished workers is fired as one batch. Safe
            // because every dispatched step was commitment-free at
            // dispatch time, so firing one cannot cancel another.
            batch.extend(std::iter::from_fn(|| rx.try_recv().ok()));
        };

        let completed = scheduler.trace_names();
        let error = abort.map(|abort| abort.into_error(completed.clone()));
        let compensation = if error.is_some() {
            self.compensation_for(&completed)
        } else {
            Vec::new()
        };
        EnactReport {
            trace: scheduler.trace().cloned().collect(),
            completed,
            attempts: d.log,
            compensation,
            elapsed: started.elapsed(),
            error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctr::constraints::Constraint;
    use ctr::goal::{conc, or, seq, Goal};
    use ctr::sym;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier, Mutex};

    /// Generous bound on "the run must terminate": far above any test's
    /// real runtime, far below a wedged `cargo test`.
    const WATCHDOG: Duration = Duration::from_secs(60);

    fn program(goal: &Goal, constraints: &[Constraint]) -> Program {
        let compiled = ctr::analysis::compile(goal, constraints).unwrap();
        Program::compile(&compiled.goal).unwrap()
    }

    /// Runs the enactor on a watchdog thread: panics (fast) if `run`
    /// fails to terminate instead of wedging the whole test binary.
    fn run_guarded(enactor: Enactor, p: Program) -> Result<Vec<Atom>, EnactError> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(enactor.run(&p));
        });
        rx.recv_timeout(WATCHDOG)
            .expect("Enactor::run must terminate in bounded time (watchdog)")
    }

    /// A handler that records its event in a shared log.
    fn recording(log: &Arc<Mutex<Vec<String>>>) -> Handler {
        let log = Arc::clone(log);
        Box::new(move |atom| {
            log.lock().unwrap().push(atom.to_string());
            Ok(())
        })
    }

    #[test]
    fn sequential_workflow_runs_in_order() {
        let p = program(
            &seq(vec![Goal::atom("a"), Goal::atom("b"), Goal::atom("c")]),
            &[],
        );
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut enactor = Enactor::new();
        for e in ["a", "b", "c"] {
            enactor.register(e, recording(&log));
        }
        let trace = enactor.run(&p).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(*log.lock().unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn concurrent_activities_really_overlap() {
        // Two concurrent activities rendezvous at a barrier: the run can
        // only finish if both handlers execute simultaneously.
        let p = program(&conc(vec![Goal::atom("left"), Goal::atom("right")]), &[]);
        let barrier = Arc::new(Barrier::new(2));
        let mut enactor = Enactor::new();
        for e in ["left", "right"] {
            let b = Arc::clone(&barrier);
            enactor.register(
                e,
                Box::new(move |_| {
                    b.wait();
                    Ok(())
                }),
            );
        }
        let trace = enactor.run(&p).unwrap();
        assert_eq!(trace.len(), 2, "both sides passed the barrier concurrently");
    }

    #[test]
    fn compiled_order_constraints_serialize_dispatch() {
        // a | b with a<b compiled in: b's handler must observe a's completion.
        let p = program(
            &conc(vec![Goal::atom("a"), Goal::atom("b")]),
            &[Constraint::order("a", "b")],
        );
        let counter = Arc::new(AtomicUsize::new(0));
        let mut enactor = Enactor::new();
        {
            let c = Arc::clone(&counter);
            enactor.register(
                "a",
                Box::new(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
            );
        }
        {
            let c = Arc::clone(&counter);
            enactor.register(
                "b",
                Box::new(move |_| {
                    if c.load(Ordering::SeqCst) == 1 {
                        Ok(())
                    } else {
                        Err("started before a completed".to_owned())
                    }
                }),
            );
        }
        enactor.run(&p).expect("order constraint gates dispatch");
    }

    /// Compiles `goal` with one timer rule through the real
    /// `ctr_workflow::compile_timer` pipeline.
    fn timed_program(goal: &Goal, timer: &ctr_workflow::TimerSpec) -> Program {
        let mut channels = ctr::apply::ChannelAlloc::fresh_for(goal);
        let timed = ctr_workflow::compile_timer(goal, timer, &mut channels);
        Program::compile(&timed).unwrap()
    }

    #[test]
    fn after_gates_hold_the_activity_until_the_delay_elapses() {
        // after(b, 120ms): the tick is fired by the clock — never handed
        // to a worker — and `b` cannot start before the delay elapses.
        let p = timed_program(
            &seq(vec![Goal::atom("a"), Goal::atom("b")]),
            &ctr_workflow::TimerSpec::after("b", 120),
        );
        let started = Instant::now();
        let trace = run_guarded(Enactor::new(), p).unwrap();
        assert!(
            started.elapsed() >= Duration::from_millis(120),
            "the gate held until the delay elapsed"
        );
        let names: Vec<String> = trace.iter().map(|a| a.to_string()).collect();
        assert_eq!(names, vec!["a", "b@after120", "b"]);
    }

    #[test]
    fn expired_deadline_aborts_with_the_compensation_plan() {
        // deadline(approve, 60ms) with an approve handler that stalls
        // past the deadline: the run aborts, the committed prefix is the
        // booked work, and the report carries its compensation plan.
        let p = timed_program(
            &seq(vec![Goal::atom("book"), Goal::atom("approve")]),
            &ctr_workflow::TimerSpec::deadline("approve", 60),
        );
        let mut enactor = Enactor::new();
        enactor.register(
            "approve",
            Box::new(|_| {
                std::thread::sleep(Duration::from_millis(400));
                Ok(())
            }),
        );
        enactor.compensate("book", "cancel_booking");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(enactor.run_report(&p));
        });
        let report = rx.recv_timeout(WATCHDOG).expect("run terminates");
        match report.error {
            Some(EnactError::DeadlineExpired {
                ref event,
                delay_ms,
                ref completed,
            }) => {
                assert_eq!(event, "approve");
                assert_eq!(delay_ms, 60);
                assert_eq!(completed, &[sym("book")]);
            }
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        assert_eq!(report.compensation, vec![sym("cancel_booking")]);
    }

    #[test]
    fn deadline_met_in_time_is_dismissed_silently() {
        // The guarded event commits well before the deadline: no tick in
        // the trace, no error, and the run does not wait out the timer.
        let p = timed_program(
            &seq(vec![Goal::atom("book"), Goal::atom("approve")]),
            &ctr_workflow::TimerSpec::deadline("approve", 30_000),
        );
        let started = Instant::now();
        let trace = run_guarded(Enactor::new(), p).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "dismissal must not wait out the deadline"
        );
        let names: Vec<String> = trace.iter().map(|a| a.to_string()).collect();
        assert_eq!(names, vec!["book", "approve"]);
    }

    #[test]
    fn choices_are_resolved_before_dispatch() {
        // Only one branch's handler may ever run.
        let p = program(&or(vec![Goal::atom("x"), Goal::atom("y")]), &[]);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut enactor = Enactor::new();
        enactor.register("x", recording(&log));
        enactor.register("y", recording(&log));
        enactor.run(&p).unwrap();
        assert_eq!(log.lock().unwrap().len(), 1, "exactly one branch executed");
    }

    #[test]
    fn random_policy_explores_branches() {
        let goal = or(vec![Goal::atom("x"), Goal::atom("y")]);
        let p = program(&goal, &[]);
        let mut seen = BTreeSet::new();
        for seed in 0..16 {
            let enactor = Enactor::new().with_policy(ChoicePolicy::Random(seed));
            let trace = enactor.run(&p).unwrap();
            seen.insert(trace[0].as_event().unwrap());
        }
        assert_eq!(seen.len(), 2, "both branches reachable under random policy");
    }

    #[test]
    fn handler_failure_aborts_with_context() {
        let p = program(
            &seq(vec![
                Goal::atom("ok"),
                Goal::atom("boom"),
                Goal::atom("never"),
            ]),
            &[],
        );
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut enactor = Enactor::new();
        enactor.register("ok", recording(&log));
        enactor.register("boom", Box::new(|_| Err("disk on fire".to_owned())));
        enactor.register("never", recording(&log));
        let err = enactor.run(&p).unwrap_err();
        let EnactError::HandlerFailed {
            event,
            reason,
            completed,
        } = err
        else {
            panic!("expected handler failure");
        };
        assert_eq!(event, "boom");
        assert_eq!(reason, "disk on fire");
        assert_eq!(completed, vec![sym("ok")]);
        assert_eq!(*log.lock().unwrap(), vec!["ok"], "`never` never ran");
    }

    #[test]
    fn unregistered_activities_complete_instantly() {
        let p = program(&seq(vec![Goal::atom("ghost1"), Goal::atom("ghost2")]), &[]);
        let trace = Enactor::new().run(&p).unwrap();
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn wide_fanout_completes() {
        let goal = conc((0..12).map(|i| Goal::atom(format!("w{i}"))).collect());
        let p = program(&goal, &[]);
        let counter = Arc::new(AtomicUsize::new(0));
        let mut enactor = Enactor::new();
        for i in 0..12 {
            let c = Arc::clone(&counter);
            enactor.register(
                format!("w{i}").as_str(),
                Box::new(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
            );
        }
        let trace = enactor.run(&p).unwrap();
        assert_eq!(trace.len(), 12);
        assert_eq!(counter.load(Ordering::SeqCst), 12);
    }

    // --- Fault tolerance ---------------------------------------------------

    #[test]
    fn panicking_handler_yields_typed_error_not_a_hang() {
        // THE regression this module exists to pin: a handler that
        // panics (instead of returning Err) used to deadlock run()
        // forever, because the loop's own done_tx kept the completion
        // channel open and the panicking worker never sent. The watchdog
        // makes a reintroduced hang fail in seconds, not wedge CI.
        let p = program(&seq(vec![Goal::atom("fine"), Goal::atom("kaboom")]), &[]);
        let mut enactor = Enactor::new();
        enactor.register("kaboom", Box::new(|_| panic!("handler exploded")));
        let err = run_guarded(enactor, p).unwrap_err();
        let EnactError::HandlerPanicked {
            event,
            message,
            completed,
        } = err
        else {
            panic!("expected HandlerPanicked, got {err:?}");
        };
        assert_eq!(event, "kaboom");
        assert_eq!(message, "handler exploded");
        assert_eq!(completed, vec![sym("fine")]);
    }

    #[test]
    fn panicking_handler_in_concurrent_fanout_does_not_hang() {
        // The old failure-drain loop at the bottom of the batch handler
        // had the same unbounded recv(): pin the concurrent shape too.
        let goal = conc(vec![
            Goal::atom("p1"),
            Goal::atom("p2"),
            Goal::atom("bad"),
            Goal::atom("p3"),
        ]);
        let p = program(&goal, &[]);
        let mut enactor = Enactor::new();
        enactor.register("bad", Box::new(|_| panic!("concurrent panic")));
        let err = run_guarded(enactor, p).unwrap_err();
        assert!(
            matches!(err, EnactError::HandlerPanicked { ref event, .. } if event == "bad"),
            "typed panic error from concurrent dispatch, got {err:?}"
        );
    }

    #[test]
    fn retries_recover_fail_then_succeed_faults() {
        let p = program(&seq(vec![Goal::atom("a"), Goal::atom("flaky")]), &[]);
        let enactor = Enactor::new()
            .with_faults(FaultPlan::new(1).fail("flaky", 2))
            .with_retry("flaky", RetryPolicy::attempts(3));
        let report = enactor.run_report(&p);
        assert!(report.is_success(), "error: {:?}", report.error);
        assert_eq!(report.completed, vec![sym("a"), sym("flaky")]);
        assert_eq!(report.attempts_for(sym("flaky")), 3);
        assert_eq!(report.total_retries(), 2);
        let outcomes: Vec<&AttemptOutcome> = report
            .attempts
            .iter()
            .filter(|a| a.event == sym("flaky"))
            .map(|a| &a.outcome)
            .collect();
        assert!(matches!(outcomes[0], AttemptOutcome::Failed(_)));
        assert!(matches!(outcomes[1], AttemptOutcome::Failed(_)));
        assert_eq!(outcomes[2], &AttemptOutcome::Success);
        assert!(report.compensation.is_empty(), "no compensation on success");
    }

    #[test]
    fn retries_recover_injected_panics() {
        let p = program(&seq(vec![Goal::atom("shaky")]), &[]);
        let enactor = Enactor::new()
            .with_faults(FaultPlan::new(2).panic_on("shaky", 1))
            .with_default_retry(RetryPolicy::attempts(2));
        let report = enactor.run_report(&p);
        assert!(report.is_success(), "error: {:?}", report.error);
        assert!(matches!(
            report.attempts[0].outcome,
            AttemptOutcome::Panicked(_)
        ));
        assert_eq!(report.attempts[1].outcome, AttemptOutcome::Success);
    }

    #[test]
    fn exhausted_retries_abort_with_the_last_reason() {
        let p = program(&seq(vec![Goal::atom("doomed")]), &[]);
        let enactor = Enactor::new()
            .with_faults(FaultPlan::new(3).fail("doomed", 99))
            .with_default_retry(
                RetryPolicy::attempts(3).with_backoff(Backoff::Fixed(Duration::from_millis(1))),
            );
        let report = enactor.run_report(&p);
        let Some(EnactError::HandlerFailed { event, .. }) = &report.error else {
            panic!("expected HandlerFailed, got {:?}", report.error);
        };
        assert_eq!(event, "doomed");
        assert_eq!(report.attempts_for(sym("doomed")), 3);
        assert!(report.completed.is_empty());
    }

    #[test]
    fn timeouts_are_detected_and_typed() {
        // The handler sleeps far longer than the budget; detached
        // workers mean the run returns as soon as the deadline passes.
        let p = program(&seq(vec![Goal::atom("quick"), Goal::atom("slow")]), &[]);
        let mut enactor = Enactor::new();
        enactor.register(
            "slow",
            Box::new(|_| {
                std::thread::sleep(Duration::from_secs(5));
                Ok(())
            }),
        );
        let enactor = enactor.with_retry(
            "slow",
            RetryPolicy::attempts(2).with_timeout(Duration::from_millis(40)),
        );
        let started = Instant::now();
        let report = enactor.run_report(&p);
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "run returned without waiting out the stuck handler"
        );
        let Some(EnactError::TimedOut { event, completed }) = &report.error else {
            panic!("expected TimedOut, got {:?}", report.error);
        };
        assert_eq!(event, "slow");
        assert_eq!(completed, &[sym("quick")]);
        assert_eq!(report.attempts_for(sym("slow")), 2);
        assert!(report
            .attempts
            .iter()
            .filter(|a| a.event == sym("slow"))
            .all(|a| a.outcome == AttemptOutcome::TimedOut));
    }

    #[test]
    fn vanished_workers_surface_as_worker_lost() {
        // The sentinel path: the worker ends without reporting; the
        // send-on-drop guard is the only signal. One retry, then the
        // typed WorkerLost abort the old code could never reach.
        let p = program(&seq(vec![Goal::atom("pre"), Goal::atom("ghost")]), &[]);
        let enactor = Enactor::new()
            .with_faults(FaultPlan::new(4).inject("ghost", Fault::Vanish(99)))
            .with_retry("ghost", RetryPolicy::attempts(2));
        let report = enactor.run_report(&p);
        let Some(EnactError::WorkerLost { completed }) = &report.error else {
            panic!("expected WorkerLost, got {:?}", report.error);
        };
        assert_eq!(completed, &[sym("pre")]);
        assert_eq!(report.attempts_for(sym("ghost")), 2);
        assert!(report
            .attempts
            .iter()
            .filter(|a| a.event == sym("ghost"))
            .all(|a| a.outcome == AttemptOutcome::Lost));
    }

    #[test]
    fn vanish_then_recover_is_retryable() {
        let p = program(&seq(vec![Goal::atom("blip")]), &[]);
        let enactor = Enactor::new()
            .with_faults(FaultPlan::new(5).inject("blip", Fault::Vanish(1)))
            .with_default_retry(RetryPolicy::attempts(2));
        let report = enactor.run_report(&p);
        assert!(report.is_success(), "error: {:?}", report.error);
        assert_eq!(report.attempts[0].outcome, AttemptOutcome::Lost);
        assert_eq!(report.attempts[1].outcome, AttemptOutcome::Success);
    }

    #[test]
    fn delay_faults_slow_but_do_not_fail() {
        let p = program(&conc(vec![Goal::atom("d1"), Goal::atom("d2")]), &[]);
        let enactor =
            Enactor::new().with_faults(FaultPlan::new(6).delay("d1", Duration::from_millis(10)));
        let report = enactor.run_report(&p);
        assert!(report.is_success());
        let d1 = report
            .attempts
            .iter()
            .find(|a| a.event == sym("d1"))
            .unwrap();
        assert!(d1.latency >= Duration::from_millis(10));
    }

    #[test]
    fn aborted_runs_emit_a_compensation_plan() {
        let p = program(
            &seq(vec![
                Goal::atom("book_flight"),
                Goal::atom("book_hotel"),
                Goal::atom("charge_card"),
            ]),
            &[],
        );
        let mut enactor = Enactor::new();
        enactor
            .compensate("book_flight", "cancel_flight")
            .compensate("book_hotel", "cancel_hotel");
        let enactor = enactor.with_faults(FaultPlan::new(7).fail("charge_card", 99));
        let report = enactor.run_report(&p);
        assert!(matches!(
            report.error,
            Some(EnactError::HandlerFailed { .. })
        ));
        assert_eq!(
            report.completed,
            vec![sym("book_flight"), sym("book_hotel")]
        );
        assert_eq!(
            report.compensation,
            vec![sym("cancel_hotel"), sym("cancel_flight")],
            "committed prefix compensated in reverse order"
        );
    }

    #[test]
    fn saga_steps_drive_the_compensation_plan() {
        let steps = vec![
            SagaStep::new(Goal::atom("reserve"), Goal::atom("release")),
            SagaStep::new(Goal::atom("charge"), Goal::atom("refund")),
        ];
        let p = program(
            &seq(vec![
                Goal::atom("reserve"),
                Goal::atom("charge"),
                Goal::atom("ship"),
            ]),
            &[],
        );
        let mut enactor = Enactor::new();
        enactor.with_saga(&steps);
        let enactor = enactor.with_faults(FaultPlan::new(8).fail("ship", 99));
        let report = enactor.run_report(&p);
        assert_eq!(report.compensation, vec![sym("refund"), sym("release")]);
    }

    #[test]
    fn deterministic_backoff_jitter_is_reproducible() {
        let policy = RetryPolicy::attempts(4)
            .with_backoff(Backoff::Exponential {
                base: Duration::from_millis(8),
                factor: 2,
                max: Duration::from_millis(100),
            })
            .with_jitter();
        let a: Vec<Duration> = (2..6).map(|n| policy.delay_before(n, 42)).collect();
        let b: Vec<Duration> = (2..6).map(|n| policy.delay_before(n, 42)).collect();
        assert_eq!(a, b, "same salt, same schedule");
        let c: Vec<Duration> = (2..6).map(|n| policy.delay_before(n, 43)).collect();
        assert_ne!(a, c, "different salt perturbs the jitter");
        for (n, d) in (2u32..6).zip(&a) {
            let base = Duration::from_millis(8 * 2u64.pow(n - 2)).min(Duration::from_millis(100));
            assert!(*d >= base && *d <= base + base / 2 + Duration::from_nanos(1));
        }
    }

    #[test]
    fn exponential_backoff_caps_at_max() {
        let policy = RetryPolicy::attempts(64).with_backoff(Backoff::Exponential {
            base: Duration::from_millis(1),
            factor: 10,
            max: Duration::from_millis(50),
        });
        assert_eq!(policy.delay_before(2, 0), Duration::from_millis(1));
        assert_eq!(policy.delay_before(3, 0), Duration::from_millis(10));
        assert_eq!(policy.delay_before(4, 0), Duration::from_millis(50));
        assert_eq!(policy.delay_before(60, 0), Duration::from_millis(50));
    }

    #[test]
    fn exponential_backoff_saturates_at_duration_max_with_jitter() {
        // From the fourth retry on the base delay saturates; adding
        // jitter to it used to overflow.
        let policy = RetryPolicy::attempts(64)
            .with_backoff(Backoff::Exponential {
                base: Duration::from_millis(1),
                factor: u32::MAX,
                max: Duration::MAX,
            })
            .with_jitter();
        assert!(policy.delay_before(2, 5) < Duration::from_secs(1));
        for n in 5..=64 {
            assert_eq!(policy.delay_before(n, 5), Duration::MAX, "attempt {n}");
        }
    }

    #[test]
    fn a_timeout_of_duration_max_waits_forever() {
        let p = program(&seq(vec![Goal::atom("a"), Goal::atom("b")]), &[]);
        let enactor =
            Enactor::new().with_default_retry(RetryPolicy::attempts(2).with_timeout(Duration::MAX));
        let report = enactor.run_report(&p);
        assert!(report.is_success(), "error: {:?}", report.error);
        assert_eq!(report.completed, vec![sym("a"), sym("b")]);
    }

    #[test]
    fn a_backoff_of_duration_max_never_comes_due() {
        // The retry of `approve` is due never; the deadline still fires.
        let p = timed_program(
            &seq(vec![Goal::atom("book"), Goal::atom("approve")]),
            &ctr_workflow::TimerSpec::deadline("approve", 40),
        );
        let enactor = Enactor::new()
            .with_faults(FaultPlan::new(9).fail("approve", 1))
            .with_retry(
                "approve",
                RetryPolicy::attempts(2).with_backoff(Backoff::Fixed(Duration::MAX)),
            );
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(enactor.run_report(&p));
        });
        let report = rx.recv_timeout(WATCHDOG).expect("run terminates");
        assert!(
            matches!(
                report.error,
                Some(EnactError::DeadlineExpired { delay_ms: 40, .. })
            ),
            "{:?}",
            report.error
        );
        assert_eq!(report.completed, vec![sym("book")]);
        assert_eq!(report.attempts_for(sym("approve")), 1);
    }

    #[test]
    fn a_retry_and_a_timeout_armed_out_of_order_both_fire_in_due_order() {
        // Armed at 0, dues 70 and 120 µs, in the opposite order to their
        // dues.
        let mut wheel = TimerWheel::new();
        wheel.arm(120, Wake::Timeout(7));
        wheel.arm(
            70,
            Wake::Retry {
                node: 3,
                attempt: 2,
            },
        );
        assert_eq!(wheel.next_due(), Some(70), "the earlier due, exactly");
        assert!(wheel.advance_to(69).is_empty());
        let fired = wheel.advance_to(200);
        assert!(
            matches!(
                fired.as_slice(),
                [
                    (
                        70,
                        Wake::Retry {
                            node: 3,
                            attempt: 2
                        }
                    ),
                    (120, Wake::Timeout(7))
                ]
            ),
            "both fire, the retry first"
        );
    }

    #[test]
    fn report_success_shape() {
        let p = program(&seq(vec![Goal::atom("one"), Goal::atom("two")]), &[]);
        let report = Enactor::new().run_report(&p);
        assert!(report.is_success());
        assert_eq!(report.completed, vec![sym("one"), sym("two")]);
        assert_eq!(report.attempts.len(), 2);
        assert!(report.attempts.iter().all(|a| a.attempt == 1));
        assert!(report.compensation.is_empty());
    }

    #[test]
    fn send_guard_reports_loss_on_drop() {
        let (tx, rx) = mpsc::channel();
        let guard = SendGuard {
            tx: Some(tx),
            ticket: 9,
        };
        drop(guard);
        let done = rx.recv_timeout(WATCHDOG).expect("sentinel message");
        assert_eq!(done.ticket, 9);
        assert!(matches!(done.outcome, AttemptOutcome::Lost));
    }

    #[test]
    fn send_guard_stays_silent_after_completing() {
        let (tx, rx) = mpsc::channel();
        let guard = SendGuard {
            tx: Some(tx),
            ticket: 3,
        };
        guard.complete(AttemptOutcome::Success);
        let done = rx.recv_timeout(WATCHDOG).expect("completion message");
        assert!(matches!(done.outcome, AttemptOutcome::Success));
        assert!(rx.try_recv().is_err(), "exactly one message per attempt");
    }
}
