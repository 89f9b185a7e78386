#![warn(missing_docs)]

//! # ctr-cli — command-line workflow analysis
//!
//! A thin, dependency-free driver over the library: parse a `.ctr`
//! specification and run the paper's decision procedures on it.
//!
//! ```text
//! ctr check <file>                     consistency (Thm 5.8) + knot report;
//!                                      if inconsistent, a minimal set of
//!                                      constraints that conflict
//! ctr compile <file>                   print the compiled, executable goal
//! ctr verify <file> -p '<c>' [-p ...]  property verification (Thm 5.9),
//!                                      one tabled session for all -p flags
//! ctr minimize <file>                  drop redundant constraints (Thm 5.10)
//! ctr schedule <file>                  print one constraint-respecting schedule
//! ctr enumerate <file> [-n LIMIT]      list allowed executions
//! ctr simulate <file> [-n RUNS]        Monte-Carlo schedule statistics
//! ctr report <file>                    mandatory/optional/dead activities
//! ctr dot <file>                       Graphviz rendering
//! ```
//!
//! Every command is a pure function from the specification text to a
//! report string, so the whole surface is unit-testable without spawning
//! processes.

use ctr::analysis::Verification;
use ctr::constraints::Constraint;
use ctr_engine::scheduler::{Program, Scheduler};
use ctr_parser::{parse_constraint, parse_spec};
use ctr_workflow::WorkflowSpec;
use std::fmt::Write as _;

/// A CLI-level error: message intended for stderr, exit code 1 or 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code (1 = analysis says "no", 2 = usage/parse error).
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    fn analysis(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

fn load(input: &str) -> Result<WorkflowSpec, CliError> {
    parse_spec(input).map_err(|e| CliError::usage(format!("parse error: {e}")))
}

fn compile_spec(spec: &WorkflowSpec) -> Result<ctr::analysis::Compiled, CliError> {
    spec.compile().map_err(|e| CliError::usage(e.to_string()))
}

/// `ctr check`: consistency verdict with knot diagnostics; an
/// inconsistent specification names a minimal conflicting subset of its
/// constraints.
pub fn cmd_check(input: &str) -> Result<String, CliError> {
    let spec = load(input)?;
    let compiled = compile_spec(&spec)?;
    let mut out = String::new();
    let _ = writeln!(out, "workflow `{}`", spec.name);
    let _ = writeln!(
        out,
        "  graph: {} nodes, {} constraints, {} sub-workflows, {} triggers",
        spec.to_goal().size(),
        spec.constraints.len(),
        spec.subworkflows.len(),
        spec.triggers.len()
    );
    for report in &compiled.knots {
        let _ = writeln!(out, "  knot excised: {report}");
    }
    if compiled.has_conditions {
        let _ = writeln!(
            out,
            "  note: the graph queries state (transition conditions); consistency is \
             sound but not complete (paper §7) — confirm by execution"
        );
    }
    if !compiled.is_consistent() {
        // Only an inconsistent spec pays for naming the conflict.
        let conflict = (spec.conflict())
            .map_err(|e| CliError::usage(e.to_string()))?
            .unwrap_or_else(|| "no execution satisfies all constraints".to_owned());
        let _ = writeln!(out, "  INCONSISTENT: {conflict}");
        return Err(CliError::analysis(out));
    }
    // What a deploy would refuse is not CONSISTENT: ask the one refusal,
    // so no bound of the runtime's is restated here.
    let size = compiled.goal.size();
    if let Err(e) = ctr_runtime::Runtime::new().deploy_compiled(&spec.name, compiled.goal) {
        let _ = writeln!(out, "  NOT DEPLOYABLE: {e}");
        return Err(CliError::analysis(out));
    }
    let _ = writeln!(out, "  CONSISTENT ({size} compiled nodes)");
    Ok(out)
}

/// `ctr compile`: print the executable compiled goal.
pub fn cmd_compile(input: &str) -> Result<String, CliError> {
    let spec = load(input)?;
    let compiled = compile_spec(&spec)?;
    if compiled.is_consistent() {
        Ok(format!("{}\n", compiled.goal))
    } else {
        Err(CliError::analysis(
            "nopath (inconsistent specification)\n".to_owned(),
        ))
    }
}

/// `ctr report`: classify every activity (mandatory/optional/dead) and
/// flag dead ones — the §5 "eliminates the parts of the control graph"
/// effect as designer feedback.
pub fn cmd_report(input: &str) -> Result<String, CliError> {
    let spec = load(input)?;
    let goal = spec.to_goal();
    let report = ctr::analysis::activity_report(&goal, &spec.constraints)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let mut out = String::new();
    let mut dead = 0usize;
    for (event, status) in report {
        let label = match status {
            ctr::analysis::ActivityStatus::Mandatory => "mandatory",
            ctr::analysis::ActivityStatus::Optional => "optional ",
            ctr::analysis::ActivityStatus::Dead => {
                dead += 1;
                "DEAD     "
            }
        };
        let _ = writeln!(out, "  [{label}] {event}");
    }
    if dead > 0 {
        let _ = writeln!(
            out,
            "{dead} activit{} can never execute under the constraints — check the spec",
            if dead == 1 { "y" } else { "ies" }
        );
    }
    Ok(out)
}

/// `ctr simulate -n <runs>`: Monte-Carlo sampling of the allowed
/// schedules — activity frequencies and path-length statistics.
pub fn cmd_simulate(input: &str, runs: usize) -> Result<String, CliError> {
    let spec = load(input)?;
    let compiled = compile_spec(&spec)?;
    if !compiled.is_consistent() {
        return Err(CliError::analysis(
            "inconsistent specification: nothing to simulate\n",
        ));
    }
    let program =
        Program::compile(&compiled.goal).map_err(|e| CliError::analysis(format!("{e}\n")))?;
    let sim = ctr_runtime::simulate(&program, runs, 0xC7A0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} runs, {} completed, path length {}..{} (mean {:.1}), {} distinct traces seen",
        sim.runs,
        sim.completed,
        sim.min_len,
        sim.max_len,
        sim.mean_len(),
        sim.distinct_traces
    );
    for (event, count) in &sim.event_frequency {
        let pct = 100.0 * *count as f64 / sim.completed.max(1) as f64;
        let _ = writeln!(out, "  {pct:5.1}%  {event}");
    }
    Ok(out)
}

/// Parameters for [`cmd_enact`], all optional on the command line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnactOptions {
    /// Seed for the branching policy, fault plan, and retry jitter.
    pub seed: u64,
    /// Retry budget applied to every activity (total attempts; min 1).
    pub attempts: u32,
    /// Per-attempt timeout in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Fault-injection spec: comma-separated `event=kind:arg` items with
    /// kinds `fail:N`, `panic:K`, `delay:MS`, `vanish:N`.
    pub faults: String,
    /// Saga compensators: comma-separated `event=undo` items; an
    /// aborted run's report lists the undos of the committed prefix in
    /// reverse commit order.
    pub compensate: String,
}

/// Parses the `--faults` grammar into a [`ctr_runtime::FaultPlan`]:
/// `boom=fail:2,slow=delay:50,ghost=vanish:1,bad=panic:1` injects two
/// failures into `boom`'s first attempts, delays every `slow` attempt by
/// 50ms, makes `ghost`'s first worker vanish, and panics `bad`'s first
/// attempt.
fn parse_fault_plan(spec: &str, seed: u64) -> Result<ctr_runtime::FaultPlan, CliError> {
    use ctr_runtime::Fault;
    let mut plan = ctr_runtime::FaultPlan::new(seed);
    for item in spec.split(',').filter(|s| !s.trim().is_empty()) {
        let bad = || CliError::usage(format!("bad fault `{item}` (want event=kind:arg)"));
        let (event, kind_arg) = item.trim().split_once('=').ok_or_else(bad)?;
        let (kind, arg) = kind_arg.split_once(':').ok_or_else(bad)?;
        let n: u64 = arg.parse().map_err(|_| bad())?;
        let fault = match kind {
            "fail" => Fault::FailTimes(u32::try_from(n).map_err(|_| bad())?),
            "panic" => Fault::PanicOnAttempt(u32::try_from(n).map_err(|_| bad())?),
            "vanish" => Fault::Vanish(u32::try_from(n).map_err(|_| bad())?),
            "delay" => Fault::Delay(std::time::Duration::from_millis(n)),
            _ => return Err(bad()),
        };
        plan = plan.inject(event, fault);
    }
    Ok(plan)
}

/// `ctr enact`: deploy the specification on a fresh runtime, enact the
/// deployment through the fault-tolerant dispatcher
/// ([`ctr_runtime::Runtime::enact`]) — activities complete instantly
/// unless the `--faults` plan injects failures — and print the
/// per-attempt log, committed trace,
/// and (on abort) the typed error with the compensation-relevant prefix.
/// Deterministic for a fixed `(spec, options)` pair.
pub fn cmd_enact(input: &str, opts: &EnactOptions) -> Result<String, CliError> {
    use ctr_runtime::{AttemptOutcome, ChoicePolicy, RetryPolicy, Runtime, RuntimeError};
    let mut runtime = Runtime::new();
    let name = runtime.deploy_source(input).map_err(|e| match e {
        RuntimeError::Inconsistent { .. } => {
            CliError::analysis("inconsistent specification: nothing to enact\n")
        }
        RuntimeError::Compile(message) => CliError::usage(message),
        e => CliError::usage(e.to_string()),
    })?;
    let mut policy = RetryPolicy::attempts(opts.attempts.max(1));
    if let Some(ms) = opts.timeout_ms {
        policy = policy.with_timeout(std::time::Duration::from_millis(ms));
    }
    let mut enactor = ctr_runtime::Enactor::new()
        .with_policy(ChoicePolicy::Random(opts.seed))
        .with_default_retry(policy)
        .with_faults(parse_fault_plan(&opts.faults, opts.seed)?)
        .with_seed(opts.seed);
    for item in opts.compensate.split(',').filter(|s| !s.trim().is_empty()) {
        let (event, undo) = item.trim().split_once('=').ok_or_else(|| {
            CliError::usage(format!("bad compensator `{item}` (want event=undo)"))
        })?;
        enactor.compensate(event, undo);
    }
    let report = runtime
        .enact(&name, &enactor)
        .map_err(|e| CliError::analysis(format!("{e}\n")))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "enacting `{}` (seed {}, attempts {}{})",
        name,
        opts.seed,
        opts.attempts.max(1),
        match opts.timeout_ms {
            Some(ms) => format!(", timeout {ms}ms"),
            None => String::new(),
        }
    );
    for a in &report.attempts {
        let verdict = match &a.outcome {
            AttemptOutcome::Success => "ok".to_owned(),
            AttemptOutcome::Failed(reason) => format!("failed: {reason}"),
            AttemptOutcome::Panicked(msg) => format!("panicked: {msg}"),
            AttemptOutcome::TimedOut => "timed out".to_owned(),
            AttemptOutcome::Lost => "worker lost".to_owned(),
        };
        let _ = writeln!(
            out,
            "  attempt {} of `{}`: {verdict} ({:?})",
            a.attempt, a.event, a.latency
        );
    }
    let committed: Vec<&str> = report.completed.iter().map(|s| s.as_str()).collect();
    let _ = writeln!(out, "committed: {}", committed.join(" -> "));
    match &report.error {
        None => {
            let _ = writeln!(
                out,
                "COMPLETED: {} events, {} retries, {:?}",
                report.completed.len(),
                report.total_retries(),
                report.elapsed
            );
            Ok(out)
        }
        Some(err) => {
            let _ = writeln!(out, "FAILED: {err}");
            if !report.compensation.is_empty() {
                let undo: Vec<&str> = report.compensation.iter().map(|s| s.as_str()).collect();
                let _ = writeln!(out, "compensation: {}", undo.join(" -> "));
            }
            Err(CliError::analysis(out))
        }
    }
}

/// `ctr dot`: render the (compiled) workflow as a Graphviz digraph, with
/// injected channels shown as dotted cross edges.
pub fn cmd_dot(input: &str) -> Result<String, CliError> {
    let spec = load(input)?;
    let compiled = compile_spec(&spec)?;
    if !compiled.is_consistent() {
        return Err(CliError::analysis(
            "inconsistent specification: nothing to draw\n",
        ));
    }
    Ok(ctr_workflow::goal_to_dot(&spec.name, &compiled.goal))
}

/// `ctr verify -p <constraint> [-p <constraint> ...] [--stats]`: does
/// every execution satisfy each property?
///
/// All properties are answered through one [`ctr::memo::Analyzer`]
/// session, so the compiled `G ∧ C` prefix is shared across them instead
/// of being recompiled per property (the verification path is
/// NP-complete — the sharing is the point). Exit code 1 if any property
/// is violated; `--stats` appends the session's memo-table counters.
pub fn cmd_verify(input: &str, properties: &[String], stats: bool) -> Result<String, CliError> {
    if properties.is_empty() {
        return Err(CliError::usage(USAGE));
    }
    let spec = load(input)?;
    let parsed: Vec<Constraint> = properties
        .iter()
        .map(|p| parse_constraint(p).map_err(|e| CliError::usage(format!("property: {e}"))))
        .collect::<Result<_, _>>()?;
    let goal = spec.to_goal();
    let mut analyzer = ctr::memo::Analyzer::new(&goal, &spec.constraints)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let mut out = String::new();
    let mut violated = 0usize;
    for property in &parsed {
        match analyzer.verify(property) {
            Verification::Holds => {
                let _ = writeln!(out, "HOLDS: every execution satisfies {property}");
            }
            Verification::CounterExample(ce) => {
                violated += 1;
                let _ = writeln!(
                    out,
                    "VIOLATED: {property}\nmost general counterexample:\n  {ce}"
                );
            }
        }
    }
    if parsed.len() > 1 {
        let _ = writeln!(
            out,
            "{} of {} properties hold",
            parsed.len() - violated,
            parsed.len()
        );
    }
    if stats {
        let _ = writeln!(out, "memo: {}", analyzer.stats());
    }
    if violated == 0 {
        Ok(out)
    } else {
        Err(CliError::analysis(out))
    }
}

/// `ctr minimize`: report which constraints are redundant (Thm 5.10).
pub fn cmd_minimize(input: &str) -> Result<String, CliError> {
    let spec = load(input)?;
    let goal = spec.to_goal();
    let kept = ctr::analysis::minimize_constraints(&goal, &spec.constraints)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let mut out = String::new();
    for (i, c) in spec.constraints.iter().enumerate() {
        let verdict = if kept.contains(&i) {
            "kept     "
        } else {
            "redundant"
        };
        let _ = writeln!(out, "  [{verdict}] {c}");
    }
    let _ = writeln!(
        out,
        "{} of {} constraints retained",
        kept.len(),
        spec.constraints.len()
    );
    Ok(out)
}

/// `ctr schedule`: one complete, constraint-respecting schedule.
pub fn cmd_schedule(input: &str) -> Result<String, CliError> {
    let spec = load(input)?;
    let compiled = compile_spec(&spec)?;
    if !compiled.is_consistent() {
        return Err(CliError::analysis(
            "inconsistent specification: nothing to schedule\n",
        ));
    }
    let program =
        Program::compile(&compiled.goal).map_err(|e| CliError::analysis(format!("{e}\n")))?;
    let mut scheduler = Scheduler::new(&program);
    let mut out = String::new();
    while !scheduler.is_complete() {
        let eligible = scheduler.eligible();
        let Some(step) = eligible.first().copied() else {
            return Err(CliError::analysis(
                "deadlock while scheduling (knot at run time)\n",
            ));
        };
        let shown: Vec<String> = eligible
            .iter()
            .filter_map(|c| program.event(c.node))
            .map(ToString::to_string)
            .collect();
        if let Some(atom) = program.event(step.node) {
            let _ = writeln!(out, "  fire {atom:<24} (eligible: {})", shown.join(", "));
        }
        scheduler.fire(step.node);
    }
    let path: Vec<String> = scheduler.trace().map(ToString::to_string).collect();
    let _ = writeln!(out, "schedule: {}", path.join(" -> "));
    Ok(out)
}

/// `ctr enumerate -n <limit>`: the allowed executions.
pub fn cmd_enumerate(input: &str, limit: usize) -> Result<String, CliError> {
    let spec = load(input)?;
    let compiled = compile_spec(&spec)?;
    if !compiled.is_consistent() {
        return Err(CliError::analysis(
            "inconsistent specification: no executions\n",
        ));
    }
    let program =
        Program::compile(&compiled.goal).map_err(|e| CliError::analysis(format!("{e}\n")))?;
    let traces = Scheduler::new(&program).enumerate_traces(limit);
    let mut out = String::new();
    for t in &traces {
        let names: Vec<&str> = t.iter().map(|s| s.as_str()).collect();
        let _ = writeln!(out, "  {}", names.join(" -> "));
    }
    let _ = writeln!(
        out,
        "{} execution(s){}",
        traces.len(),
        if traces.len() >= limit {
            " (limit reached)"
        } else {
            ""
        }
    );
    Ok(out)
}

/// Parses a `--durability` value: `strict` (durable on return, through
/// cross-thread group commit), `coalesced` (the same, the leader
/// lingering to grow each group), or
/// `periodic` (acknowledge at staging; background sync bounds the loss
/// window — relaxed, documented as such).
pub fn parse_durability(value: &str) -> Result<ctr_runtime::Durability, CliError> {
    use ctr_runtime::Durability;
    match value {
        "strict" => Ok(Durability::Strict),
        "coalesced" => Ok(Durability::coalesced()),
        "periodic" => Ok(Durability::periodic()),
        other => Err(CliError::usage(format!(
            "--durability must be strict, coalesced, or periodic (got `{other}`)"
        ))),
    }
}

/// `ctr run --store <dir> [--durability <policy>] <verb>`: one step of
/// a durable workflow session. Every invocation opens the write-ahead
/// store at `dir` (creating it on first use), replays it into a fresh
/// runtime — recovery failure is a nonzero exit — applies the verb, and
/// returns. All mutations (`deploy`, `start`, `fire`, `advance`) are
/// durable before the command prints anything (under `periodic`:
/// durable within one sync interval or on clean exit, whichever comes
/// first), so the session survives `kill -9` between (or during)
/// invocations.
pub fn cmd_run(
    dir: &str,
    durability: ctr_runtime::Durability,
    verb: &str,
    rest: &[String],
) -> Result<String, CliError> {
    use ctr_runtime::{Runtime, Store, WalOptions, WalStore};
    use std::sync::Arc;

    let options = WalOptions {
        durability,
        ..WalOptions::default()
    };
    let store: Arc<dyn Store> = Arc::new(
        WalStore::open_with(dir, options)
            .map_err(|e| CliError::analysis(format!("store `{dir}`: {e}\n")))?,
    );
    let mut rt = Runtime::open(Arc::clone(&store))
        .map_err(|e| CliError::analysis(format!("recovery from `{dir}` failed: {e}\n")))?;
    let step = |e: ctr_runtime::RuntimeError| CliError::analysis(format!("{e}\n"));

    let mut out = String::new();
    match (verb, rest) {
        ("deploy", [path]) => {
            let source = std::fs::read_to_string(path)
                .map_err(|e| CliError::usage(format!("cannot read `{path}`: {e}")))?;
            let name = rt.deploy_source(&source).map_err(step)?;
            let _ = writeln!(out, "deployed `{name}`");
        }
        ("start", [workflow]) => {
            let id = rt.start(workflow).map_err(step)?;
            let _ = writeln!(out, "started instance {id} of `{workflow}`");
        }
        ("fire", [id, events @ ..]) if !events.is_empty() => {
            let id: u64 = id
                .parse()
                .map_err(|_| CliError::usage("fire needs a numeric instance id"))?;
            for event in events {
                rt.fire(id, event).map_err(step)?;
            }
            let status = rt.try_complete(id).map_err(step)?;
            let journal = rt.journal(id).map_err(step)?;
            let _ = writeln!(out, "instance {id} [{status}]: {}", journal.join(" "));
        }
        ("status", []) => out = rt.snapshot(),
        ("status", [id]) => {
            let id: u64 = id
                .parse()
                .map_err(|_| CliError::usage("status needs a numeric instance id"))?;
            let status = rt.status(id).map_err(step)?;
            let _ = writeln!(out, "instance {id} [{status}]");
            let _ = writeln!(
                out,
                "  journal: {}",
                rt.journal(id).map_err(step)?.join(" ")
            );
            let _ = writeln!(
                out,
                "  eligible: {}",
                rt.eligible(id).map_err(step)?.join(" ")
            );
            let timers = rt.pending_timers(id).map_err(step)?;
            if !timers.is_empty() {
                let pending: Vec<String> = timers
                    .iter()
                    .map(|(tick, due)| format!("{tick} due {due}ms"))
                    .collect();
                let _ = writeln!(out, "  timers: {}", pending.join(", "));
            }
        }
        ("timers", [id]) => {
            let id: u64 = id
                .parse()
                .map_err(|_| CliError::usage("timers needs a numeric instance id"))?;
            let timers = rt.pending_timers(id).map_err(step)?;
            let _ = writeln!(
                out,
                "instance {id}: {} pending (clock {}ms)",
                timers.len(),
                rt.clock_ms()
            );
            for (tick, due) in timers {
                let _ = writeln!(out, "  {tick} due {due}ms");
            }
        }
        ("advance", [to_ms]) => {
            let to_ms: u64 = to_ms
                .parse()
                .map_err(|_| CliError::usage("advance needs a millisecond clock target"))?;
            let fired = rt.advance(to_ms).map_err(step)?;
            let _ = writeln!(
                out,
                "clock {}ms, {} timer(s) fired",
                rt.clock_ms(),
                fired.len()
            );
            for (id, tick) in fired {
                let _ = writeln!(out, "  instance {id}: {tick}");
            }
        }
        ("cancel-timer", [id, event]) => {
            let id: u64 = id
                .parse()
                .map_err(|_| CliError::usage("cancel-timer needs a numeric instance id"))?;
            rt.cancel_timer(id, event).map_err(step)?;
            let _ = writeln!(out, "cancelled timer on `{event}` for instance {id}");
        }
        ("snapshot", []) => {
            rt.checkpoint().map_err(step)?;
            out = rt.snapshot();
        }
        ("recover", []) => {
            let _ = writeln!(
                out,
                "recovered `{dir}`: {} workflows, {} instances, {} replayed steps",
                rt.workflows().len(),
                rt.instances().len(),
                rt.replayed_steps()
            );
            if let Some(stats) = rt.store_stats() {
                let _ = writeln!(out, "store: {stats}");
            }
        }
        _ => return Err(CliError::usage(USAGE)),
    }
    Ok(out)
}

/// `ctr serve [--addr HOST:PORT] [--store <dir> [--durability <p>]]
/// [--burst N]`: serve the shared runtime over TCP until a client
/// sends the `shutdown` verb. Prints the bound address on its own
/// line and flushes *before* blocking, so scripts binding port 0 can
/// read the ephemeral port from the first line of output.
pub fn cmd_serve(rest: &[String]) -> Result<String, CliError> {
    use ctr_runtime::{SharedRuntime, Store, WalOptions, WalStore};
    use std::sync::Arc;

    let mut addr = "127.0.0.1:7171".to_owned();
    let mut store_dir: Option<String> = None;
    let mut durability = ctr_runtime::Durability::Strict;
    let mut opts = ctr_serve::ServeOptions::default();
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        let mut value = || -> Result<&String, CliError> {
            i += 1;
            rest.get(i)
                .ok_or_else(|| CliError::usage(format!("{flag} needs a value\n\n{USAGE}")))
        };
        match flag {
            "--addr" => addr = value()?.clone(),
            "--store" => store_dir = Some(value()?.clone()),
            "--durability" => durability = parse_durability(value()?)?,
            "--burst" => {
                opts.max_burst_requests = value()?
                    .parse()
                    .map_err(|_| CliError::usage("--burst must be a number"))?;
            }
            _ => return Err(CliError::usage(USAGE)),
        }
        i += 1;
    }
    let runtime = match &store_dir {
        Some(dir) => {
            let options = WalOptions {
                durability,
                ..WalOptions::default()
            };
            let store: Arc<dyn Store> = Arc::new(
                WalStore::open_with(dir, options)
                    .map_err(|e| CliError::analysis(format!("store `{dir}`: {e}\n")))?,
            );
            SharedRuntime::open(store)
                .map_err(|e| CliError::analysis(format!("recovery from `{dir}` failed: {e}\n")))?
        }
        None => SharedRuntime::new(),
    };
    let server = ctr_serve::Server::bind(runtime, &addr, opts)
        .map_err(|e| CliError::analysis(format!("cannot bind `{addr}`: {e}\n")))?;
    println!("serving on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server
        .run()
        .map_err(|e| CliError::analysis(format!("server failed: {e}\n")))?;
    Ok("server exited\n".to_owned())
}

/// Usage text.
pub const USAGE: &str = "\
ctr — logic-based workflow analysis (PODS'98 CTR)

USAGE:
    ctr check     <spec.ctr>
    ctr compile   <spec.ctr>
    ctr verify    <spec.ctr> -p '<constraint>' [-p '<constraint>' ...] [--stats]
    ctr minimize  <spec.ctr>
    ctr schedule  <spec.ctr>
    ctr dot       <spec.ctr>
    ctr report    <spec.ctr>
    ctr enumerate <spec.ctr> [-n LIMIT]
    ctr simulate  <spec.ctr> [-n RUNS]
    ctr enact     <spec.ctr> [--seed N] [--attempts N] [--timeout-ms N]
                             [--faults 'e=fail:2,f=panic:1,g=delay:5,h=vanish:1']
                             [--compensate 'e=undo_e,f=undo_f']
    ctr run --store <dir> [--durability strict|coalesced|periodic] <verb> ...
        deploy <spec.ctr>     durable session over a WAL store:
        start <workflow>      each verb recovers the runtime
        fire <id> <event>...  from <dir>, applies, and persists
        status [<id>]
        snapshot              print + compact to a checkpoint
        recover               recovery report (exit 1 on corruption)
        timers <id>           pending timers of one instance
        advance <ms>          move the logical clock, firing due timers
        cancel-timer <id> <tick>    disarm a pending timer by tick name
        (--durability: strict = durable-on-return group commit;
         coalesced = the same, lingering to grow groups; periodic =
         ack at staging, synced within ~5ms — a crash may lose that window)
    ctr serve [--addr HOST:PORT] [--store <dir> [--durability <p>]]
              [--burst N]
        serve the runtime over TCP (binary wire protocol; see
        DESIGN.md sec. 16). Prints the bound address first, then
        blocks until a client sends `shutdown`. --addr defaults to
        127.0.0.1:7171; port 0 binds an ephemeral port. --burst caps
        admitted requests per read burst (excess answer Busy).

CONSTRAINT SYNTAX:
    exists(e)  absent(e)  before(a,b)  serial(a,b,c)
    klein_order(a,b)  klein_exists(a,b)  causes(a,b)  requires(a,b)
    not(C)  C and C  C or C  C implies C
";

/// Parses argv (past the program name) and runs the command over the
/// file contents read here. Returns the report or an error.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let command = args.first().map(String::as_str).unwrap_or("");
    let read = |path: &str| -> Result<String, CliError> {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::usage(format!("cannot read `{path}`: {e}")))
    };
    match command {
        "check" | "compile" | "minimize" | "schedule" | "dot" | "report" => {
            let [_, path] = args else {
                return Err(CliError::usage(USAGE));
            };
            let input = read(path)?;
            match command {
                "check" => cmd_check(&input),
                "compile" => cmd_compile(&input),
                "minimize" => cmd_minimize(&input),
                "dot" => cmd_dot(&input),
                "report" => cmd_report(&input),
                _ => cmd_schedule(&input),
            }
        }
        "verify" => {
            let [_, path, rest @ ..] = args else {
                return Err(CliError::usage(USAGE));
            };
            let mut properties: Vec<String> = Vec::new();
            let mut stats = false;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "-p" | "--property" => {
                        let value = it.next().ok_or_else(|| {
                            CliError::usage(format!("{flag} needs a value\n\n{USAGE}"))
                        })?;
                        properties.push(value.clone());
                    }
                    "--stats" => stats = true,
                    _ => return Err(CliError::usage(USAGE)),
                }
            }
            cmd_verify(&read(path)?, &properties, stats)
        }
        "simulate" => match args {
            [_, path] => cmd_simulate(&read(path)?, 1000),
            [_, path, flag, n] if flag == "-n" || flag == "--runs" => {
                let runs: usize = n
                    .parse()
                    .map_err(|_| CliError::usage("RUNS must be a number"))?;
                cmd_simulate(&read(path)?, runs)
            }
            _ => Err(CliError::usage(USAGE)),
        },
        "enumerate" => match args {
            [_, path] => cmd_enumerate(&read(path)?, 50),
            [_, path, flag, n] if flag == "-n" || flag == "--limit" => {
                let limit: usize = n
                    .parse()
                    .map_err(|_| CliError::usage("LIMIT must be a number"))?;
                cmd_enumerate(&read(path)?, limit)
            }
            _ => Err(CliError::usage(USAGE)),
        },
        "enact" => {
            let [_, path, rest @ ..] = args else {
                return Err(CliError::usage(USAGE));
            };
            let mut opts = EnactOptions {
                attempts: 1,
                ..EnactOptions::default()
            };
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::usage(format!("{flag} needs a value\n\n{USAGE}")))?;
                let number = || {
                    value
                        .parse::<u64>()
                        .map_err(|_| CliError::usage(format!("{flag} must be a number")))
                };
                match flag.as_str() {
                    "--seed" => opts.seed = number()?,
                    "--attempts" => {
                        opts.attempts = u32::try_from(number()?)
                            .map_err(|_| CliError::usage("--attempts out of range"))?;
                    }
                    "--timeout-ms" => opts.timeout_ms = Some(number()?),
                    "--faults" => opts.faults = value.clone(),
                    "--compensate" => opts.compensate = value.clone(),
                    _ => return Err(CliError::usage(USAGE)),
                }
            }
            cmd_enact(&read(path)?, &opts)
        }
        "run" => {
            let [_, flag, dir, rest @ ..] = args else {
                return Err(CliError::usage(USAGE));
            };
            if flag != "--store" {
                return Err(CliError::usage(USAGE));
            }
            let (durability, rest) = match rest {
                [flag, value, rest @ ..] if flag == "--durability" => {
                    (parse_durability(value)?, rest)
                }
                _ => (ctr_runtime::Durability::Strict, rest),
            };
            let [verb, rest @ ..] = rest else {
                return Err(CliError::usage(USAGE));
            };
            cmd_run(dir, durability, verb, rest)
        }
        "serve" => cmd_serve(&args[1..]),
        "help" | "--help" | "-h" | "" => Ok(USAGE.to_owned()),
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r"
        workflow demo {
            graph a * (b # c) * d;
            constraint before(b, c);
        }
    ";

    const INCONSISTENT: &str = r"
        workflow broken {
            graph b * a;
            constraint before(a, b);
        }
    ";

    #[test]
    fn check_reports_consistency() {
        let out = cmd_check(SPEC).unwrap();
        assert!(out.contains("CONSISTENT"));
        assert!(out.contains("workflow `demo`"));
    }

    #[test]
    fn check_rejects_inconsistent_spec_with_code_1() {
        let err = cmd_check(INCONSISTENT).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            (err.message)
                .contains("INCONSISTENT: constraint 1 (serial(a, b)) conflicts with the graph"),
            "{}",
            err.message
        );
    }

    #[test]
    fn check_names_a_minimal_conflicting_subset() {
        // Orders only, over a goal whose events occur once: the subset is
        // found on the graph. `exists(d)` takes no part in the cycle.
        let cycle = "workflow cyc { graph a # b # c # d; constraint before(a, b); \
                     constraint before(b, c); constraint exists(d); constraint before(c, a); }";
        let err = cmd_check(cycle).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            (err.message).contains(
                "INCONSISTENT: constraints 1 (serial(a, b)), 2 (serial(b, c)) \
                 and 4 (serial(c, a)) conflict"
            ),
            "{}",
            err.message
        );
        // A Klein order has three disjuncts: the subset is found by
        // compiles. Once `b` precedes `a`, the two `exists` are implied.
        let klein = "workflow kl { graph a # b # c; constraint klein_order(a, b); \
                     constraint exists(a); constraint exists(b); constraint before(b, a); }";
        let err = cmd_check(klein).unwrap_err();
        assert!(
            (err.message).contains(
                "INCONSISTENT: constraints 1 (absent(a) or absent(b) or serial(a, b)) \
                 and 4 (serial(b, a)) conflict"
            ),
            "{}",
            err.message
        );
        // A deploy refuses with the same words.
        let err = ctr_runtime::Runtime::new()
            .deploy_source(cycle)
            .unwrap_err();
        assert!(err
            .to_string()
            .ends_with("2 (serial(b, c)) and 4 (serial(c, a)) conflict"));
    }

    #[test]
    fn check_refuses_what_a_deploy_refuses() {
        // 130 one-level defines parse and compile consistent, but the
        // compiled goal nests 130 deep and prints past what the parser
        // reads back, so a deploy refuses it.
        let levels = 130;
        let defines: String = (0..levels)
            .map(|i| format!("define s{i} := (a{i} + b{i} * s{}); ", i + 1))
            .collect();
        let deeps = format!("workflow deeps {{ graph s0; {defines}define s{levels} := leaf; }}");
        let err = cmd_check(&deeps).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            err.message.contains("does not read back"),
            "{}",
            err.message
        );
        assert!(!err.message.contains("  CONSISTENT"), "{}", err.message);
        let saga = include_str!("../../../examples/specs/payment_saga.ctr");
        assert!(cmd_check(saga).unwrap().contains("  CONSISTENT"));
    }

    #[test]
    fn check_flags_parse_errors_with_code_2() {
        let err = cmd_check("workflow oops {").unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("parse error"));
    }

    #[test]
    fn check_flags_hostile_nesting_with_code_2_instead_of_aborting() {
        // 20 000 levels overflowed even the main thread's 8 MiB.
        let deep = format!(
            "workflow deep {{ graph {}a{}; }}",
            "iso(".repeat(20_000),
            ")".repeat(20_000)
        );
        let err = cmd_check(&deep).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message
                .contains("parse error: nesting exceeds the limit"),
            "{}",
            err.message
        );
    }

    #[test]
    fn compile_prints_a_goal() {
        let out = cmd_compile(SPEC).unwrap();
        assert!(out.contains("send(") && out.contains("receive("));
    }

    #[test]
    fn verify_holds_and_violated() {
        assert!(cmd_verify(SPEC, &["klein_order(b, c)".into()], false)
            .unwrap()
            .contains("HOLDS"));
        let err = cmd_verify(SPEC, &["before(c, b)".into()], false).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("counterexample"));
    }

    #[test]
    fn verify_rejects_bad_property_syntax() {
        let err = cmd_verify(SPEC, &["sometime(b)".into()], false).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn verify_answers_many_properties_in_one_session() {
        let props: Vec<String> = vec![
            "klein_order(b, c)".into(),
            "exists(a)".into(),
            "exists(d)".into(),
        ];
        let out = cmd_verify(SPEC, &props, true).unwrap();
        assert_eq!(out.matches("HOLDS").count(), 3);
        assert!(out.contains("3 of 3 properties hold"));
        assert!(
            out.contains("memo:") && out.contains("hits"),
            "--stats line"
        );

        // A mixed batch reports every verdict and exits 1.
        let mixed: Vec<String> = vec!["exists(a)".into(), "before(c, b)".into()];
        let err = cmd_verify(SPEC, &mixed, false).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err
            .message
            .contains("HOLDS: every execution satisfies exists(a)"));
        assert!(err.message.contains("VIOLATED"));
        assert!(err.message.contains("1 of 2 properties hold"));

        // No properties at all is a usage error.
        assert_eq!(cmd_verify(SPEC, &[], false).unwrap_err().code, 2);
    }

    #[test]
    fn run_parses_repeated_verify_properties() {
        let path = std::env::temp_dir().join("ctr_cli_verify_spec.ctr");
        std::fs::write(&path, SPEC).unwrap();
        let out = run(&[
            "verify".into(),
            path.display().to_string(),
            "-p".into(),
            "klein_order(b, c)".into(),
            "--property".into(),
            "exists(d)".into(),
            "--stats".into(),
        ])
        .unwrap();
        assert!(out.contains("2 of 2 properties hold"));
        assert!(out.contains("memo:"));
        let err = run(&["verify".into(), path.display().to_string(), "-p".into()]).unwrap_err();
        assert!(err.message.contains("-p needs a value"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn minimize_marks_redundant_constraints() {
        let spec = r"
            workflow m {
                graph a * b * c;
                constraint before(a, c);
                constraint exists(b);
            }
        ";
        let out = cmd_minimize(spec).unwrap();
        assert!(out.contains("[redundant] serial(a, c)"));
        assert!(out.contains("[redundant] exists(b)"));
        assert!(out.contains("0 of 2 constraints retained"));
    }

    #[test]
    fn schedule_produces_a_valid_path() {
        let out = cmd_schedule(SPEC).unwrap();
        assert!(out.contains("schedule: a -> b -> c -> d"));
    }

    #[test]
    fn a_channel_id_at_the_top_of_u32_checks_and_schedules() {
        // The compiler needs a fresh id next to ξ_MAX and the scheduler
        // tables for it; both used to go by the id's value.
        let spec = "workflow w { graph a * send(xi4294967295) * receive(xi4294967295) * b * c; \
                    constraint before(a, c); }";
        assert!(cmd_check(spec).unwrap().contains("CONSISTENT"));
        assert!(cmd_schedule(spec)
            .unwrap()
            .contains("schedule: a -> b -> c"));
    }

    #[test]
    fn enumerate_lists_allowed_executions() {
        let out = cmd_enumerate(SPEC, 50).unwrap();
        // b before c in every listed execution; d closes each.
        assert!(out.contains("a -> b -> c -> d"));
        assert!(!out.contains("c -> b"));
    }

    #[test]
    fn report_flags_dead_activities() {
        let spec = r"
            workflow r {
                graph a * (b + c) * d;
                constraint absent(c);
            }
        ";
        let out = cmd_report(spec).unwrap();
        assert!(out.contains("[DEAD     ] c"));
        assert!(
            out.contains("[mandatory] b"),
            "with c dead, b becomes mandatory"
        );
        assert!(out.contains("1 activity can never execute"));
    }

    #[test]
    fn simulate_reports_frequencies() {
        let out = cmd_simulate(SPEC, 100).unwrap();
        assert!(out.contains("100 runs, 100 completed"));
        assert!(out.contains("100.0%  a"));
    }

    #[test]
    fn dot_renders_a_digraph() {
        let out = cmd_dot(SPEC).unwrap();
        assert!(out.starts_with("digraph \"demo\""));
        assert!(
            out.contains("send xi"),
            "compiled channel appears in the drawing"
        );
        let err = cmd_dot(INCONSISTENT).unwrap_err();
        assert_eq!(err.code, 1);
    }

    #[test]
    fn enact_clean_run_completes() {
        let opts = EnactOptions {
            attempts: 1,
            ..EnactOptions::default()
        };
        let out = cmd_enact(SPEC, &opts).unwrap();
        assert!(out.contains("enacting `demo` (seed 0, attempts 1)"));
        assert!(out.contains("COMPLETED: 4 events, 0 retries"));
        assert!(out.contains("committed: a -> b -> c -> d"));
    }

    #[test]
    fn enact_recovers_injected_faults_with_retries() {
        let opts = EnactOptions {
            attempts: 3,
            faults: "b=fail:2".to_owned(),
            ..EnactOptions::default()
        };
        let out = cmd_enact(SPEC, &opts).unwrap();
        assert!(out.contains("attempt 1 of `b`: failed: injected failure (1/2)"));
        assert!(out.contains("attempt 2 of `b`: failed: injected failure (2/2)"));
        assert!(out.contains("attempt 3 of `b`: ok"));
        assert!(out.contains("COMPLETED: 4 events, 2 retries"));
    }

    #[test]
    fn enact_reports_typed_failure_with_exit_code_1() {
        let opts = EnactOptions {
            attempts: 2,
            faults: "c=fail:99".to_owned(),
            ..EnactOptions::default()
        };
        let err = cmd_enact(SPEC, &opts).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("FAILED: activity `c` failed"));
        assert!(err.message.contains("committed: a -> b"));
    }

    #[test]
    fn enact_expired_deadline_compensates_the_committed_prefix() {
        const TIMED: &str = r"
            workflow sla {
                graph a * b;
                deadline(b, 40ms);
            }
        ";
        let opts = EnactOptions {
            attempts: 1,
            faults: "b=delay:5000".to_owned(),
            compensate: "a=undo_a".to_owned(),
            ..EnactOptions::default()
        };
        let err = cmd_enact(TIMED, &opts).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            err.message
                .contains("FAILED: deadline on `b` expired after 40ms"),
            "{}",
            err.message
        );
        assert!(
            err.message.contains("compensation: undo_a"),
            "{}",
            err.message
        );
        // Bad compensator grammar is a usage error, not a run.
        let opts = EnactOptions {
            compensate: "a".to_owned(),
            ..EnactOptions::default()
        };
        assert_eq!(cmd_enact(TIMED, &opts).unwrap_err().code, 2);
    }

    #[test]
    fn enact_rejects_bad_fault_specs() {
        let opts = EnactOptions {
            faults: "b=explode:1".to_owned(),
            ..EnactOptions::default()
        };
        let err = cmd_enact(SPEC, &opts).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("bad fault `b=explode:1`"));
        let opts = EnactOptions {
            faults: "nonsense".to_owned(),
            ..EnactOptions::default()
        };
        assert_eq!(cmd_enact(SPEC, &opts).unwrap_err().code, 2);
    }

    #[test]
    fn run_parses_enact_flags() {
        let path = std::env::temp_dir().join("ctr_cli_enact_spec.ctr");
        std::fs::write(&path, SPEC).unwrap();
        let out = run(&[
            "enact".into(),
            path.display().to_string(),
            "--seed".into(),
            "7".into(),
            "--attempts".into(),
            "2".into(),
            "--faults".into(),
            "a=fail:1".into(),
        ])
        .unwrap();
        assert!(out.contains("enacting `demo` (seed 7, attempts 2)"));
        assert!(out.contains("attempt 2 of `a`: ok"));
        let err = run(&["enact".into(), path.display().to_string(), "--seed".into()]).unwrap_err();
        assert!(err.message.contains("--seed needs a value"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_dispatches_and_reports_usage() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&["help".into()]).unwrap().contains("USAGE"));
        let err = run(&["frobnicate".into()]).unwrap_err();
        assert_eq!(err.code, 2);
        let err = run(&["check".into(), "/nonexistent/x.ctr".into()]).unwrap_err();
        assert!(err.message.contains("cannot read"));
    }

    /// Drives one `ctr run --store` invocation; every call is a fresh
    /// process as far as the runtime is concerned (full reopen+replay).
    fn session(dir: &std::path::Path, verb: &[&str]) -> Result<String, CliError> {
        let mut args = vec![
            "run".to_owned(),
            "--store".to_owned(),
            dir.display().to_string(),
        ];
        args.extend(verb.iter().map(|s| (*s).to_owned()));
        run(&args)
    }

    #[test]
    fn run_store_session_survives_reopen_between_every_verb() {
        let dir = std::env::temp_dir().join(format!("ctr_cli_store_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = std::env::temp_dir().join("ctr_cli_store_spec.ctr");
        std::fs::write(&spec, SPEC).unwrap();
        let spec = spec.display().to_string();

        assert!(session(&dir, &["deploy", &spec])
            .unwrap()
            .contains("deployed `demo`"));
        assert!(session(&dir, &["start", "demo"])
            .unwrap()
            .contains("started instance 0 of `demo`"));
        assert!(session(&dir, &["fire", "0", "a", "b"])
            .unwrap()
            .contains("instance 0 [running]: a b"));
        let out = session(&dir, &["status"]).unwrap();
        assert!(out.contains("instance 0 of demo [running]: a b"), "{out}");
        let out = session(&dir, &["status", "0"]).unwrap();
        assert!(out.contains("eligible: c"), "{out}");
        // Compact, then keep going: the checkpoint must carry the state.
        assert!(session(&dir, &["snapshot"])
            .unwrap()
            .contains("[running]: a b"));
        assert!(session(&dir, &["fire", "0", "c", "d"])
            .unwrap()
            .contains("instance 0 [completed]: a b c d"));
        let out = session(&dir, &["recover"]).unwrap();
        assert!(out.contains("1 workflows, 1 instances"), "{out}");
        assert!(out.contains("store:"), "{out}");
        // A rejected event is an analysis error, not a panic — and the
        // store still reopens cleanly afterwards (nothing half-written).
        assert_eq!(session(&dir, &["fire", "0", "z"]).unwrap_err().code, 1);
        assert!(session(&dir, &["status"]).unwrap().contains("[completed]"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_store_timer_verbs_survive_reopen() {
        let dir = std::env::temp_dir().join(format!("ctr_cli_timer_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = std::env::temp_dir().join("ctr_cli_timer_spec.ctr");
        std::fs::write(
            &spec,
            "workflow timed { graph a * b * c; after(b, 30s); deadline(c, 1h); }",
        )
        .unwrap();

        session(&dir, &["deploy", &spec.display().to_string()]).unwrap();
        session(&dir, &["start", "timed"]).unwrap();
        // Each verb reopens the store: the armed timers must come back
        // from the WAL every time.
        let out = session(&dir, &["timers", "0"]).unwrap();
        assert!(out.contains("2 pending (clock 0ms)"), "{out}");
        assert!(out.contains("b@after30000 due 30000ms"), "{out}");
        assert!(out.contains("c@deadline3600000 due 3600000ms"), "{out}");
        let out = session(&dir, &["advance", "30000"]).unwrap();
        assert!(out.contains("clock 30000ms, 1 timer(s) fired"), "{out}");
        assert!(out.contains("instance 0: b@after30000"), "{out}");
        let out = session(&dir, &["status", "0"]).unwrap();
        assert!(
            out.contains("timers: c@deadline3600000 due 3600000ms"),
            "{out}"
        );
        let out = session(&dir, &["cancel-timer", "0", "c@deadline3600000"]).unwrap();
        assert!(
            out.contains("cancelled timer on `c@deadline3600000`"),
            "{out}"
        );
        let out = session(&dir, &["timers", "0"]).unwrap();
        assert!(out.contains("0 pending (clock 30000ms)"), "{out}");
        // Cancelling a timer that is not pending is a typed error.
        let err = session(&dir, &["cancel-timer", "0", "c@deadline3600000"]).unwrap_err();
        assert_eq!(err.code, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_store_durability_flag_round_trips_a_session() {
        let dir = std::env::temp_dir().join(format!("ctr_cli_coalesced_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = std::env::temp_dir().join("ctr_cli_coalesced_spec.ctr");
        std::fs::write(&spec, SPEC).unwrap();
        let spec = spec.display().to_string();

        // Mixed policies over the same store are fine — durability is a
        // per-open choice, the on-disk format is identical.
        assert!(
            session(&dir, &["--durability", "coalesced", "deploy", &spec])
                .unwrap()
                .contains("deployed `demo`")
        );
        for id in ["0", "1"] {
            let periodic = |verb: &[&str]| {
                let mut args = vec!["--durability", "periodic"];
                args.extend(verb);
                session(&dir, &args).unwrap()
            };
            assert!(periodic(&["start", "demo"]).contains(&format!("started instance {id}")));
            assert!(periodic(&["fire", id, "a", "b", "c", "d"]).contains("[completed]"));
        }
        let out = session(&dir, &["--durability", "strict", "recover"]).unwrap();
        assert!(out.contains("2 instances"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_store_rejects_a_bad_durability_value() {
        let dir = std::env::temp_dir().join(format!("ctr_cli_baddur_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let err = session(&dir, &["--durability", "eventual", "status"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--durability"), "{}", err.message);
        // Flag without a verb is a usage error too.
        let err = session(&dir, &["--durability", "strict"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(!dir.exists(), "usage errors must not create the store");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_store_recovery_failure_is_exit_code_1() {
        let dir = std::env::temp_dir().join(format!("ctr_cli_corrupt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("checkpoint.snap"), "not a checkpoint\nbody").unwrap();
        let err = session(&dir, &["status"]).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("checkpoint"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_store_usage_errors_are_exit_code_2() {
        let dir = std::env::temp_dir().join(format!("ctr_cli_usage_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let err = session(&dir, &["warble"]).unwrap_err();
        assert_eq!(err.code, 2);
        let err = session(&dir, &["fire", "zero", "a"]).unwrap_err();
        assert_eq!(err.code, 2);
        let err = run(&["run".into(), "--shop".into(), "x".into(), "status".into()]).unwrap_err();
        assert_eq!(err.code, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_end_to_end_via_tempfile() {
        let path = std::env::temp_dir().join("ctr_cli_test_spec.ctr");
        std::fs::write(&path, SPEC).unwrap();
        let out = run(&["check".into(), path.display().to_string()]).unwrap();
        assert!(out.contains("CONSISTENT"));
        let out = run(&[
            "enumerate".into(),
            path.display().to_string(),
            "-n".into(),
            "3".into(),
        ])
        .unwrap();
        assert!(out.contains("execution"));
        std::fs::remove_file(&path).ok();
    }
}
