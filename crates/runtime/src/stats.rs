//! Monte-Carlo simulation over the allowed schedules of a deployed
//! workflow, plus the runtime's observability counters.
//!
//! The compiled goal is a "compressed explicit representation of all
//! allowed executions" (paper, §4); sampling it with the randomized
//! scheduling policy gives process-analytics answers without enumerating
//! the whole (possibly exponential) execution space: how often does each
//! activity run, how long are the paths, which activities always/never
//! co-occur in practice.
//!
//! The **store counters** also surface here: [`Runtime::store_stats`]
//! exposes the attached backend's
//! [`StoreStats`] — appends, journal events per append (group sizes),
//! commit fsyncs (with rotation and checkpoint syncs attributed
//! separately), group-size and fsync-latency histograms, compactions,
//! and recovered/torn byte counts — which is how `benchmark/`'s
//! `store.wal.*` probes, its `serve_durable` workload and the CLI
//! `recover` verb report what the log actually did.

use crate::Runtime;
use ctr::symbol::Symbol;
use ctr_engine::scheduler::{Program, Scheduler};
use ctr_store::StoreStats;
use std::collections::{BTreeMap, BTreeSet};

impl Runtime {
    /// Traffic counters of the attached store ([`StoreStats`]), or
    /// `None` when the runtime is purely in-memory.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store().map(|s| s.stats())
    }
}

/// Aggregate statistics over sampled schedules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Simulation {
    /// Number of schedules sampled.
    pub runs: usize,
    /// Schedules that ran to completion (all of them, for excised
    /// programs).
    pub completed: usize,
    /// How many **completed** schedules each event occurred in.
    /// Deadlocked samples contribute to [`Simulation::runs`] only —
    /// their partial prefixes are not counted here.
    pub event_frequency: BTreeMap<Symbol, usize>,
    /// Shortest complete path length observed.
    pub min_len: usize,
    /// Longest complete path length observed.
    pub max_len: usize,
    /// Total events across all completed paths (for the mean).
    pub total_len: usize,
    /// Distinct complete traces observed.
    pub distinct_traces: usize,
}

impl Simulation {
    /// Mean complete-path length.
    pub fn mean_len(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_len as f64 / self.completed as f64
        }
    }

    /// Fraction of **completed** schedules containing `event`.
    ///
    /// The denominator is [`Simulation::completed`], not
    /// [`Simulation::runs`]: a deadlocked sample has no complete trace,
    /// so "how often does this activity run" is only meaningful over the
    /// schedules that actually finished (for excised programs the two
    /// coincide — excision guarantees completion). Multiply by
    /// [`Simulation::completion_rate`] for the per-*sample* rate.
    pub fn frequency(&self, event: Symbol) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            *self.event_frequency.get(&event).unwrap_or(&0) as f64 / self.completed as f64
        }
    }

    /// Fraction of sampled schedules that ran to completion; 1.0 for
    /// excised programs, lower when raw (un-excised) programs deadlock
    /// under some resolutions.
    pub fn completion_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.completed as f64 / self.runs as f64
        }
    }
}

/// Mergeable aggregate over a contiguous range of sampled runs. Each run
/// is an independent sample keyed only by its global index (seed
/// `seed + i`), so partials computed on different threads merge into
/// exactly the sequential result.
#[derive(Default)]
struct Partial {
    completed: usize,
    event_frequency: BTreeMap<Symbol, usize>,
    min_len: usize,
    max_len: usize,
    total_len: usize,
    /// Full trace set — distinct-trace counting needs global dedup, so
    /// partials keep the traces and the merge takes the union.
    traces: BTreeSet<Vec<Symbol>>,
}

/// Samples the run indices `lo..hi`.
fn sample_range(program: &Program, lo: usize, hi: usize, seed: u64) -> Partial {
    let mut part = Partial {
        min_len: usize::MAX,
        ..Partial::default()
    };
    for i in lo..hi {
        let Some(trace) = Scheduler::new(program).run_random(seed.wrapping_add(i as u64)) else {
            continue;
        };
        let names: Vec<Symbol> = trace.iter().filter_map(ctr::term::Atom::as_event).collect();
        part.completed += 1;
        part.min_len = part.min_len.min(names.len());
        part.max_len = part.max_len.max(names.len());
        part.total_len += names.len();
        let mut once: Vec<Symbol> = names.clone();
        once.sort_unstable();
        once.dedup();
        for e in once {
            *part.event_frequency.entry(e).or_insert(0) += 1;
        }
        part.traces.insert(names);
    }
    part
}

/// Joins a sampler worker, re-raising any panic **with its payload and
/// the worker's run range attached** — a bare `.unwrap()` on a `join`
/// error would panic on the opaque `Box<dyn Any>` (a "double panic" that
/// names neither the message nor the culprit runs), making fleet-sized
/// simulations undebuggable.
fn join_attributed<T>(handle: std::thread::ScopedJoinHandle<'_, T>, (lo, hi): (usize, usize)) -> T {
    match handle.join() {
        Ok(v) => v,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_owned());
            panic!("simulation worker for runs {lo}..{hi} panicked: {msg}");
        }
    }
}

/// Work (program nodes × runs) each sampler thread must get before
/// [`simulate`] spawns any. A node·run samples in 2–5 ns, so the floor is
/// 40–100 µs of sampling against the ≈ 12 µs it takes to spawn and join a
/// scoped thread; below it the threads cost more than they sample. Far
/// above it they pay where the runs are long (2 000 runs of a 27 948-node
/// program: ≈ 105 ms on one thread, ≈ 55 ms on two vCPUs) and merely
/// break even where they are short and allocation-bound (20 000 runs of a
/// 1 644-node program: ≈ 133 ms either way on the same host).
const WORKER_FLOOR: usize = 20_000;

/// How many threads [`simulate`] samples on: one per CPU this process may
/// run on, as long as each gets [`WORKER_FLOOR`] of work — else one, and
/// always one on a single CPU, where threads only add spawn and switch
/// cost. The floor is tested for two workers before the CPUs are counted:
/// that query walks the affinity mask and the cgroup quota files, which a
/// µs-sized simulation must not pay for.
fn sampler_workers(program: &Program, runs: usize) -> usize {
    let work = program.len().saturating_mul(runs);
    if work / 2 < WORKER_FLOOR {
        return 1;
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(runs);
    if workers > 1 && work / workers >= WORKER_FLOOR {
        workers
    } else {
        1
    }
}

/// Samples `runs` randomized schedules of `program` (seeds
/// `seed, seed+1, …`) and aggregates.
///
/// Runs are independent samples, so large simulations partition them
/// across threads and merge the partial aggregates; the `Simulation` is
/// **identical** however many there are (each run's seed depends only on
/// its global index, and all merge operations are commutative
/// sums/min/max/unions).
pub fn simulate(program: &Program, runs: usize, seed: u64) -> Simulation {
    simulate_on(sampler_workers(program, runs), program, runs, seed)
}

/// [`simulate`] on exactly `workers` threads (the caller's, for one).
fn simulate_on(workers: usize, program: &Program, runs: usize, seed: u64) -> Simulation {
    let partials: Vec<Partial> = if workers <= 1 {
        vec![sample_range(program, 0, runs, seed)]
    } else {
        // Contiguous index ranges, remainder spread over the first few
        // workers; coverage is exactly 0..runs.
        let base = runs / workers;
        let extra = runs % workers;
        std::thread::scope(|scope| {
            let mut lo = 0;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let hi = lo + base + usize::from(w < extra);
                    let range = (lo, hi);
                    lo = hi;
                    (
                        range,
                        scope.spawn(move || sample_range(program, range.0, range.1, seed)),
                    )
                })
                .collect();
            handles
                .into_iter()
                .map(|(range, h)| join_attributed(h, range))
                .collect()
        })
    };

    let mut sim = Simulation {
        runs,
        completed: 0,
        event_frequency: BTreeMap::new(),
        min_len: usize::MAX,
        max_len: 0,
        total_len: 0,
        distinct_traces: 0,
    };
    let mut seen = BTreeSet::new();
    for part in partials {
        sim.completed += part.completed;
        sim.min_len = sim.min_len.min(part.min_len);
        sim.max_len = sim.max_len.max(part.max_len);
        sim.total_len += part.total_len;
        for (e, n) in part.event_frequency {
            *sim.event_frequency.entry(e).or_insert(0) += n;
        }
        seen.extend(part.traces);
    }
    sim.distinct_traces = seen.len();
    if sim.completed == 0 {
        sim.min_len = 0;
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctr::constraints::Constraint;
    use ctr::goal::{conc, or, seq, Goal};
    use ctr::sym;

    fn program(goal: &Goal, constraints: &[Constraint]) -> Program {
        let compiled = ctr::analysis::compile(goal, constraints).unwrap();
        Program::compile(&compiled.goal).unwrap()
    }

    #[test]
    fn simulation_counts_and_lengths() {
        let goal = seq(vec![
            Goal::atom("a"),
            or(vec![Goal::atom("b"), Goal::atom("c")]),
        ]);
        let p = program(&goal, &[]);
        let sim = simulate(&p, 200, 7);
        assert_eq!(sim.runs, 200);
        assert_eq!(sim.completed, 200);
        assert_eq!((sim.min_len, sim.max_len), (2, 2));
        assert!((sim.mean_len() - 2.0).abs() < f64::EPSILON);
        assert_eq!(sim.frequency(sym("a")), 1.0, "a is mandatory");
        let b = sim.frequency(sym("b"));
        let c = sim.frequency(sym("c"));
        assert!(
            (b + c - 1.0).abs() < f64::EPSILON,
            "exactly one branch per run"
        );
        assert!(
            b > 0.2 && c > 0.2,
            "both branches get sampled (b={b}, c={c})"
        );
        assert_eq!(sim.distinct_traces, 2);
    }

    #[test]
    fn constraints_shift_frequencies() {
        let goal = conc(vec![
            or(vec![Goal::atom("x"), Goal::atom("y")]),
            Goal::atom("z"),
        ]);
        // must(x) kills the y branch entirely.
        let p = program(&goal, &[Constraint::must("x")]);
        let sim = simulate(&p, 100, 3);
        assert_eq!(sim.frequency(sym("x")), 1.0);
        assert_eq!(sim.frequency(sym("y")), 0.0);
    }

    #[test]
    fn distinct_traces_bounded_by_interleavings() {
        let p = program(&conc(vec![Goal::atom("p"), Goal::atom("q")]), &[]);
        let sim = simulate(&p, 300, 11);
        assert_eq!(sim.distinct_traces, 2);
    }

    #[test]
    fn worker_count_is_invisible_in_the_simulation() {
        // Runs are independent samples seeded by global index, so how many
        // threads sample them must not show in the aggregate — including
        // however many `simulate` picks here: the runs are sized from the
        // host so that every CPU's share is past the floor, and it fans out
        // to all of them wherever there is a second one.
        let goal = seq(vec![
            conc(vec![Goal::atom("p"), Goal::atom("q")]),
            or(vec![Goal::atom("b"), Goal::atom("c")]),
        ]);
        let p = program(&goal, &[]);
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let runs = WORKER_FLOOR * cpus.max(2) / p.len() + 1;
        assert_eq!(sampler_workers(&p, runs), cpus);
        assert_eq!(sampler_workers(&p, 300), 1, "below the work floor");
        let one = simulate_on(1, &p, runs, 42);
        assert_eq!(one, simulate_on(3, &p, runs, 42));
        assert_eq!(one, simulate(&p, runs, 42));
        assert_eq!(one.runs, runs);
        assert!(one.distinct_traces >= 2);
        // More workers than runs: the spare ones sample nothing.
        assert_eq!(simulate_on(1, &p, 2, 42), simulate_on(3, &p, 2, 42));
    }

    #[test]
    fn frequency_uses_completed_runs_as_denominator() {
        // A raw (un-excised) program whose second branch deadlocks: pick
        // `c`, then block forever on a receive no one sends. Compiled
        // directly — `ctr::analysis::compile` would excise the knot away.
        use ctr::goal::{Channel, Goal};
        let goal = or(vec![
            seq(vec![Goal::atom("a"), Goal::atom("b")]),
            seq(vec![Goal::atom("c"), Goal::Receive(Channel(0))]),
        ]);
        let p = Program::compile(&goal).unwrap();
        let sim = simulate(&p, 200, 13);
        assert_eq!(sim.runs, 200);
        assert!(
            sim.completed > 0 && sim.completed < sim.runs,
            "both outcomes sampled (completed={})",
            sim.completed
        );
        // `a` appears in every *completed* schedule: frequency is exactly
        // 1.0 — the documented completed-only denominator. Under a
        // runs-denominator it would equal the completion rate instead.
        assert_eq!(sim.frequency(sym("a")), 1.0);
        // `c` only occurs on the deadlocking branch, whose partial
        // prefixes are never counted.
        assert_eq!(sim.frequency(sym("c")), 0.0);
        let rate = sim.completion_rate();
        assert!(rate > 0.0 && rate < 1.0);
        assert_eq!(rate, sim.completed as f64 / sim.runs as f64);
    }

    #[test]
    fn worker_panics_are_attributed_with_range_context() {
        let caught = std::panic::catch_unwind(|| {
            std::thread::scope(|scope| {
                let handle = scope.spawn(|| -> () { panic!("sampler exploded") });
                join_attributed(handle, (64, 128))
            })
        })
        .unwrap_err();
        let msg = caught
            .downcast_ref::<String>()
            .expect("attributed panic carries a String payload");
        assert_eq!(
            msg,
            "simulation worker for runs 64..128 panicked: sampler exploded"
        );
    }

    #[test]
    fn zero_runs_is_well_defined() {
        let p = program(&Goal::atom("a"), &[]);
        let sim = simulate(&p, 0, 0);
        assert_eq!(sim.completed, 0);
        assert_eq!(sim.mean_len(), 0.0);
        assert_eq!(sim.min_len, 0);
    }
}
