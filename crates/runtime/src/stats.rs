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

/// Samples `runs` randomized schedules of `program` (seeds
/// `seed, seed+1, …`) and aggregates.
pub fn simulate(program: &Program, runs: usize, seed: u64) -> Simulation {
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
    for i in 0..runs {
        let Some(trace) = Scheduler::new(program).run_random(seed.wrapping_add(i as u64)) else {
            continue;
        };
        let names: Vec<Symbol> = trace.iter().filter_map(ctr::term::Atom::as_event).collect();
        sim.completed += 1;
        sim.min_len = sim.min_len.min(names.len());
        sim.max_len = sim.max_len.max(names.len());
        sim.total_len += names.len();
        let mut once: Vec<Symbol> = names.clone();
        once.sort_unstable();
        once.dedup();
        for e in once {
            *sim.event_frequency.entry(e).or_insert(0) += 1;
        }
        seen.insert(names);
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
    fn zero_runs_is_well_defined() {
        let p = program(&Goal::atom("a"), &[]);
        let sim = simulate(&p, 0, 0);
        assert_eq!(sim.completed, 0);
        assert_eq!(sim.mean_len(), 0.0);
        assert_eq!(sim.min_len, 0);
    }
}
