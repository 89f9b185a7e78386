//! Consistency checking, property verification, and redundancy elimination
//! (paper, §4 and Theorems 5.8–5.10).
//!
//! The theorems answer all three by one constructive primitive: compile
//! `G ∧ C` with `Apply`, then `Excise` the knots.
//!
//! * **Consistency** (Thm 5.8): `G ∧ C` is inconsistent iff
//!   `Excise(Apply(C, G)) = ¬path`.
//! * **Verification** (Thm 5.9): every execution satisfies `Φ` iff
//!   `Excise(Apply(¬Φ ∧ C, G)) = ¬path`; otherwise the rewritten goal *is*
//!   the most general counterexample.
//! * **Redundancy** (Thm 5.10): `Φ ∈ C` is redundant iff every execution
//!   of `G ∧ (C − {Φ})` satisfies `Φ`.
//!
//! The one-shot [`is_consistent`], [`verify`] and [`is_redundant`] are
//! those compiles as written, whatever the input: they are the referees
//! the [`Analyzer`] is held to.
//!
//! An [`Analyzer`] session compiles only where it must. Where `G` is
//! events, each occurring once, under `⊗`, `|`, `∨` and `ε` — the *graph
//! fragment*, whatever the constraints — the session decides consistency,
//! a holding property, redundancy and the conflict with no compile
//! (`redundancy.rs`): on `G`'s series-parallel order while every
//! constraint is a run of `∇`, `¬∇` and orders and every basic leaves `G`
//! alone (Proposition 4.1 puts the questions in P there), and otherwise
//! by a search for one disjunct per constraint (where Proposition 4.1's
//! hardness lives).
//! A violated property still compiles there, because its answer is the
//! counterexample. Outside the fragment every query compiles through the
//! session's table.
//!
//! The compiled artifact is also the pro-active scheduling structure of
//! §4: a "compressed" explicit representation of all allowed executions,
//! from which `ctr-engine` enumerates paths in time linear in the original
//! graph.
//!
//! Each query is written once, as a method of the [`Analyzer`] session,
//! generic over the table the rules run under (see [`mod@crate::apply`]).
//! A session over a [`Memo`] keeps its answers across queries and edits;
//! the other one-shot functions here open a session over the table that
//! records nothing (over a [`Memo`] for [`conflict`], whose probes share
//! work), ask once, and drop it.

use crate::apply::{apply_all_in, apply_must_in, apply_must_not_in, ChannelAlloc, Scratch, Table};
use crate::constraints::Constraint;
use crate::excise::{excise_in, KnotReport};
use crate::goal::Goal;
use crate::memo::{Memo, MemoStats};
use crate::redundancy::Runs;
use crate::symbol::Symbol;
use crate::unique::{ensure_unique_events, DuplicateEvent};
use std::borrow::Borrow;
use std::fmt;

/// Errors from workflow compilation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The input goal violates the unique-event property (Definition 3.1),
    /// outside the class the compilation is correct for.
    NotUniqueEvent(DuplicateEvent),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotUniqueEvent(d) => {
                write!(f, "workflow violates the unique-event property: {d}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The result of compiling a workflow specification `G ∧ C`.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The knot-free concurrent-Horn goal equivalent to `G ∧ C`, or
    /// `¬path` when the specification is inconsistent. All allowed
    /// executions — and only those — are executions of this goal.
    pub goal: Goal,
    /// `G_fail` diagnostics for every excised knot.
    pub knots: Vec<KnotReport>,
    /// Size of the intermediate `Apply(C, G)` before Excise — the quantity
    /// bounded by `O(d^N · |G|)` in Theorem 5.11.
    pub applied_size: usize,
    /// False only for non-`Apply`-produced channel shapes (multiple
    /// co-occurring sends on one channel); see `ctr::excise`.
    pub guaranteed_knot_free: bool,
    /// True when the input goal contains transition conditions (negated
    /// or first-order query atoms). Per §7 of the paper, the compilation
    /// is **sound but not complete** for such graphs: an inconsistency
    /// verdict (`¬path`) is always right, but a "consistent" compiled
    /// goal may still have all its executions blocked by condition
    /// outcomes at run time. Resolve by executing with `ctr-engine`
    /// against concrete states.
    pub has_conditions: bool,
}

impl Compiled {
    /// True if the specification admits at least one execution —
    /// unconditionally exact for condition-free goals; for goals with
    /// transition conditions (see [`Compiled::has_conditions`]) a `true`
    /// here means "consistent for some condition outcomes".
    pub fn is_consistent(&self) -> bool {
        !self.goal.is_nopath()
    }
}

/// True if the goal mentions a transition condition — an atom that is
/// negated or carries arguments, i.e. anything the engine resolves
/// against the database rather than logging as an event.
pub(crate) fn mentions_conditions(goal: &Goal) -> bool {
    match goal {
        Goal::Atom(a) => !a.is_prop(),
        Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => gs.iter().any(mentions_conditions),
        Goal::Isolated(g) | Goal::Possible(g) => mentions_conditions(g),
        Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => false,
    }
}

/// Compiles a workflow `G ∧ C`: checks the unique-event property, runs
/// `Apply` for every constraint, then `Excise`.
pub fn compile(goal: &Goal, constraints: &[Constraint]) -> Result<Compiled, CompileError> {
    ensure_unique_events(goal).map_err(CompileError::NotUniqueEvent)?;
    let channels = if constraints.is_empty() {
        // Nothing will be allocated: skip the channel scan.
        ChannelAlloc::new()
    } else {
        ChannelAlloc::fresh_for(goal)
    };
    let has_conditions = mentions_conditions(goal);
    Ok(compile_in(
        &mut Scratch,
        goal,
        constraints,
        channels,
        has_conditions,
    ))
}

/// `Excise(Apply(C, G))` through `table`, with the channel scan and the
/// condition test of `goal` supplied by the caller — a session computes
/// both once, so a warm query never re-walks the input goal.
pub(crate) fn compile_in<T: Table>(
    table: &mut T,
    goal: &Goal,
    constraints: &[Constraint],
    mut channels: ChannelAlloc,
    has_conditions: bool,
) -> Compiled {
    let applied = apply_all_in(table, constraints, goal, &mut channels);
    let applied_size = applied.size();
    let excised = excise_in(table, &applied);
    Compiled {
        goal: excised.goal,
        knots: excised.reports,
        applied_size,
        guaranteed_knot_free: excised.guaranteed_knot_free,
        has_conditions,
    }
}

/// Consistency (Theorem 5.8): does some execution of `G` satisfy all of
/// `C`?
///
/// The theorem as written, `Excise(Apply(C, G))`, on every input: the
/// referee of [`Analyzer::is_consistent`], which decides the graph
/// fragment without a compile (`tests/consistency_referee.rs`).
pub fn is_consistent(goal: &Goal, constraints: &[Constraint]) -> Result<bool, CompileError> {
    Ok(compile(goal, constraints)?.is_consistent())
}

/// Outcome of property verification (Theorem 5.9).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verification {
    /// Every legal execution of `G ∧ C` satisfies the property.
    Holds,
    /// Some legal execution violates it; the goal is the *most general
    /// counterexample* — a concurrent-Horn goal describing exactly the
    /// violating executions, without the alternatives another of its
    /// alternatives contains (see [`crate::apply::apply_normal_form`]).
    CounterExample(Goal),
}

impl Verification {
    /// True for [`Verification::Holds`].
    pub fn holds(&self) -> bool {
        matches!(self, Verification::Holds)
    }
}

/// Designer feedback: how each activity relates to the set of allowed
/// executions of a compiled specification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActivityStatus {
    /// Occurs in every allowed execution.
    Mandatory,
    /// Occurs in some allowed executions but not all.
    Optional,
    /// Occurs in no allowed execution — the constraints (or the graph)
    /// rule it out entirely; usually a specification bug.
    Dead,
}

/// How two activities are ordered across the allowed executions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ordering {
    /// Whenever both occur, `a` precedes `b`.
    AlwaysBefore,
    /// Whenever both occur, `b` precedes `a`.
    AlwaysAfter,
    /// Both orders occur across executions.
    Unordered,
    /// The two never occur together (exclusive branches or dead events).
    NeverTogether,
}

/// An analysis session over one workflow goal and its constraint set.
///
/// Opening a session checks the unique-event property once. In the graph
/// fragment (see the module doc) consistency, holding properties,
/// redundancy and conflicts are then decided without a compile; every
/// other query compiles through the session's table. Over a
/// [`Memo`] (the public instance) the table persists, so repeated and
/// incrementally edited queries replay shared work as hits. The one-shot
/// functions of this module answer as a session over the table that
/// records nothing would, or, for the referees, by the theorem's compile:
/// their verdicts and compiled goals are structurally equal.
pub struct Analyzer<T = Memo> {
    goal: Goal,
    constraints: Vec<Constraint>,
    table: T,
    /// `ChannelAlloc::fresh_for(goal)`, computed once (it walks the goal).
    base_channels: ChannelAlloc,
    /// `mentions_conditions(goal)`, computed once.
    has_conditions: bool,
    /// Compiled `G ∧ C`, invalidated by constraint edits.
    compiled: Option<Compiled>,
    /// The constraints over the goal's layout, kept in step with every
    /// edit; `None` when the goal is outside the graph fragment.
    runs: Option<Runs>,
}

impl Analyzer {
    /// Opens a session. Fails (once) if `goal` violates the unique-event
    /// property — the same precondition [`compile`] checks per call.
    pub fn new(goal: &Goal, constraints: &[Constraint]) -> Result<Analyzer, CompileError> {
        Analyzer::over(Memo::default(), goal, constraints)
    }

    /// Memo-table counters for this session.
    pub fn stats(&self) -> MemoStats {
        self.table.stats()
    }

    /// Resets the hit/miss counters (tables are kept warm).
    pub fn reset_counters(&mut self) {
        self.table.reset_counters();
    }
}

// The private bound is the point: which table a session runs over is fixed
// by the entry point the caller uses, not chosen by the caller.
#[allow(private_bounds)]
impl<T: Table> Analyzer<T> {
    fn over(table: T, goal: &Goal, constraints: &[Constraint]) -> Result<Self, CompileError> {
        ensure_unique_events(goal).map_err(CompileError::NotUniqueEvent)?;
        let runs = Runs::new(goal, constraints.len());
        Ok(Analyzer {
            base_channels: ChannelAlloc::fresh_for(goal),
            has_conditions: mentions_conditions(goal),
            goal: goal.clone(),
            constraints: constraints.to_vec(),
            table,
            compiled: None,
            runs,
        })
    }

    /// The workflow goal under analysis.
    pub fn goal(&self) -> &Goal {
        &self.goal
    }

    /// The current constraint set.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Compiles the goal with the constraint list as it stands.
    fn compile(&mut self) -> Compiled {
        compile_in(
            &mut self.table,
            &self.goal,
            &self.constraints,
            self.base_channels.clone(),
            self.has_conditions,
        )
    }

    /// Compiles the constraint set plus one per-query `extra` constraint.
    fn query(&mut self, extra: Constraint) -> Compiled {
        self.constraints.push(extra);
        let compiled = self.compile();
        self.constraints.pop();
        compiled
    }

    /// Is `G ∧ C ∧ extra` consistent? Decided without a compile in the
    /// graph fragment, one test per disjunct of `extra`; `None` outside it.
    fn decide(&mut self, extra: &Constraint) -> Option<bool> {
        let runs = fragment(&mut self.runs, &mut self.table, &self.constraints)?;
        let nf = self.table.normalize(extra);
        Some(runs.satisfiable(&nf.borrow().disjuncts))
    }

    /// The compiled `G ∧ C` — computed on first use, cached until a
    /// constraint edit, structurally equal to [`compile`]'s.
    pub fn compiled(&mut self) -> &Compiled {
        if self.compiled.is_none() {
            self.compiled = Some(self.compile());
        }
        self.compiled.as_ref().expect("just computed")
    }

    /// Consistency (Theorem 5.8) of the current specification: one test in
    /// the graph fragment, the compiled goal's verdict otherwise.
    pub fn is_consistent(&mut self) -> bool {
        if self.compiled.is_none() {
            if let Some(runs) = fragment(&mut self.runs, &mut self.table, &self.constraints) {
                return runs.satisfiable(&[Vec::new()]);
            }
        }
        self.compiled().is_consistent()
    }

    /// Verification (Theorem 5.9): does every legal execution of `G ∧ C`
    /// satisfy `property`?
    ///
    /// Constructive: compiles `G ∧ C ∧ ¬property`; if the result is
    /// `¬path` the property holds, otherwise the compiled goal is returned
    /// as the most general counterexample. In the graph fragment a
    /// property that holds is told without a compile, one test per
    /// disjunct of `¬property`, and only a violated one compiles.
    pub fn verify(&mut self, property: &Constraint) -> Verification {
        let negation = Constraint::not(property.clone());
        if self.decide(&negation) == Some(false) {
            return Verification::Holds;
        }
        let compiled = self.query(negation);
        if compiled.is_consistent() {
            Verification::CounterExample(compiled.goal)
        } else {
            Verification::Holds
        }
    }

    /// Verifies every property through the session table. Over a [`Memo`]
    /// the runs and wider constraints of `C` replay as hits from the
    /// second property on — up to the last run, when `¬property` has a
    /// single disjunct and joins it (one more pair of walks, not a hit).
    /// In the graph fragment only the violated properties compile.
    pub fn verify_all(&mut self, properties: &[Constraint]) -> Vec<Verification> {
        properties.iter().map(|p| self.verify(p)).collect()
    }

    /// Classifies every activity of the goal against the allowed
    /// executions of `G ∧ C` (the "eliminates the parts of the control
    /// graph" effect of §5, surfaced as a report).
    ///
    /// Costs two primitive `Apply` passes per activity over the compiled
    /// goal: `e` is *dead* iff `Apply(∇e, G_C) = ¬path` and *mandatory* iff
    /// `Apply(¬∇e, G_C)` excises to `¬path`.
    pub fn activity_report(&mut self) -> Vec<(Symbol, ActivityStatus)> {
        let compiled = self.compiled().goal.clone();
        let table = &mut self.table;
        let classify = |event| {
            if compiled.is_nopath() || apply_must_in(table, event, &compiled).is_nopath() {
                return (event, ActivityStatus::Dead);
            }
            let without = apply_must_not_in(table, event, &compiled);
            if excise_in(table, &without).goal.is_nopath() {
                (event, ActivityStatus::Mandatory)
            } else {
                (event, ActivityStatus::Optional)
            }
        };
        self.goal.events().into_iter().map(classify).collect()
    }

    /// Decides the execution-order relation between two activities under
    /// the specification — two Klein-order verifications (Theorem 5.9).
    pub fn ordering(&mut self, a: Symbol, b: Symbol) -> Ordering {
        let together = Constraint::and(vec![Constraint::Must(a), Constraint::Must(b)]);
        let together = match self.decide(&together) {
            Some(consistent) => consistent,
            None => self.query(together).is_consistent(),
        };
        if !together {
            return Ordering::NeverTogether;
        }
        let before = self.verify(&Constraint::klein_order(a, b)).holds();
        let after = self.verify(&Constraint::klein_order(b, a)).holds();
        match (before, after) {
            (true, _) => Ordering::AlwaysBefore,
            (false, true) => Ordering::AlwaysAfter,
            (false, false) => Ordering::Unordered,
        }
    }

    /// Greedy redundancy elimination (Theorem 5.10): the indices of a
    /// retained subset with every redundant constraint removed. Each
    /// constraint in turn is checked against the retained ones before it
    /// and all the ones after it, so the result is a minimal equivalent
    /// subset with respect to this elimination order. The session's
    /// constraint set itself is left unchanged.
    ///
    /// In the graph fragment each probe is decided without a compile: on
    /// the goal's series-parallel order while every constraint is a run
    /// and every basic leaves `G` alone (Prop 4.1: linear in `|G| + |C|`),
    /// otherwise by one search per disjunct of `¬φ` — and the table is
    /// asked for nothing but the normal forms of constraints edited since
    /// the last query. Any other input
    /// compiles `G ∧ (C − φ) ∧ ¬φ` per probe through the table. Either way
    /// the answer is what a greedy replay of [`is_redundant`] gives.
    pub fn minimize_constraints(&mut self) -> Vec<usize> {
        if let Some(runs) = fragment(&mut self.runs, &mut self.table, &self.constraints) {
            let constraints = &self.constraints;
            return runs.minimize(|i| Constraint::not(constraints[i].clone()).normalize());
        }
        self.eliminate(true)
    }

    /// A minimal conflicting subset of an inconsistent specification, as
    /// constraint indices in list order: `G` with them has no execution,
    /// and `G` with any one of them dropped has one. `None` when the
    /// specification is consistent.
    ///
    /// Found by deletion: each constraint in turn is dropped when the rest
    /// of the subset still in play stays inconsistent without it. That is
    /// one test per constraint in the graph fragment, and one compile
    /// through the table per constraint outside it; a consistent
    /// specification pays for the consistency test only.
    pub fn conflict(&mut self) -> Option<Vec<usize>> {
        if self.is_consistent() {
            return None;
        }
        if let Some(runs) = fragment(&mut self.runs, &mut self.table, &self.constraints) {
            return Some(runs.conflict());
        }
        Some(self.eliminate(false))
    }

    /// The compile path of [`Analyzer::minimize_constraints`] and
    /// [`Analyzer::conflict`]: each constraint `φ` in turn is taken out of
    /// the list of those still kept, and the rest is compiled through the
    /// table, with `¬φ` added when `negate` — the redundancy probe
    /// `verify(goal, rest, φ)` compiles — and as it is otherwise. `φ` is
    /// kept when that compile is consistent. Returns the kept indices.
    ///
    /// The list is edited in place by moves and restored at the end, with
    /// no per-iteration O(n) re-clone of the kept set.
    fn eliminate(&mut self, negate: bool) -> Vec<usize> {
        let mut retained: Vec<usize> = (0..self.constraints.len()).collect();
        let original = self.constraints.clone();
        let mut i = 0;
        while i < retained.len() {
            let phi = self.constraints.remove(i);
            let (consistent, phi) = if negate {
                self.constraints.push(Constraint::not(phi));
                let consistent = self.compile().is_consistent();
                let Some(Constraint::Not(phi)) = self.constraints.pop() else {
                    unreachable!("pushed ¬φ above");
                };
                (consistent, *phi)
            } else {
                (self.compile().is_consistent(), phi)
            };
            if consistent {
                self.constraints.insert(i, phi);
                i += 1;
            } else {
                retained.remove(i);
            }
        }
        self.constraints = original;
        retained
    }

    /// Appends a constraint, returning its index. Invalidates the cached
    /// compile; the table persists, so re-verification replays every run
    /// and wider constraint before the edit as one hit each and compiles
    /// from there — the run the new constraint joins, if its normal form
    /// has one disjunct, in two walks of the goal whatever its length.
    pub fn add_constraint(&mut self, constraint: Constraint) -> usize {
        let index = self.constraints.len();
        if let Some(runs) = &mut self.runs {
            runs.insert(index);
        }
        self.constraints.push(constraint);
        self.compiled = None;
        index
    }

    /// Removes and returns the constraint at `index` (panics if out of
    /// range). Invalidates the cached compile; the table persists.
    pub fn remove_constraint(&mut self, index: usize) -> Constraint {
        let removed = self.constraints.remove(index);
        if let Some(runs) = &mut self.runs {
            runs.remove(index);
        }
        self.compiled = None;
        removed
    }

    /// Replaces the constraint at `index`, returning the old one (panics
    /// if out of range). Invalidates the cached compile; the table
    /// persists, so re-verification costs roughly the changed region: the
    /// runs and wider constraints before the one holding `index` replay
    /// as hits.
    pub fn replace_constraint(&mut self, index: usize, constraint: Constraint) -> Constraint {
        let old = std::mem::replace(&mut self.constraints[index], constraint);
        if let Some(runs) = &mut self.runs {
            runs.replace(index);
        }
        self.compiled = None;
        old
    }
}

/// A session's constraints, when its goal is in the graph fragment, with
/// those edited since the last query placed.
fn fragment<'a, T: Table>(
    runs: &'a mut Option<Runs>,
    table: &mut T,
    constraints: &[Constraint],
) -> Option<&'a mut Runs> {
    let runs = runs.as_mut()?;
    runs.refresh(|i| table.normalize(&constraints[i]));
    Some(runs)
}

/// [`Analyzer::verify`] as a one-shot call, and its referee: the
/// theorem's probe as written, `Excise(Apply(C ∧ ¬property, G))`, on
/// every input. It opens no session, so it never takes the graph path the
/// session takes in the graph fragment: a wrong `Holds` there cannot agree
/// with itself here (`tests/consistency_referee.rs`).
pub fn verify(
    goal: &Goal,
    constraints: &[Constraint],
    property: &Constraint,
) -> Result<Verification, CompileError> {
    let mut with_negation = constraints.to_vec();
    with_negation.push(Constraint::not(property.clone()));
    let compiled = compile(goal, &with_negation)?;
    Ok(if compiled.is_consistent() {
        Verification::CounterExample(compiled.goal)
    } else {
        Verification::Holds
    })
}

/// Redundancy (Theorem 5.10): is `constraints[index]` implied by the rest
/// of the specification — does every execution of `G ∧ (C − {φ})` satisfy
/// `φ`?
///
/// This is the theorem's probe as it is written, one [`verify`] of `φ`
/// against the rest — a compile — whatever the input. It is the referee
/// that [`Analyzer::minimize_constraints`], which decides the graph
/// fragment without a compile, is held to (`tests/redundancy_referee.rs`).
pub fn is_redundant(
    goal: &Goal,
    constraints: &[Constraint],
    index: usize,
) -> Result<bool, CompileError> {
    assert!(index < constraints.len(), "constraint index out of range");
    let mut rest = constraints.to_vec();
    let phi = rest.remove(index);
    Ok(verify(goal, &rest, &phi)?.holds())
}

/// [`Analyzer::conflict`] as a one-shot call: a minimal conflicting subset
/// of an inconsistent specification, `None` when it is consistent. Outside
/// the graph fragment each deletion probe compiles, so the session runs over
/// a [`Memo`] and replays what the probes share.
pub fn conflict(
    goal: &Goal,
    constraints: &[Constraint],
) -> Result<Option<Vec<usize>>, CompileError> {
    Ok(Analyzer::new(goal, constraints)?.conflict())
}

/// [`Analyzer::activity_report`] as a one-shot call.
pub fn activity_report(
    goal: &Goal,
    constraints: &[Constraint],
) -> Result<Vec<(Symbol, ActivityStatus)>, CompileError> {
    Ok(Analyzer::over(Scratch, goal, constraints)?.activity_report())
}

/// [`Analyzer::ordering`] as a one-shot call.
pub fn ordering(
    goal: &Goal,
    constraints: &[Constraint],
    a: Symbol,
    b: Symbol,
) -> Result<Ordering, CompileError> {
    Ok(Analyzer::over(Scratch, goal, constraints)?.ordering(a, b))
}

/// [`Analyzer::minimize_constraints`] as a one-shot call.
pub fn minimize_constraints(
    goal: &Goal,
    constraints: &[Constraint],
) -> Result<Vec<usize>, CompileError> {
    Ok(Analyzer::over(Scratch, goal, constraints)?.minimize_constraints())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::{conc, or, seq};
    use crate::semantics::{event_traces, satisfies};

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    #[test]
    fn consistent_specification() {
        let goal = conc(vec![g("a"), g("b")]);
        assert!(is_consistent(&goal, &[Constraint::order("a", "b")]).unwrap());
    }

    #[test]
    fn inconsistent_specification() {
        let goal = seq(vec![g("b"), g("a")]);
        assert!(!is_consistent(&goal, &[Constraint::order("a", "b")]).unwrap());
    }

    #[test]
    fn contradictory_constraints_are_inconsistent() {
        let goal = conc(vec![g("a"), g("b")]);
        assert!(!is_consistent(
            &goal,
            &[Constraint::order("a", "b"), Constraint::order("b", "a")]
        )
        .unwrap());
    }

    #[test]
    fn verification_holds_when_structure_forces_property() {
        // a ⊗ b always runs a before b.
        let goal = seq(vec![g("a"), g("b")]);
        let v = verify(&goal, &[], &Constraint::order("a", "b")).unwrap();
        assert!(v.holds());
    }

    #[test]
    fn verification_produces_most_general_counterexample() {
        let goal = conc(vec![g("a"), g("b")]);
        let v = verify(&goal, &[], &Constraint::order("a", "b")).unwrap();
        let Verification::CounterExample(ce) = v else {
            panic!("a | b does not force a before b");
        };
        // Every trace of the counterexample violates the property.
        for t in event_traces(&ce, 10_000).unwrap() {
            assert!(!satisfies(&t, &Constraint::order("a", "b")), "trace {t:?}");
        }
    }

    #[test]
    fn constraints_strengthen_verification() {
        let goal = conc(vec![g("a"), g("b")]);
        // Without constraints the property fails; with a<b compiled in,
        // every remaining execution satisfies it.
        let property = Constraint::klein_order("a", "b");
        assert!(!verify(&goal, &[], &property).unwrap().holds());
        assert!(verify(&goal, &[Constraint::order("a", "b")], &property)
            .unwrap()
            .holds());
    }

    #[test]
    fn redundancy_detection() {
        let goal = seq(vec![g("a"), or(vec![g("b"), g("c")]), g("d")]);
        let constraints = [Constraint::order("a", "d"), Constraint::must("b")];
        // a<d is forced by the graph itself: redundant.
        assert!(is_redundant(&goal, &constraints, 0).unwrap());
        // must(b) prunes the c-branch: not redundant.
        assert!(!is_redundant(&goal, &constraints, 1).unwrap());
    }

    #[test]
    fn minimize_keeps_only_needed_constraints() {
        let goal = conc(vec![g("a"), g("b"), g("c")]);
        let constraints = [
            Constraint::order("a", "b"),
            Constraint::order("b", "c"),
            // Implied by transitivity of the two above.
            Constraint::order("a", "c"),
        ];
        let kept = minimize_constraints(&goal, &constraints).unwrap();
        assert_eq!(kept, vec![0, 1]);
    }

    #[test]
    fn a_kept_two_cycle_of_orders_makes_every_later_constraint_redundant() {
        // Runs over a goal whose events occur once: decided on the graph.
        // Each of `a < b` and `b < a` is consistent with the rest, so both
        // are kept; once both are, the 2-cycle is a knot, `G ∧ R` has no
        // execution, and it implies everything after them.
        let goal = conc(vec![g("a"), g("b"), seq(vec![g("c"), g("d")]), g("e")]);
        let constraints = [
            Constraint::order("a", "b"),
            Constraint::order("b", "a"),
            Constraint::order("d", "e"),
            Constraint::must("c"),
            Constraint::order("c", "d"),
        ];
        assert_eq!(
            minimize_constraints(&goal, &constraints).unwrap(),
            vec![0, 1]
        );
    }

    #[test]
    fn a_reflexive_order_is_neither_implied_nor_redundant() {
        // ∇a ⊗ ∇a needs a second `a`: no execution satisfies it, so no
        // property of that shape holds and no such constraint is implied.
        let goal = seq(vec![g("a"), conc(vec![g("b"), g("c")])]);
        let reflexive = [Constraint::order("a", "a")];
        assert!(!is_consistent(&goal, &reflexive).unwrap());
        assert!(!is_redundant(&goal, &reflexive, 0).unwrap());
        assert_eq!(minimize_constraints(&goal, &reflexive).unwrap(), vec![0]);
        let v = verify(&goal, &[], &Constraint::order("b", "b")).unwrap();
        assert_eq!(v, Verification::CounterExample(goal));
    }

    #[test]
    fn compile_rejects_non_unique_event_goals() {
        let goal = seq(vec![g("a"), g("a")]);
        let err = compile(&goal, &[]).unwrap_err();
        assert!(matches!(err, CompileError::NotUniqueEvent(_)));
    }

    #[test]
    fn compiled_reports_applied_size() {
        let goal = conc(vec![g("a"), g("b")]);
        let compiled = compile(&goal, &[Constraint::klein_order("a", "b")]).unwrap();
        assert!(compiled.applied_size >= goal.size());
        assert!(compiled.is_consistent());
        assert!(compiled.guaranteed_knot_free);
    }

    #[test]
    fn activity_report_classifies_events() {
        // must(b) kills the c-branch; a and d are structural.
        let goal = seq(vec![g("a"), or(vec![g("b"), g("c")]), g("d")]);
        let constraints = [Constraint::must("b")];
        let report: std::collections::BTreeMap<_, _> = activity_report(&goal, &constraints)
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(report[&crate::sym("a")], ActivityStatus::Mandatory);
        assert_eq!(report[&crate::sym("b")], ActivityStatus::Mandatory);
        assert_eq!(report[&crate::sym("c")], ActivityStatus::Dead);
        assert_eq!(report[&crate::sym("d")], ActivityStatus::Mandatory);
    }

    #[test]
    fn activity_report_marks_optional_branches() {
        let goal = or(vec![g("x"), g("y")]);
        let report: std::collections::BTreeMap<_, _> =
            activity_report(&goal, &[]).unwrap().into_iter().collect();
        assert_eq!(report[&crate::sym("x")], ActivityStatus::Optional);
        assert_eq!(report[&crate::sym("y")], ActivityStatus::Optional);
    }

    #[test]
    fn activity_report_on_inconsistent_spec_is_all_dead() {
        let goal = seq(vec![g("a"), g("b")]);
        let constraints = [Constraint::order("b", "a")];
        for (_, status) in activity_report(&goal, &constraints).unwrap() {
            assert_eq!(status, ActivityStatus::Dead);
        }
    }

    #[test]
    fn ordering_relations() {
        let goal = seq(vec![
            g("a"),
            conc(vec![g("b"), g("c")]),
            or(vec![g("d"), g("e")]),
        ]);
        let none: [Constraint; 0] = [];
        assert_eq!(
            ordering(&goal, &none, crate::sym("a"), crate::sym("b")).unwrap(),
            Ordering::AlwaysBefore
        );
        assert_eq!(
            ordering(&goal, &none, crate::sym("d"), crate::sym("a")).unwrap(),
            Ordering::AlwaysAfter
        );
        assert_eq!(
            ordering(&goal, &none, crate::sym("b"), crate::sym("c")).unwrap(),
            Ordering::Unordered
        );
        assert_eq!(
            ordering(&goal, &none, crate::sym("d"), crate::sym("e")).unwrap(),
            Ordering::NeverTogether
        );
        // A constraint flips an unordered pair.
        let ordered = [Constraint::order("c", "b")];
        assert_eq!(
            ordering(&goal, &ordered, crate::sym("b"), crate::sym("c")).unwrap(),
            Ordering::AlwaysAfter
        );
    }

    #[test]
    fn conditions_flag_reflects_query_atoms() {
        use crate::term::Atom;
        let plain = conc(vec![g("a"), g("b")]);
        assert!(!compile(&plain, &[]).unwrap().has_conditions);

        let with_negated = seq(vec![Goal::Atom(Atom::prop("frozen").negate()), g("pay")]);
        assert!(compile(&with_negated, &[]).unwrap().has_conditions);

        let with_args = seq(vec![
            Goal::Atom(Atom::new("limit", vec![crate::term::Term::Int(10)])),
            g("pay"),
        ]);
        assert!(compile(&with_args, &[]).unwrap().has_conditions);
    }

    #[test]
    fn verification_with_empty_constraint_set() {
        let goal = or(vec![g("a"), g("b")]);
        assert!(verify(
            &goal,
            &[],
            &Constraint::or(vec![Constraint::must("a"), Constraint::must("b")])
        )
        .unwrap()
        .holds());
    }
}
