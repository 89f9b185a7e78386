//! Complete workflow specifications: graph + sub-workflows + triggers +
//! global constraints, with the full compilation pipeline.
//!
//! A [`WorkflowSpec`] bundles the three specification frameworks of
//! Figure 1 into one object and compiles them through one pipeline:
//!
//! 1. sub-workflow definitions are expanded (concurrent-Horn rules, §2);
//! 2. triggers are compiled into the graph (§1, \[7\]);
//! 3. global constraints are compiled with `Apply` and knots are removed
//!    with `Excise` (§5).
//!
//! The §7 refinement needs no separate entry point: `Apply` applies each
//! constraint at the lowest subgoal that holds its events, so constraints
//! whose events stay inside one sub-workflow's expansion are compiled
//! there, and the exponent in Theorem 5.11 drops from the total
//! constraint count `N` to the largest count `M` whose scopes overlap.

use crate::timers::TimerSpec;
use crate::triggers::{Trigger, TriggerSemantics};
use ctr::analysis::{self, CompileError, Compiled, Verification};
use ctr::apply::ChannelAlloc;
use ctr::constraints::Constraint;
use ctr::goal::{conc, event_fp_bits, or, seq, Goal};
use ctr::symbol::Symbol;
use std::collections::BTreeMap;
use std::{fmt, iter};

/// Propositional sub-workflow definitions: `name ← body` concurrent-Horn
/// rules, restricted (per the paper's non-iterative assumption) to acyclic
/// references.
#[derive(Clone, Debug, Default)]
pub struct SubWorkflows {
    defs: BTreeMap<Symbol, Vec<Goal>>,
}

/// Error from sub-workflow definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecursiveDefinition(pub Symbol);

impl fmt::Display for RecursiveDefinition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sub-workflow `{}` is (mutually) recursive; non-iterative workflows require \
             acyclic definitions",
            self.0
        )
    }
}

impl std::error::Error for RecursiveDefinition {}

impl SubWorkflows {
    /// No definitions.
    pub fn new() -> SubWorkflows {
        SubWorkflows::default()
    }

    /// Defines (another alternative of) a sub-workflow.
    pub fn define(
        &mut self,
        name: impl Into<Symbol>,
        body: Goal,
    ) -> Result<&mut Self, RecursiveDefinition> {
        let name = name.into();
        self.defs.entry(name).or_default().push(body);
        if let Some(offender) = self.find_cycle() {
            let list = self.defs.get_mut(&name).expect("just inserted");
            list.pop();
            if list.is_empty() {
                self.defs.remove(&name);
            }
            return Err(RecursiveDefinition(offender));
        }
        Ok(self)
    }

    /// True if `name` is defined.
    pub fn defines(&self, name: Symbol) -> bool {
        self.defs.contains_key(&name)
    }

    /// Number of defined sub-workflows.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True if no sub-workflow is defined.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The definition bodies of `name`.
    pub fn bodies(&self, name: Symbol) -> &[Goal] {
        self.defs.get(&name).map_or(&[], Vec::as_slice)
    }

    /// Iterates the defined names.
    pub fn names(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.defs.keys().copied()
    }

    /// Replaces every defined name in `goal` with the disjunction of its
    /// bodies, recursively (definitions are acyclic, so this terminates),
    /// rebuilding through the smart constructors. A canonical subgoal that
    /// names nothing defined is returned as it is, so a specification with
    /// no `define` lowers its graph without a walk.
    pub fn expand(&self, goal: &Goal) -> Goal {
        let mask = self
            .names()
            .fold(0, |mask, name| mask | event_fp_bits(name));
        goal.substitute(mask, &mut |name| {
            let bodies = self.defs.get(&name)?;
            Some(or(bodies.iter().map(|body| self.expand(body)).collect()))
        })
    }

    /// A defined name on a reference cycle, if any.
    fn find_cycle(&self) -> Option<Symbol> {
        fn visit(
            defs: &BTreeMap<Symbol, Vec<Goal>>,
            name: Symbol,
            visiting: &mut Vec<Symbol>,
            done: &mut Vec<Symbol>,
        ) -> Option<Symbol> {
            if done.contains(&name) {
                return None;
            }
            if visiting.contains(&name) {
                return Some(name);
            }
            visiting.push(name);
            for body in defs.get(&name).map_or(&[][..], Vec::as_slice) {
                for referenced in body.events() {
                    if defs.contains_key(&referenced) {
                        if let Some(off) = visit(defs, referenced, visiting, done) {
                            return Some(off);
                        }
                    }
                }
            }
            visiting.pop();
            done.push(name);
            None
        }
        let mut done = Vec::new();
        for &name in self.defs.keys() {
            if let Some(off) = visit(&self.defs, name, &mut Vec::new(), &mut done) {
                return Some(off);
            }
        }
        None
    }
}

/// A complete workflow specification.
#[derive(Clone, Debug, Default)]
pub struct WorkflowSpec {
    /// Human-readable name.
    pub name: String,
    /// The control flow graph, as a concurrent-Horn goal (equation (1)).
    pub graph: Goal,
    /// Sub-workflow definitions.
    pub subworkflows: SubWorkflows,
    /// Triggers, compiled into the graph in order.
    pub triggers: Vec<Trigger>,
    /// Timers (`after`/`deadline`/`every`), compiled after triggers.
    pub timers: Vec<TimerSpec>,
    /// Global temporal constraints.
    pub constraints: Vec<Constraint>,
}

impl WorkflowSpec {
    /// A specification with just a graph.
    pub fn new(name: &str, graph: Goal) -> WorkflowSpec {
        WorkflowSpec {
            name: name.to_owned(),
            graph,
            ..WorkflowSpec::default()
        }
    }

    /// The flattened goal: sub-workflows expanded, triggers and timers
    /// compiled, constraints *not* yet applied.
    pub fn to_goal(&self) -> Goal {
        self.lower(&self.subworkflows.expand(&self.graph))
    }

    /// Triggers and timers compiled into an already expanded graph.
    /// Timers compile after triggers so a gate or watchdog also covers
    /// trigger-duplicated occurrences of its event.
    fn lower(&self, expanded: &Goal) -> Goal {
        let mut channels = ChannelAlloc::fresh_for(expanded);
        lower(expanded, &self.triggers, &self.timers, &mut channels)
    }

    /// Full compilation: flatten, `Apply` every constraint, `Excise`
    /// knots. The result is the directly executable specification of
    /// Theorem 5.8.
    pub fn compile(&self) -> Result<Compiled, CompileError> {
        analysis::compile(&self.to_goal(), &self.constraints)
    }

    /// Consistency of the whole specification (Theorem 5.8).
    pub fn is_consistent(&self) -> Result<bool, CompileError> {
        Ok(self.compile()?.is_consistent())
    }

    /// Does every legal execution satisfy `property`? (Theorem 5.9.)
    pub fn verify(&self, property: &Constraint) -> Result<Verification, CompileError> {
        analysis::verify(&self.to_goal(), &self.constraints, property)
    }

    /// Is the `index`-th constraint redundant? (Theorem 5.10.)
    pub fn is_redundant(&self, index: usize) -> Result<bool, CompileError> {
        analysis::is_redundant(&self.to_goal(), &self.constraints, index)
    }

    /// Why an inconsistent specification is: a minimal set of its
    /// constraints that no execution of the graph meets together (any one
    /// of them dropped, one does), named by their 1-based positions and
    /// text — "constraints 1 (serial(a, b)) and 2 (serial(b, a))
    /// conflict". `None` when the specification is consistent.
    pub fn conflict(&self) -> Result<Option<String>, CompileError> {
        let Some(subset) = analysis::conflict(&self.to_goal(), &self.constraints)? else {
            return Ok(None);
        };
        let named: Vec<String> = (subset.iter())
            .map(|&i| format!("{} ({})", i + 1, self.constraints[i]))
            .collect();
        Ok(Some(match &named[..] {
            [] => "the graph has no execution".to_owned(),
            [one] => format!("constraint {one} conflicts with the graph"),
            [init @ .., last] => format!("constraints {} and {last} conflict", init.join(", ")),
        }))
    }
}

/// Triggers, then timers, compiled into `goal` in one pass.
///
/// Each immediate trigger, and each event a timer matches, is a rule
/// "every `e` becomes `R`"; a timer's also adds a part that runs beside
/// the goal. The rules go into the goal together ([`apply_rules`]). An eventual
/// trigger splits the goal through `apply_must`/`apply_must_not`, so the
/// rules before it are applied there. Timers match against the events of
/// the goal the triggers leave, taken once and sorted by name: a timer's
/// rule adds no event but its tick, which no timer matches. Channels are
/// drawn in list order, so the result is the rule-by-rule fold's, channel
/// ids included.
pub(crate) fn lower(
    goal: &Goal,
    triggers: &[Trigger],
    timers: &[TimerSpec],
    channels: &mut ChannelAlloc,
) -> Goal {
    let mut current = goal.clone();
    let mut rules = Vec::new();
    for trigger in triggers {
        match trigger.semantics {
            TriggerSemantics::Immediate => {
                let into = seq(vec![Goal::atom(trigger.on), trigger.guarded_action()]);
                rules.push((trigger.on, into));
            }
            TriggerSemantics::Eventual => {
                current = trigger.eventually(&apply_rules(current, &rules), channels);
                rules.clear();
            }
        }
    }
    current = apply_rules(current, &rules);
    if timers.is_empty() {
        return current;
    }
    let mut events: Vec<_> = current
        .events()
        .into_iter()
        .map(|e| (e.as_str(), e))
        .collect();
    events.sort_unstable();
    rules.clear();
    let mut beside = Vec::new();
    for timer in timers {
        for (k, target) in timer.matches(&events) {
            let (into, part) = timer.rule(k, target, channels.fresh());
            rules.push((target, into));
            beside.push(part);
        }
    }
    if beside.is_empty() {
        return current;
    }
    conc(
        iter::once(apply_rules(current, &rules))
            .chain(beside)
            .collect(),
    )
}

/// `goal` with the rules "every `e` becomes `R`" applied in list order, a
/// later rule also rewriting what an earlier one put in, by one
/// [`Goal::substitute`]. The rules compose first, from the last back: what
/// `e` becomes under the rules from `k` on is rule `k`'s `R` with each
/// event replaced by what it becomes under the rules after `k`.
fn apply_rules(goal: Goal, rules: &[(Symbol, Goal)]) -> Goal {
    if rules.is_empty() {
        return goal;
    }
    let mask = rules
        .iter()
        .fold(0, |mask, &(e, _)| mask | event_fp_bits(e));
    let mut images = BTreeMap::new();
    for (e, into) in rules.iter().rev() {
        let image = into.substitute(mask, &mut |y| images.get(&y).cloned());
        images.insert(*e, image);
    }
    goal.substitute(mask, &mut |e| images.get(&e).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctr::semantics::{event_traces, satisfies};
    use ctr::symbol::sym;

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    #[test]
    fn subworkflows_expand_recursively() {
        let mut sw = SubWorkflows::new();
        sw.define("inner", ctr::goal::or(vec![g("x"), g("y")]))
            .unwrap();
        sw.define("outer", ctr::goal::seq(vec![g("a"), g("inner")]))
            .unwrap();
        let flat = sw.expand(&ctr::goal::seq(vec![g("outer"), g("z")]));
        assert_eq!(
            flat,
            ctr::goal::seq(vec![g("a"), ctr::goal::or(vec![g("x"), g("y")]), g("z")])
        );
    }

    #[test]
    fn recursive_definitions_are_rejected() {
        let mut sw = SubWorkflows::new();
        sw.define("a", g("b")).unwrap();
        let err = sw.define("b", g("a")).unwrap_err();
        assert!(matches!(err, RecursiveDefinition(_)));
        assert!(!sw.defines(sym("b")), "rejected definition rolled back");
    }

    #[test]
    fn alternative_definitions_become_or() {
        let mut sw = SubWorkflows::new();
        sw.define("pay", g("card")).unwrap();
        sw.define("pay", g("cash")).unwrap();
        assert_eq!(
            sw.expand(&g("pay")),
            ctr::goal::or(vec![g("card"), g("cash")])
        );
    }

    #[test]
    fn full_pipeline_compiles_consistently() {
        let mut spec = WorkflowSpec::new(
            "orders",
            ctr::goal::seq(vec![g("order"), g("fulfil"), g("close")]),
        );
        spec.subworkflows
            .define("fulfil", ctr::goal::conc(vec![g("pick"), g("invoice")]))
            .unwrap();
        spec.triggers.push(Trigger::immediate("order", g("log")));
        spec.constraints.push(Constraint::order("pick", "invoice"));
        let compiled = spec.compile().unwrap();
        assert!(compiled.is_consistent());
        let traces = event_traces(&compiled.goal, 100_000).unwrap();
        assert!(!traces.is_empty());
        for t in &traces {
            assert!(satisfies(t, &Constraint::order("pick", "invoice")), "{t:?}");
            assert!(
                satisfies(t, &Constraint::order("log", "pick")),
                "trigger ran first: {t:?}"
            );
        }
    }

    #[test]
    fn verify_and_redundancy_through_spec() {
        let mut spec = WorkflowSpec::new("pipeline", ctr::goal::seq(vec![g("a"), g("b"), g("c")]));
        spec.constraints.push(Constraint::order("a", "c"));
        // The graph alone forces a<c: the constraint is redundant.
        assert!(spec.is_redundant(0).unwrap());
        assert!(spec.verify(&Constraint::order("a", "b")).unwrap().holds());
        assert!(spec.is_consistent().unwrap());
    }
}
