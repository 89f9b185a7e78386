//! Triggers (event-condition-action rules) compiled into the control flow
//! graph.
//!
//! "Since triggers can be 'compiled into' the control flow graph, we shall
//! be treating triggers as part of the control flow graph" (paper, §1,
//! citing the result of \[7\] for immediate-semantics triggers, adaptable to
//! eventual semantics).
//!
//! * **Immediate** semantics: the action runs right after the triggering
//!   event. Every occurrence of the event `e` is rewritten to
//!   `e ⊗ ((cond ⊗ action) ∨ ¬cond)` — the action fires exactly when the
//!   condition holds at that point of the execution.
//! * **Eventual** semantics: the action runs some time after the event,
//!   concurrently with the rest of the workflow. Compiled with the same
//!   machinery as order constraints: the triggering event `send`s on a
//!   fresh channel, and the action body `receive`s before it starts —
//!   executions without the event keep the original goal:
//!   `Apply(¬∇e, G) ∨ ((G with e ⊗ send ξ) | (receive ξ ⊗ action))`.
//!
//! A list compiles in one pass with the timers (`crate::spec::lower`):
//! the immediate triggers between two eventual ones are one substitution.

use ctr::apply::{apply_must, apply_must_not, ChannelAlloc};
use ctr::goal::{conc, event_fp_bits, or, seq, Goal};
use ctr::symbol::Symbol;
use ctr::term::Atom;
use std::fmt;

/// When the action runs relative to the triggering event.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TriggerSemantics {
    /// Immediately after the event.
    #[default]
    Immediate,
    /// Some time after the event, interleaved with the rest.
    Eventual,
}

/// An event-condition-action rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trigger {
    /// The triggering significant event.
    pub on: Symbol,
    /// Optional condition queried when the trigger fires.
    pub condition: Option<Atom>,
    /// The action, an arbitrary concurrent-Horn goal.
    pub action: Goal,
    /// Immediate or eventual execution.
    pub semantics: TriggerSemantics,
}

impl Trigger {
    /// An unconditional immediate trigger.
    pub fn immediate(on: impl Into<Symbol>, action: Goal) -> Trigger {
        Trigger {
            on: on.into(),
            condition: None,
            action,
            semantics: TriggerSemantics::Immediate,
        }
    }

    /// An unconditional eventual trigger.
    pub fn eventual(on: impl Into<Symbol>, action: Goal) -> Trigger {
        Trigger {
            on: on.into(),
            condition: None,
            action,
            semantics: TriggerSemantics::Eventual,
        }
    }

    /// Adds a condition.
    pub fn when(mut self, condition: Atom) -> Trigger {
        self.condition = Some(condition);
        self
    }

    /// The action guarded by the condition:
    /// `(cond ⊗ action) ∨ ¬cond`, or just the action when unconditional.
    pub(crate) fn guarded_action(&self) -> Goal {
        match &self.condition {
            None => self.action.clone(),
            Some(c) => or(vec![
                seq(vec![Goal::Atom(c.clone()), self.action.clone()]),
                Goal::Atom(c.negate()),
            ]),
        }
    }

    /// An eventual trigger compiled into `goal`: executions without the
    /// event keep it, and in the others the event signals the action.
    pub(crate) fn eventually(&self, goal: &Goal, channels: &mut ChannelAlloc) -> Goal {
        let without = apply_must_not(self.on, goal);
        let with = apply_must(self.on, goal);
        if with.is_nopath() {
            return without;
        }
        let xi = channels.fresh();
        let signalled = with.substitute(event_fp_bits(self.on), &mut |e| {
            (e == self.on).then(|| seq(vec![Goal::atom(e), Goal::Send(xi)]))
        });
        or(vec![
            without,
            conc(vec![
                signalled,
                seq(vec![Goal::Receive(xi), self.guarded_action()]),
            ]),
        ])
    }
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "on {}", self.on)?;
        if let Some(c) = &self.condition {
            write!(f, " if {c}")?;
        }
        write!(f, " do {}", self.action)?;
        if self.semantics == TriggerSemantics::Eventual {
            write!(f, " eventually")?;
        }
        Ok(())
    }
}

/// Compiles one trigger into the goal.
pub fn compile_trigger(goal: &Goal, trigger: &Trigger, channels: &mut ChannelAlloc) -> Goal {
    crate::spec::lower(goal, std::slice::from_ref(trigger), &[], channels)
}

/// Compiles a list of triggers in order. Actions of earlier triggers are
/// visible to later ones (cascading triggers), so order matters — the
/// usual ECA-rule priority list.
pub fn compile_triggers(goal: &Goal, triggers: &[Trigger], channels: &mut ChannelAlloc) -> Goal {
    crate::spec::lower(goal, triggers, &[], channels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctr::semantics::event_traces;
    use ctr::symbol::sym;
    use std::collections::BTreeSet;

    const BUDGET: usize = 100_000;

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    fn traces(goal: &Goal) -> BTreeSet<Vec<Symbol>> {
        event_traces(goal, BUDGET).unwrap()
    }

    fn tr(names: &[&str]) -> Vec<Symbol> {
        names.iter().map(|n| sym(n)).collect()
    }

    #[test]
    fn immediate_trigger_inlines_action() {
        let goal = seq(vec![g("order"), g("ship")]);
        let t = Trigger::immediate("order", g("log_order"));
        let compiled = compile_trigger(&goal, &t, &mut ChannelAlloc::new());
        assert_eq!(compiled, seq(vec![g("order"), g("log_order"), g("ship")]));
    }

    #[test]
    fn immediate_trigger_fires_in_every_branch() {
        let goal = or(vec![seq(vec![g("a"), g("e")]), seq(vec![g("e"), g("b")])]);
        let t = Trigger::immediate("e", g("act"));
        let compiled = compile_trigger(&goal, &t, &mut ChannelAlloc::new());
        assert_eq!(
            traces(&compiled),
            [tr(&["a", "e", "act"]), tr(&["e", "act", "b"])]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn conditional_trigger_guards_action() {
        let goal = g("deposit");
        let t = Trigger::immediate("deposit", g("notify")).when(Atom::prop("large"));
        let compiled = compile_trigger(&goal, &t, &mut ChannelAlloc::new());
        // Two structural variants: condition holds → notify; or ¬large.
        let ts = traces(&compiled);
        assert!(ts.contains(&tr(&["deposit", "large", "notify"])));
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn eventual_trigger_runs_action_later() {
        let goal = seq(vec![g("order"), g("pack"), g("ship")]);
        let t = Trigger::eventual("order", g("bill"));
        let compiled = compile_trigger(&goal, &t, &mut ChannelAlloc::new());
        let ts = traces(&compiled);
        // bill can interleave anywhere after order.
        assert_eq!(
            ts,
            [
                tr(&["order", "bill", "pack", "ship"]),
                tr(&["order", "pack", "bill", "ship"]),
                tr(&["order", "pack", "ship", "bill"]),
            ]
            .into_iter()
            .collect()
        );
    }

    #[test]
    fn eventual_trigger_skips_when_event_absent() {
        let goal = or(vec![g("approve"), g("reject")]);
        let t = Trigger::eventual("approve", g("archive"));
        let compiled = compile_trigger(&goal, &t, &mut ChannelAlloc::new());
        let ts = traces(&compiled);
        assert!(
            ts.contains(&tr(&["reject"])),
            "no trigger on the reject path"
        );
        assert!(ts.contains(&tr(&["approve", "archive"])));
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn eventual_trigger_on_missing_event_is_identity() {
        let goal = seq(vec![g("a"), g("b")]);
        let t = Trigger::eventual("zzz", g("act"));
        let compiled = compile_trigger(&goal, &t, &mut ChannelAlloc::new());
        assert_eq!(compiled, goal);
    }

    #[test]
    fn cascading_triggers_compose() {
        let goal = g("a");
        let triggers = [
            Trigger::immediate("a", g("b")),
            Trigger::immediate("b", g("c")),
        ];
        let compiled = compile_triggers(&goal, &triggers, &mut ChannelAlloc::new());
        assert_eq!(
            traces(&compiled),
            [tr(&["a", "b", "c"])].into_iter().collect()
        );
    }

    #[test]
    fn trigger_display() {
        let t = Trigger::eventual("order", g("bill")).when(Atom::prop("paid"));
        assert_eq!(t.to_string(), "on order if paid do bill eventually");
    }
}
