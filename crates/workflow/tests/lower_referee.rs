//! The one-pass lowering against the fold it replaced.
//!
//! `reference` is the lowering as it was before `Goal::substitute`: one
//! hand-written atom-for-goal rewrite per rule, a trigger list folded
//! trigger by trigger, a timer folded match by match over a fresh
//! `events()` walk, sub-workflow expansion and loop renaming each with a
//! walk of their own. Every result of the pass must be `==` the fold's,
//! channel ids included.

use ctr::apply::ChannelAlloc;
use ctr::gen::{random_goal, GoalShape};
use ctr::goal::{conc, event_fp_bits, or, seq, Goal};
use ctr::symbol::{sym, Symbol};
use ctr::term::Atom;
use ctr_workflow::{unroll, SubWorkflows, TimerSpec, Trigger, WorkflowSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fold, kept as the referee's reference.
mod reference {
    use super::*;
    use ctr::apply::{apply_must, apply_must_not};
    use ctr::goal::{isolated, possible};
    use ctr::timer::{parse_tick, tick_name, TimerKind};
    use ctr_workflow::{TimerRule, TriggerSemantics};
    use std::collections::BTreeMap;

    /// Every occurrence of event `e` in `goal` rewritten to `replacement`.
    pub fn rewrite(goal: &Goal, e: Symbol, replacement: &Goal) -> Goal {
        let each = |gs: &[Goal]| gs.iter().map(|g| rewrite(g, e, replacement)).collect();
        match goal {
            Goal::Atom(a) if a.as_event() == Some(e) => replacement.clone(),
            Goal::Atom(_) | Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => {
                goal.clone()
            }
            Goal::Seq(gs) => seq(each(gs)),
            Goal::Conc(gs) => conc(each(gs)),
            Goal::Or(gs) => or(each(gs)),
            Goal::Isolated(g) => isolated(rewrite(g, e, replacement)),
            Goal::Possible(g) => possible(rewrite(g, e, replacement)),
        }
    }

    fn guarded_action(trigger: &Trigger) -> Goal {
        match &trigger.condition {
            None => trigger.action.clone(),
            Some(c) => or(vec![
                seq(vec![Goal::Atom(c.clone()), trigger.action.clone()]),
                Goal::Atom(c.negate()),
            ]),
        }
    }

    pub fn compile_trigger(goal: &Goal, trigger: &Trigger, channels: &mut ChannelAlloc) -> Goal {
        let action = guarded_action(trigger);
        match trigger.semantics {
            TriggerSemantics::Immediate => {
                let replacement = seq(vec![Goal::atom(trigger.on), action]);
                rewrite(goal, trigger.on, &replacement)
            }
            TriggerSemantics::Eventual => {
                let without = apply_must_not(trigger.on, goal);
                let with = apply_must(trigger.on, goal);
                if with.is_nopath() {
                    return without;
                }
                let xi = channels.fresh();
                let signalled = rewrite(
                    &with,
                    trigger.on,
                    &seq(vec![Goal::atom(trigger.on), Goal::Send(xi)]),
                );
                or(vec![
                    without,
                    conc(vec![signalled, seq(vec![Goal::Receive(xi), action])]),
                ])
            }
        }
    }

    fn matching_events(goal: &Goal, event: Symbol) -> Vec<(u64, Symbol)> {
        let base = event.as_str();
        let mut found: Vec<(u64, Symbol)> = goal
            .events()
            .into_iter()
            .filter(|e| parse_tick(e.as_str()).is_none())
            .filter_map(|e| {
                let name = e.as_str();
                if name == base {
                    return Some((0, e));
                }
                let suffix = name.strip_prefix(base)?.strip_prefix('@')?;
                if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) {
                    Some((suffix.parse().ok()?, e))
                } else {
                    None
                }
            })
            .collect();
        found.sort_unstable();
        found
    }

    pub fn compile_timer(goal: &Goal, timer: &TimerSpec, channels: &mut ChannelAlloc) -> Goal {
        let mut current = goal.clone();
        for (k, target) in matching_events(goal, timer.event) {
            let (kind, delay_ms) = match timer.rule {
                TimerRule::After { delay_ms } => (TimerKind::After, delay_ms),
                TimerRule::Deadline { delay_ms } => (TimerKind::Deadline, delay_ms),
                TimerRule::Every { period_ms } => {
                    (TimerKind::After, period_ms.saturating_mul(k.max(1)))
                }
            };
            let tick = Goal::atom(sym(&tick_name(target.as_str(), kind, delay_ms)));
            let xi = channels.fresh();
            current = match kind {
                TimerKind::After => {
                    let gated = rewrite(
                        &current,
                        target,
                        &seq(vec![Goal::Receive(xi), Goal::atom(target)]),
                    );
                    conc(vec![gated, seq(vec![tick, Goal::Send(xi)])])
                }
                TimerKind::Deadline => {
                    let signalling = rewrite(
                        &current,
                        target,
                        &seq(vec![Goal::atom(target), Goal::Send(xi)]),
                    );
                    conc(vec![signalling, or(vec![Goal::Receive(xi), tick])])
                }
            };
        }
        current
    }

    /// `SubWorkflows::expand` with its per-name test and a walk of its
    /// own.
    pub fn expand(defs: &SubWorkflows, goal: &Goal) -> Goal {
        let mask = defs
            .names()
            .fold(0, |mask, name| mask | event_fp_bits(name));
        expand_masked(defs, goal, mask)
    }

    fn expand_masked(defs: &SubWorkflows, goal: &Goal, mask: u64) -> Goal {
        if goal.is_canonical()
            && (goal.events_fingerprint() & mask == 0
                || !defs.names().any(|name| goal.may_mention(name)))
        {
            return goal.clone();
        }
        let expand = |g: &Goal| expand_masked(defs, g, mask);
        match goal {
            Goal::Atom(a) if a.is_prop() && defs.defines(a.pred) => {
                or(defs.bodies(a.pred).iter().map(expand).collect())
            }
            Goal::Atom(_) | Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => {
                goal.clone()
            }
            Goal::Seq(gs) => seq(gs.iter().map(expand).collect()),
            Goal::Conc(gs) => conc(gs.iter().map(expand).collect()),
            Goal::Or(gs) => or(gs.iter().map(expand).collect()),
            Goal::Isolated(g) => isolated(expand(g)),
            Goal::Possible(g) => possible(expand(g)),
        }
    }

    /// `WorkflowSpec::to_goal` as the fold: expand, then each trigger and
    /// each timer over the whole goal in turn.
    pub fn to_goal(spec: &WorkflowSpec) -> Goal {
        let expanded = expand(&spec.subworkflows, &spec.graph);
        let mut channels = ChannelAlloc::fresh_for(&expanded);
        let mut current = expanded;
        for trigger in &spec.triggers {
            current = compile_trigger(&current, trigger, &mut channels);
        }
        for timer in &spec.timers {
            current = compile_timer(&current, timer, &mut channels);
        }
        current
    }

    fn rename(goal: &Goal, i: usize, occurrences: &mut BTreeMap<Symbol, Vec<Symbol>>) -> Goal {
        let mut each =
            |gs: &[Goal]| -> Vec<Goal> { gs.iter().map(|g| rename(g, i, occurrences)).collect() };
        match goal {
            Goal::Atom(a) => match a.as_event() {
                Some(e) => {
                    let renamed = ctr_workflow::loops::iteration_event(e, i);
                    let list = occurrences.entry(e).or_default();
                    if !list.contains(&renamed) {
                        list.push(renamed);
                    }
                    Goal::atom(renamed)
                }
                None => goal.clone(),
            },
            Goal::Seq(gs) => seq(each(gs)),
            Goal::Conc(gs) => conc(each(gs)),
            Goal::Or(gs) => or(each(gs)),
            Goal::Isolated(g) => isolated(rename(g, i, occurrences)),
            Goal::Possible(g) => possible(rename(g, i, occurrences)),
            other => other.clone(),
        }
    }

    /// `unroll`, renaming each iteration with a walk of its own.
    pub fn unroll(body: &Goal, min: usize, max: usize) -> (Goal, BTreeMap<Symbol, Vec<Symbol>>) {
        let mut occurrences = BTreeMap::new();
        let iterations: Vec<Goal> = (1..=max)
            .map(|i| rename(body, i, &mut occurrences))
            .collect();
        let mut optional = Goal::Empty;
        for it in iterations[min..].iter().rev() {
            optional = or(vec![Goal::Empty, seq(vec![it.clone(), optional])]);
        }
        let mut parts: Vec<Goal> = iterations[..min].to_vec();
        parts.push(optional);
        (seq(parts), occurrences)
    }
}

/// A small random goal over events `{prefix}0, {prefix}1, …`.
fn goal(rng: &mut StdRng, prefix: &str, depth: usize) -> Goal {
    let shape = GoalShape {
        depth,
        width: 3,
        or_bias: 0.34,
    };
    random_goal(rng.gen_range(0..u64::MAX), shape, prefix).0
}

/// A random specification: a graph with a `repeat` family beside it now
/// and then, sub-workflow definitions (some nested), immediate, eventual
/// and conditional triggers, and `after`, `deadline` and `every` timers.
/// Rules pick their events from the graph, from the actions of earlier
/// triggers, from the family, and from names that occur nowhere.
fn random_spec(seed: u64) -> WorkflowSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let tag = format!("s{seed:x}_");
    let mut graph = goal(&mut rng, &format!("{tag}g"), 3);
    let family = sym(&format!("{tag}poll"));
    if rng.gen_bool(0.3) {
        let max = rng.gen_range(1..=4);
        let family_goal = unroll(&Goal::atom(family), rng.gen_range(0..=max), max).goal;
        graph = if rng.gen_bool(0.5) {
            seq(vec![graph, family_goal])
        } else {
            conc(vec![graph, family_goal])
        };
    }
    let mut spec = WorkflowSpec::new("referee", graph.clone());
    let mut pool: Vec<Symbol> = graph.events().into_iter().collect();
    for (i, name) in pool.clone().into_iter().enumerate() {
        if rng.gen_bool(0.15) {
            let prefix = format!("{tag}d{i}_");
            for _ in 0..rng.gen_range(1..=2) {
                let body = goal(&mut rng, &prefix, 2);
                spec.subworkflows.define(name, body).unwrap();
            }
            if rng.gen_bool(0.4) {
                let inner = sym(&format!("{prefix}0"));
                let body = goal(&mut rng, &format!("{tag}dd{i}_"), 2);
                spec.subworkflows.define(inner, body).unwrap();
            }
        }
    }
    pool.extend(reference::expand(&spec.subworkflows, &spec.graph).events());
    pool.push(sym(&format!("{tag}missing")));
    pool.push(family);
    for j in 0..rng.gen_range(0..=4) {
        let on = pool[rng.gen_range(0..pool.len())];
        let action = if rng.gen_bool(0.05) {
            Goal::NoPath
        } else {
            goal(&mut rng, &format!("{tag}a{j}_"), 2)
        };
        pool.extend(action.events());
        let mut trigger = if rng.gen_bool(0.3) {
            Trigger::eventual(on, action)
        } else {
            Trigger::immediate(on, action)
        };
        if rng.gen_bool(0.3) {
            trigger = trigger.when(Atom::prop(format!("{tag}c{j}").as_str()));
        }
        spec.triggers.push(trigger);
    }
    for _ in 0..rng.gen_range(0..=3) {
        let event = pool[rng.gen_range(0..pool.len())];
        let delay = rng.gen_range(1..100_000);
        spec.timers.push(match rng.gen_range(0..3) {
            0 => TimerSpec::after(event, delay),
            1 => TimerSpec::deadline(event, delay),
            _ => TimerSpec::every(event, delay),
        });
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// `WorkflowSpec::to_goal` — expansion, then triggers and timers in
    /// one pass — is the fold's goal node for node, channel ids included.
    #[test]
    fn one_pass_lowering_is_the_fold(seed in 0u64..u64::MAX) {
        let spec = random_spec(seed);
        prop_assert_eq!(spec.to_goal(), reference::to_goal(&spec));
        prop_assert_eq!(
            spec.subworkflows.expand(&spec.graph),
            reference::expand(&spec.subworkflows, &spec.graph)
        );
    }

    /// `unroll` through `Goal::substitute` is the renaming walk's goal,
    /// with the same occurrence lists in the same order.
    #[test]
    fn unroll_is_the_renaming_walk(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut body = goal(&mut rng, &format!("u{seed:x}_"), 3);
        if rng.gen_bool(0.3) {
            body = seq(vec![Goal::Atom(Atom::prop("ready").negate()), body]);
        }
        let max = rng.gen_range(1..=4);
        let min = rng.gen_range(0..=max);
        let unrolled = unroll(&body, min, max);
        let (goal, occurrences) = reference::unroll(&body, min, max);
        prop_assert_eq!(unrolled.goal, goal);
        prop_assert_eq!(unrolled.occurrences, occurrences);
    }
}
