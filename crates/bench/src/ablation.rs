//! Ablation: what the `Apply` implementation's eager `¬path` pruning,
//! `∨`-idempotence and `∨`-absorption buy.
//!
//! DESIGN.md calls out three implementation choices in the compiler:
//!
//! 1. **Eager pruning** — `Apply(∇α, ·)` positions are built through the
//!    smart constructors, so subtrees without `α` collapse to `¬path`
//!    *during* construction and never materialize. The naive reading of
//!    Definition 5.1 builds every positional disjunct first and
//!    simplifies afterwards; this module implements that naive variant.
//!    Without eager pruning the intermediate term for one positive
//!    primitive is `Θ(n²)` (n disjuncts of size n), and the linear-in-|G|
//!    clause of Theorem 5.11 is lost in time even though the final sizes
//!    agree.
//! 2. **`∨`-idempotence** — duplicated disjuncts from sequential
//!    constraint application are merged. [`apply_no_dedup`] replays the
//!    compilation with raw constructors (flattening and `¬path`
//!    absorption, but no duplicate merging) to expose the difference on
//!    the SAT workloads.
//! 3. **`∨`-absorption** — a disjunctive constraint is applied one
//!    alternative of the goal at a time, and an alternative some disjunct
//!    already holds on is kept as it stands. [`apply_literal`] is the rule
//!    as Theorem 5.11 reads it, `Apply(C₁, T) ∨ … ∨ Apply(C_d, T)` with `T`
//!    the whole goal, composed from the public per-conjunct API — the one
//!    copy of it, which `tests/absorption_referee.rs` also holds the
//!    compiler to.
//! 4. **Scope and Order** — `apply` runs the single-disjunct constraints
//!    first and applies each wider one at the lowest subgoal holding its
//!    events. [`apply_unscoped`] is `Apply` without them: the constraints
//!    in list order, each over the whole goal built so far — what
//!    `tests/absorption_referee.rs` holds to the literal rule, and what
//!    E7 and the scope referee compare `apply` with.
//!
//! Measured in the `a1_ablation` experiment section and bench.

use ctr::apply::{apply_conjunct, apply_normal_form, ChannelAlloc};
use ctr::constraints::{Basic, Constraint};
use ctr::goal::{or, Goal};
use ctr::symbol::Symbol;

/// `Apply(C, G)` by the literal rule: every constraint's disjuncts each
/// rewrite the whole goal built so far, whatever its alternatives already
/// satisfy. Channels are numbered as `ctr::apply::apply_all` numbers them
/// (a range per disjunct, set aside up front), so what the compiler keeps
/// is `==` to alternatives of this goal.
pub fn apply_literal(constraints: &[Constraint], goal: &Goal, channels: &mut ChannelAlloc) -> Goal {
    let mut current = goal.clone();
    for c in constraints {
        let nf = c.normalize();
        let orders = |conj: &[Basic]| {
            conj.iter()
                .filter(|b| matches!(b, Basic::Order(..)))
                .count()
        };
        let mut ranges: Vec<ChannelAlloc> = (nf.disjuncts.iter())
            .map(|conj| channels.reserve(orders(conj) as u32))
            .collect();
        let rewrites = (nf.disjuncts.iter().zip(&mut ranges))
            .map(|(conj, range)| apply_conjunct(conj, &current, range));
        current = or(rewrites.collect());
    }
    current
}

/// `Apply(C, G)` as Definition 5.5 folds it: every constraint's normal
/// form, in list order, over the whole goal built so far
/// (`ctr::apply::apply_normal_form`, absorbing alternatives a disjunct
/// holds on). Trace-equivalent to `ctr::apply::apply_all` from the same
/// allocator, and node-identical to it on a list whose constraints all
/// have one disjunct.
pub fn apply_unscoped(
    constraints: &[Constraint],
    goal: &Goal,
    channels: &mut ChannelAlloc,
) -> Goal {
    let mut current = goal.clone();
    for c in constraints {
        current = apply_normal_form(&c.normalize(), &current, channels);
        if current.is_nopath() {
            return Goal::NoPath;
        }
    }
    current
}

/// `or` with flattening and `¬path` dropping but **no** idempotence.
fn or_no_dedup(goals: Vec<Goal>) -> Goal {
    let mut out = Vec::with_capacity(goals.len());
    for g in goals {
        match g {
            Goal::NoPath => {}
            Goal::Or(inner) => out.extend(inner.to_vec()),
            other => out.push(other),
        }
    }
    match out.len() {
        0 => Goal::NoPath,
        1 => out.pop().expect("len checked"),
        _ => Goal::raw_or(out),
    }
}

/// The naive positive-primitive compilation: every positional disjunct is
/// constructed (cloning the whole conjunction each time) before
/// simplification removes the dead ones.
pub fn apply_must_naive(alpha: Symbol, goal: &Goal) -> Goal {
    fn raw(alpha: Symbol, goal: &Goal) -> Goal {
        match goal {
            Goal::Atom(a) if a.as_event() == Some(alpha) => goal.clone(),
            Goal::Atom(_) => Goal::NoPath,
            Goal::Seq(gs) => Goal::raw_or(
                (0..gs.len())
                    .map(|i| {
                        let mut children = gs.to_vec();
                        children[i] = raw(alpha, &gs[i]);
                        Goal::raw_seq(children)
                    })
                    .collect(),
            ),
            Goal::Conc(gs) => Goal::raw_or(
                (0..gs.len())
                    .map(|i| {
                        let mut children = gs.to_vec();
                        children[i] = raw(alpha, &gs[i]);
                        Goal::raw_conc(children)
                    })
                    .collect(),
            ),
            Goal::Or(gs) => Goal::raw_or(gs.iter().map(|g| raw(alpha, g)).collect()),
            Goal::Isolated(g) => Goal::raw_isolated(raw(alpha, g)),
            Goal::Possible(_) | Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => {
                Goal::NoPath
            }
        }
    }
    // Post-hoc simplification restores the canonical result.
    raw(alpha, goal).simplify()
}

/// Whole-constraint-set compilation without `∨`-idempotence (still with
/// eager pruning). Order constraints are not supported — the ablation
/// targets the existence-constraint blow-up.
pub fn apply_no_dedup(constraints: &[Constraint], goal: &Goal) -> Goal {
    let mut current = goal.clone();
    for c in constraints {
        let nf = c.normalize();
        let disjuncts: Vec<Goal> = nf
            .disjuncts
            .iter()
            .map(|conj| {
                let mut g = current.clone();
                for b in conj {
                    g = match *b {
                        Basic::Must(e) => must_nd(e, &g),
                        Basic::MustNot(e) => must_not_nd(e, &g),
                        Basic::Order(..) => {
                            unimplemented!("ablation covers existence constraints only")
                        }
                    };
                    if g.is_nopath() {
                        break;
                    }
                }
                g
            })
            .collect();
        current = or_no_dedup(disjuncts);
        if current.is_nopath() {
            return current;
        }
    }
    current
}

/// Eagerly-pruned `Apply(∇α, ·)` built on the dedup-free `∨`.
fn must_nd(alpha: Symbol, goal: &Goal) -> Goal {
    match goal {
        Goal::Atom(a) if a.as_event() == Some(alpha) => goal.clone(),
        Goal::Atom(_) => Goal::NoPath,
        Goal::Seq(gs) => or_no_dedup(
            (0..gs.len())
                .map(|i| {
                    let rewritten = must_nd(alpha, &gs[i]);
                    if rewritten.is_nopath() {
                        return Goal::NoPath;
                    }
                    let mut children = gs.to_vec();
                    children[i] = rewritten;
                    ctr::goal::seq(children)
                })
                .collect(),
        ),
        Goal::Conc(gs) => or_no_dedup(
            (0..gs.len())
                .map(|i| {
                    let rewritten = must_nd(alpha, &gs[i]);
                    if rewritten.is_nopath() {
                        return Goal::NoPath;
                    }
                    let mut children = gs.to_vec();
                    children[i] = rewritten;
                    ctr::goal::conc(children)
                })
                .collect(),
        ),
        Goal::Or(gs) => or_no_dedup(gs.iter().map(|g| must_nd(alpha, g)).collect()),
        Goal::Isolated(g) => ctr::goal::isolated(must_nd(alpha, g)),
        _ => Goal::NoPath,
    }
}

fn must_not_nd(alpha: Symbol, goal: &Goal) -> Goal {
    match goal {
        Goal::Atom(a) if a.as_event() == Some(alpha) => Goal::NoPath,
        Goal::Atom(_) => goal.clone(),
        Goal::Seq(gs) => ctr::goal::seq(gs.iter().map(|g| must_not_nd(alpha, g)).collect()),
        Goal::Conc(gs) => ctr::goal::conc(gs.iter().map(|g| must_not_nd(alpha, g)).collect()),
        Goal::Or(gs) => or_no_dedup(gs.iter().map(|g| must_not_nd(alpha, g)).collect()),
        Goal::Isolated(g) => ctr::goal::isolated(must_not_nd(alpha, g)),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctr::apply::apply_must;
    use ctr::gen;
    use ctr::sym;

    #[test]
    fn naive_apply_agrees_with_eager() {
        for seed in 0..10 {
            let (goal, events) = gen::random_goal(seed, gen::GoalShape::default(), "abl");
            for &e in events.iter().take(3) {
                assert_eq!(
                    apply_must_naive(e, &goal),
                    apply_must(e, &goal),
                    "seed {seed} event {e}"
                );
            }
            // And for an event that never occurs.
            assert_eq!(apply_must_naive(sym("never_there"), &goal), Goal::NoPath);
        }
    }

    #[test]
    fn no_dedup_apply_is_semantically_equal_but_larger() {
        let inst = gen::random_3sat(3, 5, 18);
        let (goal, constraints) = gen::sat_to_workflow(&inst);
        let with = ctr::apply::apply(&constraints, &goal);
        let without = apply_no_dedup(&constraints, &goal);
        assert!(without.size() >= with.size());
        let a = ctr::semantics::event_traces(&with, 2_000_000).unwrap();
        let b = ctr::semantics::event_traces(&without, 2_000_000).unwrap();
        assert_eq!(a, b);
    }
}
