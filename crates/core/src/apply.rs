//! The `Apply` transformation (paper, §5): compiling constraints into the
//! control flow graph.
//!
//! `Apply(σ, T)` rewrites a unique-event concurrent-Horn goal `T` into a
//! concurrent-Horn goal whose executions are exactly the executions of `T`
//! that satisfy the constraint `σ` — i.e. `Apply(σ, T) ≡ T ∧ σ` with the
//! hard-to-execute `∧` eliminated (Propositions 5.2, 5.4, 5.6). It is a
//! *compilation* step: after it (and [`excise`](mod@crate::excise)), scheduling
//! needs no run-time constraint checking.
//!
//! Three layers, following Definitions 5.1, 5.3, and 5.5:
//!
//! 1. **Primitive constraints** `∇α` / `¬∇α` rewrite structurally. For
//!    `∇α`, serial and concurrent conjunctions distribute into a
//!    disjunction over the position where `α` occurs; subgoals not
//!    mentioning `α` collapse to `¬path`, which the smart constructors
//!    absorb — this pruning is what keeps the output `O(|T|)` per
//!    primitive and is also the feature that "eliminates the parts of the
//!    control graph inconsistent with the constraints".
//! 2. **Order constraints** `∇α ⊗ ∇β` compile via `sync(α<β, ·)`: every
//!    occurrence of `α` becomes `α ⊗ send(ξ)` and every occurrence of `β`
//!    becomes `receive(ξ) ⊗ β` for a fresh channel `ξ`, after both
//!    existence compilations.
//! 3. **General constraints** in the normal form of Corollary 3.5 compile
//!    by `Apply(C₁ ∨ C₂, T) = Apply(C₁, T) ∨ Apply(C₂, T)` and sequential
//!    composition over `∧` — yielding the `O(d^N · |T|)` size bound of
//!    Theorem 5.11.
//!
//! # Rules × table
//!
//! Every rule is written once, as a crate-private `*_in` function generic
//! over a `Table`: the rule hands each subgoal rewrite to the table, which
//! either replays a recorded answer or runs the rule. Tabling is a
//! strategy over the rules, not a second set of them. The public functions
//! here run the rules over `Scratch`, the zero-sized table that records
//! nothing; [`crate::memo::Memo`] is the table that remembers. Both yield
//! structurally equal goals by construction: there is one loop, and it
//! runs on the caller's thread. What is independent in `Apply(C, G)` — the
//! `d ≤ 3` disjuncts of one normal form — is too little to repay a thread
//! (measured: never ahead, up to 70 % behind), so this crate spawns none;
//! the cost lever is which constraints meet, `O(d^N · |G|)`.

use crate::constraints::{Basic, Conjunct, Constraint, NormalForm};
use crate::excise::ExciseResult;
use crate::goal::{conc, isolated, or, seq, Channel, Goal};
use crate::symbol::Symbol;

/// Allocator of fresh synchronization channels.
///
/// Each order-constraint compilation must use a channel "new" with respect
/// to the goal (Definition 5.3); the compiler threads one allocator through
/// a whole compilation so channels never collide.
///
/// # Panics
///
/// [`fresh`](ChannelAlloc::fresh) and [`reserve`](ChannelAlloc::reserve)
/// panic when the allocator's run of ids is used up. The run is never
/// shorter than `2³² / (k + 1)` ids for a goal mentioning `k` channels,
/// and ids are never reused, wrapped or handed out twice.
#[derive(Clone, Debug)]
pub struct ChannelAlloc {
    /// The ids `next..end` are free; `end ≤ 2³²`, which is why both are
    /// wider than a [`Channel`].
    next: u64,
    end: u64,
}

impl Default for ChannelAlloc {
    fn default() -> ChannelAlloc {
        ChannelAlloc::new()
    }
}

impl ChannelAlloc {
    /// A fresh allocator starting at channel 0.
    pub fn new() -> ChannelAlloc {
        ChannelAlloc {
            next: 0,
            end: 1 << 32,
        }
    }

    /// An allocator whose channels are fresh with respect to `goal` —
    /// needed when the input goal already contains channels (e.g. incremental
    /// re-compilation of an already-compiled workflow). It owns the longest
    /// run of ids the goal does not mention: everything above the largest
    /// one, unless text or a snapshot put that in the upper half of the id
    /// space.
    pub fn fresh_for(goal: &Goal) -> ChannelAlloc {
        let mut longest = ChannelAlloc { next: 0, end: 0 };
        let mut next = 0;
        let mentioned = goal.channels();
        for end in mentioned.iter().map(|c| u64::from(c.0)).chain([1 << 32]) {
            if end - next > longest.end - longest.next {
                longest = ChannelAlloc { next, end };
            }
            next = end + 1;
        }
        longest
    }

    /// Allocates the next fresh channel.
    pub fn fresh(&mut self) -> Channel {
        let id = self.reserve(1).next;
        Channel(u32::try_from(id).expect("a free id is below 2³²"))
    }

    /// Splits off an allocator owning the next `budget` channel numbers,
    /// advancing `self` past them. Setting ranges aside this way gives
    /// every independent disjunct of a normal form a fixed numbering,
    /// whatever the disjuncts before it allocated. Unused slots in a range
    /// are simply never materialized; channels stay unique either way.
    pub fn reserve(&mut self, budget: u32) -> ChannelAlloc {
        let start = self.next;
        self.next += u64::from(budget);
        assert!(self.next <= self.end, "channel ids exhausted");
        ChannelAlloc {
            next: start,
            end: self.next,
        }
    }
}

/// Which rewrite a [`Table`] is asked about; with the input subgoal, the
/// whole key of an answer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Op {
    /// `Apply(∇α, ·)`.
    Must(Symbol),
    /// `Apply(¬∇α, ·)`.
    MustNot(Symbol),
    /// `sync(α<β, ·)` at a fixed, caller-supplied channel. The channel is
    /// part of the key, so the answer is a function of the key even though
    /// `apply_order` allocates the channel freshly per compilation.
    Sync(Symbol, Symbol, u32),
    /// Canonicalizing [`Goal::simplify`].
    Simplify,
}

/// The strategy the rules run under: a rule asks the table for each
/// `(op, subgoal)` answer, and the table runs the rule or replays a
/// recorded result. Answers are pure functions of their keys, so all
/// tables produce structurally equal goals.
pub(crate) trait Table: Sized {
    /// The answer to `op` on `goal`: a recorded one, or `rule`'s — which
    /// gets the table back for its recursive calls.
    fn rewrite(&mut self, op: Op, goal: &Goal, rule: impl FnOnce(&mut Self) -> Goal) -> Goal;

    /// The `Excise` outcome of the choice-rooted-free region `goal`: a
    /// recorded one, or `analyze`'s.
    fn region(&mut self, goal: &Goal, analyze: impl FnOnce() -> ExciseResult) -> ExciseResult;

    /// [`Constraint::normalize`], possibly recorded.
    fn normalize(&mut self, constraint: &Constraint) -> NormalForm;
}

/// The table that records nothing: every question runs its rule. Zero-
/// sized, so the one-shot path monomorphizes to the bare recursion.
pub(crate) struct Scratch;

impl Table for Scratch {
    #[inline]
    fn rewrite(&mut self, _: Op, _: &Goal, rule: impl FnOnce(&mut Self) -> Goal) -> Goal {
        rule(self)
    }

    #[inline]
    fn region(&mut self, _: &Goal, analyze: impl FnOnce() -> ExciseResult) -> ExciseResult {
        analyze()
    }

    #[inline]
    fn normalize(&mut self, constraint: &Constraint) -> NormalForm {
        constraint.normalize()
    }
}

/// Upper bound on the channels one conjunct can allocate: one per order
/// basic ([`apply_order`] allocates at most once, and only for orders).
fn order_budget(conj: &Conjunct) -> u32 {
    conj.iter()
        .filter(|b| matches!(b, Basic::Order(..)))
        .count() as u32
}

/// The `⊗`/`|` node `node` with its `i`-th child replaced by `new`: one
/// child vector, which the node's constructor keeps as it is unless `new`
/// is a unit or the same connective and has to be flattened in.
fn splice(node: &Goal, children: &[Goal], i: usize, new: Goal) -> Goal {
    let spliced = (children[..i].iter().cloned())
        .chain(std::iter::once(new))
        .chain(children[i + 1..].iter().cloned())
        .collect();
    match node {
        Goal::Seq(_) => seq(spliced),
        Goal::Conc(_) => conc(spliced),
        other => unreachable!("`{other}` is not a conjunction"),
    }
}

/// `∨` of the goals `alternatives` yields, built only when two of them
/// are executable: none is `¬path`, and a single one is the answer as it
/// stands.
fn or_of(alternatives: impl Iterator<Item = Goal>) -> Goal {
    let mut executable = alternatives.filter(|g| !g.is_nopath());
    let Some(first) = executable.next() else {
        return Goal::NoPath;
    };
    let Some(second) = executable.next() else {
        return first;
    };
    let mut all = Vec::with_capacity(2 + executable.size_hint().1.unwrap_or(0));
    all.extend([first, second]);
    all.extend(executable);
    or(all)
}

/// The congruence step shared by the rewrites: maps the children of a
/// connective with `f` and rebuilds it. When every result is the same
/// allocation as the original child the node itself is handed back, so
/// sharing with the input goal survives even when the event fingerprint
/// gave a false positive; otherwise untouched children are `Arc` bumps.
pub(crate) fn map_connective(goal: &Goal, mut f: impl FnMut(&Goal) -> Goal) -> Goal {
    match goal {
        Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
            let first_change = gs.iter().enumerate().find_map(|(i, child)| {
                let new = f(child);
                (!new.ptr_eq(child)).then_some((i, new))
            });
            let Some((i, new)) = first_change else {
                return goal.clone();
            };
            let children = (gs[..i].iter().cloned())
                .chain(std::iter::once(new))
                .chain(gs[i + 1..].iter().map(f));
            match goal {
                Goal::Seq(_) => seq(children.collect()),
                Goal::Conc(_) => conc(children.collect()),
                _ => or_of(children),
            }
        }
        Goal::Isolated(g) => {
            let new = f(g);
            if new.ptr_eq(g) {
                goal.clone()
            } else {
                isolated(new)
            }
        }
        // Occurrences inside ◇ are hypothetical — they never appear on the
        // execution path, so they can neither violate ¬∇α nor take part in
        // synchronization. The other leaves have no children.
        _ => goal.clone(),
    }
}

/// [`apply_must`] through `table`.
pub(crate) fn apply_must_in<T: Table>(table: &mut T, alpha: Symbol, goal: &Goal) -> Goal {
    // Event-index pruning: a subtree whose cached fingerprint excludes α
    // cannot witness ∇α, so the whole walk below would only rebuild it
    // into ¬path. Answer in O(1) instead — this is what keeps the per-
    // position loop over `⊗`/`|` children linear in practice.
    if !goal.may_mention(alpha) {
        return Goal::NoPath;
    }
    table.rewrite(Op::Must(alpha), goal, |table| match goal {
        Goal::Atom(a) if a.as_event() == Some(alpha) => goal.clone(),
        // Apply(∇α, T ⊗ K) = (Apply(∇α,T) ⊗ K) ∨ (T ⊗ Apply(∇α,K)),
        // generalized n-ary and likewise for `|`: a disjunct per child
        // position. Children not mentioning α yield ¬path and their
        // disjunct is absorbed — on a unique-event goal that is all but
        // one of them — and a child that comes back as itself (α is
        // already forced there) makes its disjunct the node itself.
        Goal::Seq(gs) | Goal::Conc(gs) => or_of(gs.iter().enumerate().map(|(i, child)| {
            let rewritten = apply_must_in(table, alpha, child);
            if rewritten.is_nopath() {
                Goal::NoPath
            } else if rewritten.ptr_eq(child) {
                goal.clone()
            } else {
                splice(goal, gs, i, rewritten)
            }
        })),
        Goal::Or(_) | Goal::Isolated(_) => map_connective(goal, |g| apply_must_in(table, alpha, g)),
        // Events inside ◇ do not occur on the final execution path (◇
        // consumes no path), so they cannot witness ∇α.
        Goal::Atom(_)
        | Goal::Possible(_)
        | Goal::Send(_)
        | Goal::Receive(_)
        | Goal::Empty
        | Goal::NoPath => Goal::NoPath,
    })
}

/// [`apply_must_not`] through `table`.
pub(crate) fn apply_must_not_in<T: Table>(table: &mut T, alpha: Symbol, goal: &Goal) -> Goal {
    // Event-index pruning: a subtree provably not mentioning α is its own
    // rewrite. Returning the clone (an `Arc` bump) hands back the *same*
    // allocation, so unchanged branches stay shared with the input goal.
    if !goal.may_mention(alpha) {
        return goal.clone();
    }
    table.rewrite(Op::MustNot(alpha), goal, |table| match goal {
        Goal::Atom(a) if a.as_event() == Some(alpha) => Goal::NoPath,
        _ => map_connective(goal, |g| apply_must_not_in(table, alpha, g)),
    })
}

/// [`sync`] through `table`.
pub(crate) fn sync_in<T: Table>(
    table: &mut T,
    alpha: Symbol,
    beta: Symbol,
    xi: Channel,
    goal: &Goal,
) -> Goal {
    // Event-index pruning: subtrees mentioning neither α nor β are
    // returned as-is (shared), skipping the rebuild entirely.
    if !goal.may_mention(alpha) && !goal.may_mention(beta) {
        return goal.clone();
    }
    table.rewrite(Op::Sync(alpha, beta, xi.0), goal, |table| match goal {
        Goal::Atom(a) if a.as_event() == Some(alpha) => seq(vec![goal.clone(), Goal::Send(xi)]),
        Goal::Atom(a) if a.as_event() == Some(beta) => seq(vec![Goal::Receive(xi), goal.clone()]),
        _ => map_connective(goal, |g| sync_in(table, alpha, beta, xi, g)),
    })
}

/// [`apply_order`] through `table`. The channel is drawn from `channels`
/// whatever the table, so it cannot be part of a recorded answer; only
/// the two `∇` stages and the `sync` stage at the drawn channel are.
pub(crate) fn apply_order_in<T: Table>(
    table: &mut T,
    alpha: Symbol,
    beta: Symbol,
    goal: &Goal,
    channels: &mut ChannelAlloc,
) -> Goal {
    if alpha == beta {
        // ∇α ⊗ ∇α requires two occurrences of α: unsatisfiable on
        // unique-event goals.
        return Goal::NoPath;
    }
    let after_beta = apply_must_in(table, beta, goal);
    let inner = apply_must_in(table, alpha, &after_beta);
    if inner.is_nopath() {
        return Goal::NoPath;
    }
    let xi = channels.fresh();
    sync_in(table, alpha, beta, xi, &inner)
}

/// [`apply_basic`] through `table`.
pub(crate) fn apply_basic_in<T: Table>(
    table: &mut T,
    basic: &Basic,
    goal: &Goal,
    channels: &mut ChannelAlloc,
) -> Goal {
    match *basic {
        Basic::Must(e) => apply_must_in(table, e, goal),
        Basic::MustNot(e) => apply_must_not_in(table, e, goal),
        Basic::Order(a, b) => apply_order_in(table, a, b, goal, channels),
    }
}

/// [`apply_conjunct`] through `table`.
pub(crate) fn apply_conjunct_in<T: Table>(
    table: &mut T,
    conj: &Conjunct,
    goal: &Goal,
    channels: &mut ChannelAlloc,
) -> Goal {
    // An empty conjunct is the trivially-true constraint: the input goal
    // is its own compilation (shared, not copied).
    let Some((first, rest)) = conj.split_first() else {
        return goal.clone();
    };
    let mut current = apply_basic_in(table, first, goal, channels);
    for basic in rest {
        if current.is_nopath() {
            return Goal::NoPath;
        }
        current = apply_basic_in(table, basic, &current, channels);
    }
    current
}

/// [`apply_normal_form`] through `table`.
///
/// The disjuncts are independent — each rewrites the *same* input goal —
/// and each draws its channels from a range set aside for it up front (see
/// [`ChannelAlloc::reserve`]), so a disjunct's numbering does not depend
/// on what the ones before it allocated.
pub(crate) fn apply_normal_form_in<T: Table>(
    table: &mut T,
    nf: &NormalForm,
    goal: &Goal,
    channels: &mut ChannelAlloc,
) -> Goal {
    let disjuncts = &nf.disjuncts;
    if disjuncts.len() == 1 {
        return apply_conjunct_in(table, &disjuncts[0], goal, channels);
    }
    let mut allocs: Vec<ChannelAlloc> = disjuncts
        .iter()
        .map(|conj| channels.reserve(order_budget(conj)))
        .collect();
    or(disjuncts
        .iter()
        .zip(allocs.iter_mut())
        .map(|(conj, alloc)| apply_conjunct_in(table, conj, goal, alloc))
        .collect())
}

/// [`apply_all`] through `table`. With a table that records, an
/// unchanged constraint prefix replays as one top-level hit per basic.
pub(crate) fn apply_all_in<T: Table>(
    table: &mut T,
    constraints: &[Constraint],
    goal: &Goal,
    channels: &mut ChannelAlloc,
) -> Goal {
    // No constraints: the goal compiles to itself — share it untouched.
    let Some((first, rest)) = constraints.split_first() else {
        return goal.clone();
    };
    let nf = table.normalize(first);
    let mut current = apply_normal_form_in(table, &nf, goal, channels);
    for c in rest {
        if current.is_nopath() {
            return Goal::NoPath;
        }
        let nf = table.normalize(c);
        current = apply_normal_form_in(table, &nf, &current, channels);
    }
    current
}

/// `Apply(∇α, T)` — Definition 5.1, positive primitive.
///
/// The result's executions are the executions of `T` in which `α` occurs.
/// Returns `¬path` when no execution of `T` contains `α`, and `T` itself —
/// the same allocation — when every execution already does.
pub fn apply_must(alpha: Symbol, goal: &Goal) -> Goal {
    apply_must_in(&mut Scratch, alpha, goal)
}

/// `Apply(¬∇α, T)` — Definition 5.1, negative primitive.
///
/// The result's executions are the executions of `T` in which `α` does not
/// occur: every occurrence of `α` is replaced by `¬path`, which prunes the
/// containing conjunction and drops the containing `∨`-branch.
pub fn apply_must_not(alpha: Symbol, goal: &Goal) -> Goal {
    apply_must_not_in(&mut Scratch, alpha, goal)
}

/// The `sync(α<β, T)` rewriting of Definition 5.3: every occurrence of
/// event `α` becomes `α ⊗ send(ξ)` and every occurrence of `β` becomes
/// `receive(ξ) ⊗ β`.
pub fn sync(alpha: Symbol, beta: Symbol, xi: Channel, goal: &Goal) -> Goal {
    sync_in(&mut Scratch, alpha, beta, xi, goal)
}

/// `Apply(∇α ⊗ ∇β, T)` — Definition 5.3:
/// `sync(α<β, Apply(∇α, Apply(∇β, T)))` with a fresh channel.
pub fn apply_order(alpha: Symbol, beta: Symbol, goal: &Goal, channels: &mut ChannelAlloc) -> Goal {
    apply_order_in(&mut Scratch, alpha, beta, goal, channels)
}

/// `Apply` of a single basic constraint.
pub fn apply_basic(basic: &Basic, goal: &Goal, channels: &mut ChannelAlloc) -> Goal {
    apply_basic_in(&mut Scratch, basic, goal, channels)
}

/// `Apply` of a conjunction of basics: sequential composition — each
/// application preserves the unique-event property, so the next may be
/// applied to its output (Definition 5.5).
pub fn apply_conjunct(conj: &Conjunct, goal: &Goal, channels: &mut ChannelAlloc) -> Goal {
    apply_conjunct_in(&mut Scratch, conj, goal, channels)
}

/// `Apply` of one normalized constraint:
/// `Apply(C₁ ∨ C₂, T) = Apply(C₁, T) ∨ Apply(C₂, T)`.
pub fn apply_normal_form(nf: &NormalForm, goal: &Goal, channels: &mut ChannelAlloc) -> Goal {
    apply_normal_form_in(&mut Scratch, nf, goal, channels)
}

/// `Apply(C, G)` for a whole constraint set `C = δ₁ ∧ … ∧ δₙ`
/// (Definition 5.5): constraints are normalized (Corollary 3.5) and
/// compiled in sequence. The output size is `O(d^N · |G|)` in the worst
/// case (Theorem 5.11).
///
/// The result may still contain *knots* — cyclic send/receive waits — and
/// must be passed through [`excise`](crate::excise::excise) before it is
/// used as an executable specification.
pub fn apply_all(constraints: &[Constraint], goal: &Goal, channels: &mut ChannelAlloc) -> Goal {
    apply_all_in(&mut Scratch, constraints, goal, channels)
}

/// Convenience wrapper: compiles `constraints` into `goal` with channels
/// fresh for the goal.
pub fn apply(constraints: &[Constraint], goal: &Goal) -> Goal {
    if constraints.is_empty() {
        // Skip even the channel scan — nothing will be allocated.
        return goal.clone();
    }
    let mut channels = ChannelAlloc::fresh_for(goal);
    apply_all(constraints, goal, &mut channels)
}

/// The one value [`apply_with`] and
/// [`excise_with_diagnostics_par`](crate::excise::excise_with_diagnostics_par)
/// take. Every rewrite runs on the caller's thread; the type and those two
/// aliases are kept only because `benchmark/` names them, and go with the
/// next change to it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub enum Parallelism {
    Auto,
}

/// [`apply`], under the name `benchmark/` calls; see [`Parallelism`].
#[doc(hidden)]
pub fn apply_with(constraints: &[Constraint], goal: &Goal, _: Parallelism) -> Goal {
    apply(constraints, goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{event_traces, satisfies};
    use crate::symbol::sym;
    use std::collections::BTreeSet;

    const BUDGET: usize = 200_000;

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    /// The oracle check of Propositions 5.2/5.4/5.6:
    /// traces(Apply(C, G)) == { t ∈ traces(G) | t ⊨ C }.
    fn assert_apply_equiv(constraints: &[Constraint], goal: &Goal) {
        let compiled = apply(constraints, goal);
        let got = event_traces(&compiled, BUDGET).unwrap();
        let want: BTreeSet<_> = event_traces(goal, BUDGET)
            .unwrap()
            .into_iter()
            .filter(|t| constraints.iter().all(|c| satisfies(t, c)))
            .collect();
        assert_eq!(got, want, "constraints {constraints:?} on goal {goal}");
    }

    #[test]
    fn paper_example_after_definition_5_1() {
        // Apply(∇β, γ ⊗ (α ∨ β ∨ η) ⊗ δ) = γ ⊗ β ⊗ δ
        let t = seq(vec![
            g("gamma"),
            or(vec![g("alpha"), g("beta"), g("eta")]),
            g("delta"),
        ]);
        let result = apply_must(sym("beta"), &t);
        assert_eq!(result, seq(vec![g("gamma"), g("beta"), g("delta")]));
    }

    #[test]
    fn paper_example_negative_primitive() {
        // Apply(¬∇β, γ ⊗ (α ∨ β ∨ η) ⊗ δ) = γ ⊗ (α ∨ η) ⊗ δ
        let t = seq(vec![
            g("gamma"),
            or(vec![g("alpha"), g("beta"), g("eta")]),
            g("delta"),
        ]);
        let result = apply_must_not(sym("beta"), &t);
        assert_eq!(
            result,
            seq(vec![g("gamma"), or(vec![g("alpha"), g("eta")]), g("delta")])
        );
    }

    #[test]
    fn must_of_absent_event_is_nopath() {
        let t = seq(vec![g("a"), g("b")]);
        assert_eq!(apply_must(sym("zzz"), &t), Goal::NoPath);
    }

    #[test]
    fn must_not_of_absent_event_is_identity() {
        let t = seq(vec![g("a"), or(vec![g("b"), g("c")])]);
        assert_eq!(apply_must_not(sym("zzz"), &t), t);
    }

    #[test]
    fn must_not_prunes_whole_seq_branch() {
        // Removing b kills the whole b-branch of the Or.
        let t = or(vec![seq(vec![g("a"), g("b")]), g("c")]);
        assert_eq!(apply_must_not(sym("b"), &t), g("c"));
    }

    #[test]
    fn paper_example_4_order_on_disjunction() {
        // Apply(∇α ⊗ ∇β, γ ∨ (β ⊗ α)) = receive(ξ) ⊗ β ⊗ α ⊗ send(ξ)
        // (a knot — detected later by Excise).
        let t = or(vec![g("gamma"), seq(vec![g("beta"), g("alpha")])]);
        let mut ch = ChannelAlloc::new();
        let result = apply_order(sym("alpha"), sym("beta"), &t, &mut ch);
        let xi = Channel(0);
        assert_eq!(
            result,
            seq(vec![
                Goal::Receive(xi),
                g("beta"),
                g("alpha"),
                Goal::Send(xi)
            ])
        );
    }

    #[test]
    fn paper_example_4_order_on_concurrence() {
        // Apply(∇α ⊗ ∇β, α | β | ρ) = (α ⊗ send ξ) | (receive ξ ⊗ β) | ρ
        let t = conc(vec![g("alpha"), g("beta"), g("rho")]);
        let mut ch = ChannelAlloc::new();
        let result = apply_order(sym("alpha"), sym("beta"), &t, &mut ch);
        let xi = Channel(0);
        assert_eq!(
            result,
            conc(vec![
                seq(vec![g("alpha"), Goal::Send(xi)]),
                seq(vec![Goal::Receive(xi), g("beta")]),
                g("rho"),
            ])
        );
    }

    use crate::goal::conc;

    #[test]
    fn order_semantics_on_concurrent_goal() {
        let t = conc(vec![g("a"), g("b"), g("c")]);
        assert_apply_equiv(&[Constraint::order("a", "b")], &t);
    }

    #[test]
    fn must_semantics_on_nested_goal() {
        let t = seq(vec![
            g("s"),
            or(vec![seq(vec![g("a"), g("b")]), g("c")]),
            g("t"),
        ]);
        assert_apply_equiv(&[Constraint::must("b")], &t);
        assert_apply_equiv(&[Constraint::must_not("c")], &t);
        assert_apply_equiv(&[Constraint::must("c")], &t);
    }

    #[test]
    fn klein_order_semantics() {
        let t = conc(vec![or(vec![g("a"), g("x")]), or(vec![g("b"), g("y")])]);
        assert_apply_equiv(&[Constraint::klein_order("a", "b")], &t);
    }

    #[test]
    fn klein_exists_semantics() {
        let t = conc(vec![or(vec![g("a"), g("x")]), or(vec![g("b"), g("y")])]);
        assert_apply_equiv(&[Constraint::klein_exists("a", "b")], &t);
    }

    #[test]
    fn multiple_constraints_compose() {
        let t = conc(vec![
            or(vec![g("a"), g("x")]),
            g("b"),
            or(vec![g("c"), g("y")]),
        ]);
        assert_apply_equiv(
            &[Constraint::klein_order("a", "b"), Constraint::must_not("y")],
            &t,
        );
    }

    #[test]
    fn unsatisfiable_combination_yields_nopath() {
        let t = seq(vec![g("a"), g("b")]);
        let compiled = apply(&[Constraint::must("a"), Constraint::must_not("a")], &t);
        assert_eq!(compiled, Goal::NoPath);
    }

    #[test]
    fn order_within_seq_already_satisfied() {
        // a ⊗ b already satisfies a<b; compiled goal should keep exactly
        // that trace (with channel plumbing added).
        let t = seq(vec![g("a"), g("b")]);
        assert_apply_equiv(&[Constraint::order("a", "b")], &t);
    }

    #[test]
    fn order_against_seq_is_nopath_after_traces() {
        // b ⊗ a cannot satisfy a<b: the compiled goal has no valid traces
        // (Excise would rewrite it to ¬path).
        let t = seq(vec![g("b"), g("a")]);
        let compiled = apply(&[Constraint::order("a", "b")], &t);
        assert!(event_traces(&compiled, BUDGET).unwrap().is_empty());
    }

    #[test]
    fn isolation_is_preserved() {
        let t = conc(vec![isolated(seq(vec![g("a"), g("b")])), g("c")]);
        assert_apply_equiv(&[Constraint::must("a")], &t);
        let compiled = apply(&[Constraint::must("a")], &t);
        assert!(format!("{compiled}").contains("iso("));
    }

    #[test]
    fn channel_allocator_fresh_for_goal() {
        let goal = seq(vec![Goal::Send(Channel(5)), g("a")]);
        let mut ch = ChannelAlloc::fresh_for(&goal);
        assert_eq!(ch.fresh(), Channel(6));
        assert_eq!(ch.fresh(), Channel(7));
    }

    #[test]
    fn channel_allocator_is_fresh_beside_ids_at_the_top_of_u32() {
        // Text can name any id; `max + 1` used to wrap (release) or
        // overflow (debug) here. The longest free run is what is owned.
        let top = seq(vec![Goal::Send(Channel(u32::MAX)), g("a")]);
        let mut ch = ChannelAlloc::fresh_for(&top);
        assert_eq!(ch.fresh(), Channel(0));
        let ends = seq(vec![Goal::Send(Channel(0)), Goal::Send(Channel(u32::MAX))]);
        let mut ch = ChannelAlloc::fresh_for(&ends);
        assert_eq!(ch.reserve(3).fresh(), Channel(1));
        assert_eq!(ch.fresh(), Channel(4));
        let low = seq(vec![Goal::Send(Channel(7)), Goal::Send(Channel(1 << 31))]);
        assert_eq!(
            ChannelAlloc::fresh_for(&low).fresh(),
            Channel((1 << 31) + 1)
        );
        // And `Apply` through it: the order's channel is a new one.
        let goal = conc(vec![
            g("a"),
            seq(vec![Goal::Send(Channel(u32::MAX)), g("b")]),
        ]);
        let compiled = apply(&[Constraint::order("a", "b")], &goal);
        assert_eq!(
            compiled.channels(),
            [Channel(0), Channel(u32::MAX)].into_iter().collect()
        );
    }

    #[test]
    #[should_panic(expected = "channel ids exhausted")]
    fn a_used_up_range_panics_instead_of_wrapping() {
        let mut range = ChannelAlloc::new().reserve(1);
        range.fresh();
        range.fresh();
    }

    #[test]
    fn reflexive_order_is_nopath() {
        let t = conc(vec![g("a"), g("b")]);
        let mut ch = ChannelAlloc::new();
        assert_eq!(apply_order(sym("a"), sym("a"), &t, &mut ch), Goal::NoPath);
    }

    #[test]
    fn size_growth_is_bounded_by_d_per_constraint() {
        // A chain of 6 binary choices; one Klein constraint (d = 3) at most
        // triples the goal plus constant sync overhead.
        let t = seq((0..6)
            .map(|i| or(vec![g(&format!("l{i}")), g(&format!("r{i}"))]))
            .collect());
        let base = t.size();
        let compiled = apply(&[Constraint::klein_order("l0", "l5")], &t);
        assert!(
            compiled.size() <= 3 * base + 24,
            "compiled size {} vs base {}",
            compiled.size(),
            base
        );
    }

    #[test]
    fn apply_shares_untouched_subtrees() {
        // Rewrites rebuild only the spine: syncing `a < b` through
        // `(big ⊗ x) | (big ⊗ a)` must return the untouched `big ⊗ x`
        // branch — and the shared `big` prefix inside the rewritten
        // branch — as the *same* Arc allocations, not copies.
        let big = conc((0..8).map(|i| g(&format!("p{i}"))).collect());
        let left = seq(vec![big.clone(), g("x")]);
        let right = seq(vec![big.clone(), g("a")]);
        let goal = conc(vec![left.clone(), right]);
        let rewritten = sync(sym("a"), sym("b"), Channel(99), &goal);
        let Goal::Conc(branches) = &rewritten else {
            panic!("expected a Conc, got {rewritten}");
        };
        let (Goal::Seq(got), Goal::Seq(want)) = (&branches[0], &left) else {
            panic!("expected Seq branches");
        };
        assert!(
            std::sync::Arc::ptr_eq(got, want),
            "untouched branch was rebuilt"
        );
        let (Goal::Seq(touched), Goal::Conc(orig_big)) = (&branches[1], &big) else {
            panic!("expected Seq branch and Conc prefix");
        };
        let Goal::Conc(inner_big) = &touched[0] else {
            panic!(
                "expected shared prefix inside rewritten branch, got {}",
                touched[0]
            );
        };
        assert!(
            std::sync::Arc::ptr_eq(inner_big, orig_big),
            "shared prefix was rebuilt"
        );
    }

    /// The DNF a 3-SAT reduction reaches after its first few clauses: a
    /// `∨` of `|`-terms, more of them than the inline dedup scan takes.
    fn sat_dnf() -> (Goal, Vec<Constraint>) {
        let (goal, clauses) = crate::gen::sat_to_workflow(&crate::gen::random_3sat(5, 8, 12));
        let dnf = apply(&clauses[..4], &goal);
        let Goal::Or(terms) = &dnf else {
            panic!("expected a DNF, got {dnf}");
        };
        assert!(terms.len() > 16, "only {} terms", terms.len());
        (dnf, clauses)
    }

    #[test]
    fn must_of_a_forced_event_is_the_input_itself() {
        // α already chosen in a lane: the term is its own rewrite.
        let term = conc(vec![g("a"), or(vec![g("b"), g("c")]), g("d")]);
        assert!(apply_must(sym("a"), &term).ptr_eq(&term));
        // … and so is a whole DNF in which every term forces α.
        let (dnf, _) = sat_dnf();
        let forced = apply_must(sym("x0_t"), &dnf);
        assert!(matches!(forced, Goal::Or(_)), "got {forced}");
        assert!(apply_must(sym("x0_t"), &forced).ptr_eq(&forced));
        assert!(apply(&[Constraint::must("x0_t")], &forced).ptr_eq(&forced));
    }

    #[test]
    fn reapplying_a_clause_hands_back_the_terms_it_already_forced() {
        // Applying a clause to its own output is not the identity on the
        // `∨` (a term that forces one literal also spawns the variants
        // forcing the others), but every term that survives unchanged is
        // the same allocation — the outer dedup compares pointers.
        let (dnf, clauses) = sat_dnf();
        let once = apply(&clauses[4..5], &dnf);
        let twice = apply(&clauses[4..5], &once);
        let (Goal::Or(before), Goal::Or(after)) = (&once, &twice) else {
            panic!("expected DNFs, got {once} and {twice}");
        };
        for term in before.iter() {
            let kept = after
                .iter()
                .find(|t| *t == term)
                .unwrap_or_else(|| panic!("`{term}` satisfies the clause and must survive"));
            assert!(kept.ptr_eq(term), "`{term}` was rebuilt");
        }
        // From the second application on, nothing is left to add.
        assert_eq!(apply(&clauses[4..5], &twice), twice);
    }

    #[test]
    fn serial_three_event_constraint_semantics() {
        let t = conc(vec![g("a"), g("b"), g("c")]);
        assert_apply_equiv(
            &[Constraint::serial(vec![sym("a"), sym("b"), sym("c")])],
            &t,
        );
    }

    #[test]
    fn negated_constraint_semantics() {
        let t = conc(vec![g("a"), g("b")]);
        assert_apply_equiv(&[Constraint::not(Constraint::order("a", "b"))], &t);
    }
}
