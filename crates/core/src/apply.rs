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
//! Four layers, following Definitions 5.1, 5.3, and 5.5, and three levers
//! in front of them (5 to 7):
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
//! 3. **Runs.** A conjunction of basics is *defined* as their sequential
//!    composition (Definition 5.5; `apply_fold` below), which walks the
//!    goal three times per order. On a unique-event goal the composition
//!    has a closed form, and that is what runs: one *restriction* walk for
//!    every `∇`/`¬∇` of the run at once, the channels drawn in list order,
//!    one *sync* walk that dresses each event in all its channels. A run
//!    is a maximal stretch of constraints whose normal form has a single
//!    disjunct, or one conjunct of a wider normal form — `N` order
//!    constraints cost two walks, not `3N`, which is what makes the
//!    order-only fragment (Proposition 4.1) linear in time as well as in
//!    size.
//! 4. **General constraints** in the normal form of Corollary 3.5 compile
//!    by `Apply(C₁ ∨ C₂, T) = Apply(C₁, T) ∨ Apply(C₂, T)` and sequential
//!    composition over `∧` — yielding the `O(d^N · |T|)` size bound of
//!    Theorem 5.11. That bound is a worst case, and the rule is applied so
//!    that it is not the typical one: when `T` is itself a `∨` (it is,
//!    from the first such constraint on) the constraint meets its
//!    alternatives one at a time, `Apply(C, A₁ ∨ … ∨ Aₘ) = ∨ᵢ Apply(C, Aᵢ)`,
//!    and an alternative `A` that one disjunct hands back unchanged —
//!    `A ⊨ Cᵢ`, so `A ∧ (C₁ ∨ C₂) ≡ A` — is the answer for itself. The
//!    literal rule would keep `A` *and* `Apply(C₂, A)`, a subset of it, and
//!    pay every later constraint on both. The result is the literal
//!    rule's, up to such absorbed alternatives: the same executions, a
//!    subset of its alternatives, the same channel numbers.
//! 5. **Order.** Every single-disjunct constraint joins one run, in list
//!    order, applied first at the root; the wide normal forms follow,
//!    stably sorted by the pre-order position of the last event each names,
//!    so each meets the alternatives of the ones before it while they are
//!    few. A list of runs alone compiles node for node as written.
//! 6. **Scope.** By §7, `Apply(C, x₁ ⋯ xₙ) = x₁ ⋯ Apply(C, xᵢ) ⋯ xₙ` when
//!    `xᵢ` holds every event `C` names, for `⊗`, `|` and `⊙` — not `∨`,
//!    whose other branches `C` may rule out. Each wide normal form is
//!    applied at the lowest subgoal reached through those alone that holds
//!    its events — a contiguous run of a `⊗`'s children or a subset of a
//!    `|`'s, regrouped — its positions read off the goal's one layout
//!    (`redundancy.rs`), which holds every event occurrence and channel
//!    operation; constraints whose scopes overlap share the merged one,
//!    and a scope widens until it splits no `send`/`receive` pair, so
//!    `Excise` takes a scope's `∨` apart where it stands. Disjoint scopes
//!    cost `Σ d^{Nᵢ}·|xᵢ|` instead of `d^{ΣNᵢ}·|G|`, and the root `∨`
//!    goes. The output is trace-equivalent to the unscoped fold, not
//!    node-identical (`tests/scope_referee.rs` holds it to it with
//!    `ctr_baselines::equivalent`).
//! 7. **Implied.** A wide normal form that its own scope `S` already
//!    satisfies — no disjunct of its negation is consistent with `S`,
//!    Theorem 5.10, asked of the graph fragment's selection search over
//!    the same layout — is not applied: only `⊗`, `|` and `⊙` lie above
//!    `S`, which holds every occurrence of its events, so `Apply(C, S) =
//!    S`. It joins no group and its channel ranges are still set aside. A
//!    scope outside the fragment (`⊙`, `◇`, channels, conditions) is
//!    applied as before; runs are never asked, so a list of runs still
//!    compiles node for node (`tests/implied_referee.rs`).
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
//! runs on the caller's thread. A primitive asks the table at every
//! connective it descends through; a run asks once, at the root, and its
//! two walks are plain recursion; a normal form of several disjuncts asks
//! once at its scope and then per alternative. What is independent in `Apply(C, G)` —
//! the `d ≤ 3` disjuncts of one normal form — is too little to repay a
//! thread (measured: never ahead, up to 70 % behind), so this crate spawns
//! none; the cost lever is which constraints meet, `O(d^N · |G|)`.

use crate::constraints::{Basic, Conjunct, Constraint, NormalForm};
use crate::excise::ExciseResult;
use crate::goal::{conc, event_fp_bits, isolated, or, seq, Channel, Goal};
use crate::redundancy::Layout;
use crate::symbol::Symbol;
use std::borrow::Borrow;

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
    /// an order draws its channel freshly per compilation.
    Sync(Symbol, Symbol, u32),
    /// A whole run: the id [`Table::run_id`] gave its basics, and the
    /// first channel it draws (0 when it holds no order). The channels of
    /// a run are consecutive, so the two fix every one of them.
    Run(u32, u32),
    /// A whole normal form of two or more disjuncts: the id
    /// [`Table::normal_id`] gave it, and the first channel set aside for
    /// its disjuncts (0 when none holds an order).
    Normal(u32, u32),
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

    /// How a normal form is handed out: the table's own copy, or a share
    /// of the recorded one — never a clone per question.
    type Normal: Borrow<NormalForm>;

    /// [`Constraint::normalize`], possibly recorded.
    fn normalize(&mut self, constraint: &Constraint) -> Self::Normal;

    /// The id that stands for the basics of `run` in [`Op::Run`].
    fn run_id(&mut self, run: &[Basic]) -> u32;

    /// The id that stands for the disjuncts of `nf` in [`Op::Normal`].
    fn normal_id(&mut self, nf: &NormalForm) -> u32;
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

    type Normal = NormalForm;

    #[inline]
    fn normalize(&mut self, constraint: &Constraint) -> NormalForm {
        constraint.normalize()
    }

    /// Nothing is keyed, so every run may share an id.
    #[inline]
    fn run_id(&mut self, _: &[Basic]) -> u32 {
        0
    }

    #[inline]
    fn normal_id(&mut self, _: &NormalForm) -> u32 {
        0
    }
}

/// The channels a run draws unless it comes to `¬path`: one per order.
fn order_budget(run: &[Basic]) -> u32 {
    let orders = run.iter().filter(|b| matches!(b, Basic::Order(..)));
    u32::try_from(orders.count()).expect("more orders than channel ids")
}

/// Sets aside a range for each disjunct of `nf`, in order, whatever
/// becomes of them.
fn set_aside(nf: &NormalForm, channels: &mut ChannelAlloc) {
    for conj in &nf.disjuncts {
        channels.reserve(order_budget(conj));
    }
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

/// `Apply` of the basics of `run` one at a time — Definitions 5.1, 5.3
/// and 5.5 as they are written, each application taking the output of the
/// one before. This is what a run is defined to equal: [`apply_run`] is
/// its closed form on unique-event goals, falls back to it on the others,
/// and is held to it by the tests.
fn apply_fold(run: &[Basic], goal: &Goal, channels: &mut ChannelAlloc) -> Goal {
    let mut current = goal.clone();
    for basic in run {
        current = match *basic {
            Basic::Must(e) => apply_must(e, &current),
            Basic::MustNot(e) => apply_must_not(e, &current),
            // ∇α ⊗ ∇α requires two occurrences of α: unsatisfiable on
            // unique-event goals.
            Basic::Order(a, b) if a == b => Goal::NoPath,
            Basic::Order(a, b) => {
                let both = apply_must(a, &apply_must(b, &current));
                if both.is_nopath() {
                    Goal::NoPath
                } else {
                    sync(a, b, channels.fresh(), &both)
                }
            }
        };
        if current.is_nopath() {
            return Goal::NoPath;
        }
    }
    current
}

/// Event-index pruning for a walk that serves several events at once:
/// false proves that `goal` mentions none of `events`, whose fingerprints'
/// union is `union`. One test of the union clears most subgoals when the
/// events are few; a subgoal it does not clear is asked about each event's
/// own two bits — as precise as the single-event rules — unless it is so
/// small that walking it costs no more than asking.
fn may_mention_any(
    goal: &Goal,
    union: u64,
    mut events: impl ExactSizeIterator<Item = Symbol>,
) -> bool {
    goal.events_fingerprint() & union != 0
        && (goal.size() <= events.len() || events.any(|e| goal.may_mention(e)))
}

/// What a run asks of one event: `∇` (an order asks it of both its
/// events), `¬∇`, or — a contradiction the goal answers with `¬path` —
/// both.
struct Demand {
    event: Symbol,
    must: bool,
    must_not: bool,
}

/// The events a run names, each once, sorted for the lookup every atom of
/// the goal makes. An event's position is its *slot*.
struct Demands {
    events: Vec<Demand>,
    /// How many of them carry `∇`.
    musts: usize,
    /// Union of the events' fingerprints, for [`may_mention_any`].
    fingerprint: u64,
}

impl Demands {
    /// `None` for a run holding `∇α ⊗ ∇α`, which no unique-event goal
    /// satisfies.
    fn of(run: &[Basic]) -> Option<Demands> {
        let mut events = Vec::with_capacity(2 * run.len());
        let mut ask = |event, must| {
            events.push(Demand {
                event,
                must,
                must_not: !must,
            })
        };
        for basic in run {
            match *basic {
                Basic::Must(e) => ask(e, true),
                Basic::MustNot(e) => ask(e, false),
                Basic::Order(a, b) if a == b => return None,
                Basic::Order(a, b) => {
                    ask(a, true);
                    ask(b, true);
                }
            }
        }
        events.sort_unstable_by_key(|d| d.event);
        events.dedup_by(|again, first| {
            let same = again.event == first.event;
            if same {
                first.must |= again.must;
                first.must_not |= again.must_not;
            }
            same
        });
        Some(Demands {
            musts: events.iter().filter(|d| d.must).count(),
            fingerprint: events.iter().fold(0, |fp, d| fp | event_fp_bits(d.event)),
            events,
        })
    }

    fn slot(&self, event: Symbol) -> Option<usize> {
        self.events.binary_search_by_key(&event, |d| d.event).ok()
    }
}

/// The restriction walk: every `∇`/`¬∇` of a run in one pass over the
/// goal.
///
/// A node's answer is its rewrite and the `∇`-events that occur in it
/// (outside `◇`, where nothing occurs). An atom under `¬∇` is `¬path`; in
/// a `⊗`/`|` node occurs what occurs in its children; an `∨` keeps exactly
/// the branches in which everything occurs that occurs in any — a
/// `∇`-event of the `∨` cannot occur beside it, the goal being
/// unique-event, so a branch without it has no execution with it. In the
/// root, all of them must occur. Nodes are rebuilt like [`map_connective`]
/// rebuilds them, so on a goal in the smart constructors' canonical form
/// the result is the goal [`apply_fold`] reaches one primitive at a time.
///
/// The sets are not built: `seen` holds the slots met so far, a node's
/// share being the tail pushed since it was entered, once each. The
/// vectors outlive a walk, so the alternatives of a `∨` a run meets one at
/// a time are restricted in the same ones.
struct Restriction {
    demands: Demands,
    seen: Vec<usize>,
    /// Per slot, the last [`Restriction::once_each`] that met it.
    stamps: Vec<u64>,
    stamp: u64,
    /// Rewritten `∨`-branches awaiting their verdict, with the length of
    /// each one's share; a stack, one frame per open `∨`.
    branches: Vec<(Goal, usize)>,
    /// A `∇`-event occurs in two children of a `⊗`/`|`: the goal is not
    /// unique-event and the closed form does not hold.
    shared: bool,
}

impl Restriction {
    fn new(demands: Demands) -> Restriction {
        Restriction {
            seen: Vec::new(),
            stamps: vec![0; demands.events.len()],
            stamp: 0,
            branches: Vec::new(),
            shared: false,
            demands,
        }
    }

    /// The restriction of `goal`, or `None` where the closed form does not
    /// hold; `¬path` unless every `∇`-event occurs.
    fn of(&mut self, goal: &Goal) -> Option<Goal> {
        self.seen.clear();
        self.shared = false;
        let restricted = self.rewrite(goal);
        if self.shared {
            None
        } else if self.seen.len() == self.demands.musts {
            Some(restricted)
        } else {
            Some(Goal::NoPath)
        }
    }

    fn rewrite(&mut self, goal: &Goal) -> Goal {
        // A subgoal naming none of the events is its own restriction.
        let events = self.demands.events.iter().map(|d| d.event);
        if !may_mention_any(goal, self.demands.fingerprint, events) {
            return goal.clone();
        }
        match goal {
            Goal::Atom(a) => {
                let Some(slot) = a.as_event().and_then(|e| self.demands.slot(e)) else {
                    return goal.clone();
                };
                if self.demands.events[slot].must_not {
                    return Goal::NoPath;
                }
                self.seen.push(slot);
                goal.clone()
            }
            Goal::Seq(_) | Goal::Conc(_) => {
                let entered = self.seen.len();
                let out = map_connective(goal, |g| self.rewrite(g));
                if self.seen.len() - entered > 1 && self.once_each(entered) {
                    self.shared = true;
                }
                out
            }
            Goal::Or(gs) => {
                let entered = self.seen.len();
                let frame = self.branches.len();
                for g in gs.iter() {
                    let before = self.seen.len();
                    let out = self.rewrite(g);
                    self.branches.push((out, self.seen.len() - before));
                }
                self.once_each(entered);
                let all = self.seen.len() - entered;
                let untouched = (self.branches[frame..].iter().zip(gs.iter()))
                    .all(|((out, share), g)| *share == all && out.ptr_eq(g));
                if untouched {
                    self.branches.truncate(frame);
                    return goal.clone();
                }
                let complete = self.branches.drain(frame..).filter(|(_, n)| *n == all);
                or_of(complete.map(|(out, _)| out))
            }
            Goal::Isolated(_) => map_connective(goal, |g| self.rewrite(g)),
            // Nothing under ◇ occurs, and the other leaves name no event.
            _ => goal.clone(),
        }
    }

    /// Leaves each slot of `seen[from..]` once, in the order first met;
    /// true if one was there twice.
    fn once_each(&mut self, from: usize) -> bool {
        self.stamp += 1;
        let mut kept = from;
        for i in from..self.seen.len() {
            let slot = self.seen[i];
            if std::mem::replace(&mut self.stamps[slot], self.stamp) != self.stamp {
                self.seen[kept] = slot;
                kept += 1;
            }
        }
        let twice = kept < self.seen.len();
        self.seen.truncate(kept);
        twice
    }
}

/// One end of an order of a run: `event` sends on, or receives from,
/// `channel`.
struct Link {
    event: Symbol,
    send: bool,
    channel: Channel,
}

/// Draws a channel per order of `run`, in list order, and groups the ends
/// by event: `receive(ξ…)` in list order, then `send(ξ…)` in reverse list
/// order — the order in which syncing one constraint at a time stacks them
/// around the event, each new `receive` going directly before it and each
/// new `send` directly after.
fn draw_links(run: &[Basic], channels: &mut ChannelAlloc) -> Vec<Link> {
    let mut links = Vec::with_capacity(2 * order_budget(run) as usize);
    for basic in run {
        if let Basic::Order(a, b) = *basic {
            let channel = channels.fresh();
            links.extend([(a, true), (b, false)].map(|(event, send)| Link {
                event,
                send,
                channel,
            }));
        }
    }
    // Channels of one allocator ascend in drawing order.
    links.sort_unstable_by_key(|l| {
        let Channel(xi) = l.channel;
        (l.event, l.send, if l.send { !xi } else { xi })
    });
    links
}

/// The sync walk: every `sync(α<β, ·)` of a run in one pass — each event
/// becomes `receive(ξ…) ⊗ event ⊗ send(ξ…)` over its `links`.
fn sync_all(links: &[Link], fingerprint: u64, goal: &Goal) -> Goal {
    if !may_mention_any(goal, fingerprint, links.iter().map(|l| l.event)) {
        return goal.clone();
    }
    let Goal::Atom(a) = goal else {
        return map_connective(goal, |g| sync_all(links, fingerprint, g));
    };
    let Some(e) = a.as_event() else {
        return goal.clone();
    };
    let around = &links[links.partition_point(|l| l.event < e)..];
    let around = &around[..around.partition_point(|l| l.event == e)];
    let (receives, sends) = around.split_at(around.partition_point(|l| !l.send));
    let mut parts = Vec::with_capacity(around.len() + 1);
    parts.extend(receives.iter().map(|l| Goal::Receive(l.channel)));
    parts.push(goal.clone());
    parts.extend(sends.iter().map(|l| Goal::Send(l.channel)));
    seq(parts)
}

/// A run at the channels it draws, made ready on first use to rewrite any
/// number of goals: what depends on the run alone — the demands, the
/// channels' ends, the walk's vectors — is built once, however many
/// alternatives of a `∨` the run meets.
struct Run<'a> {
    basics: &'a [Basic],
    /// Owns the channels the run draws, from the first.
    channels: ChannelAlloc,
    plan: Option<Box<Plan>>,
}

/// The closed form of a run: one restriction walk, one sync walk.
struct Plan {
    /// `None` for a run holding `∇α ⊗ ∇α`.
    restriction: Option<Restriction>,
    links: Vec<Link>,
    /// Union of the linked events' fingerprints.
    fingerprint: u64,
}

impl Run<'_> {
    /// `Apply` of the run, untabled: the closed form of [`apply_fold`].
    fn apply(&mut self, goal: &Goal) -> Goal {
        let plan = self.plan.get_or_insert_with(|| {
            let links = draw_links(self.basics, &mut self.channels.clone());
            Box::new(Plan {
                restriction: Demands::of(self.basics).map(Restriction::new),
                fingerprint: (links.iter()).fold(0, |fp, l| fp | event_fp_bits(l.event)),
                links,
            })
        });
        let Some(restriction) = &mut plan.restriction else {
            return Goal::NoPath;
        };
        match restriction.of(goal) {
            Some(restricted) => sync_all(&plan.links, plan.fingerprint, &restricted),
            None => apply_fold(self.basics, goal, &mut self.channels.clone()),
        }
    }
}

/// How a run is asked of a goal through a table, settled once for any
/// number of goals. A run of one primitive is that primitive, tabled per
/// subgoal as ever. Any other run is *one* answer of the table, keyed at
/// the root subgoal by its basics and the first channel it draws; its two
/// walks ask the table nothing, so a replayed run is one probe and a
/// changed one is two linear walks that leave no per-step entries behind.
enum Asked<'a> {
    /// The empty conjunct is the trivially-true constraint: a goal is its
    /// own compilation (shared, not copied).
    Trivial,
    Must(Symbol),
    MustNot(Symbol),
    Keyed(Op, Run<'a>),
}

impl<'a> Asked<'a> {
    /// `run`, drawing its channels from the start of `channels`.
    fn new<T: Table>(table: &mut T, run: &'a [Basic], channels: ChannelAlloc) -> Asked<'a> {
        match *run {
            [] => Asked::Trivial,
            [Basic::Must(e)] => Asked::Must(e),
            [Basic::MustNot(e)] => Asked::MustNot(e),
            _ => {
                // Truncating: `next` is 2³² once the ids are used up, and
                // then the key only has to name *an* answer — drawing, or
                // `reserve` after a hit, panics.
                let drawn = order_budget(run) != 0;
                let first = if drawn { channels.next as u32 } else { 0 };
                let run = Run {
                    basics: run,
                    channels,
                    plan: None,
                };
                Asked::Keyed(Op::Run(table.run_id(run.basics), first), run)
            }
        }
    }

    fn of<T: Table>(&mut self, table: &mut T, goal: &Goal) -> Goal {
        match self {
            Asked::Trivial => goal.clone(),
            Asked::Must(e) => apply_must_in(table, *e, goal),
            Asked::MustNot(e) => apply_must_not_in(table, *e, goal),
            Asked::Keyed(op, run) => table.rewrite(*op, goal, |_| run.apply(goal)),
        }
    }
}

/// [`apply_conjunct`] through `table`; see [`Asked`].
pub(crate) fn apply_run_in<T: Table>(
    table: &mut T,
    run: &[Basic],
    goal: &Goal,
    channels: &mut ChannelAlloc,
) -> Goal {
    let out = Asked::new(table, run, channels.clone()).of(table, goal);
    if !out.is_nopath() {
        channels.reserve(order_budget(run));
    }
    out
}

/// [`apply_normal_form`] through `table`: `Apply(C₁ ∨ … ∨ C_d, ·)` one
/// alternative of the goal at a time,
/// `Apply(C, A₁ ∨ … ∨ Aₘ) = ∨ᵢ Apply(C, Aᵢ)` (a goal that is no `∨` is
/// its own single alternative).
///
/// An alternative that some disjunct hands back unchanged satisfies that
/// disjunct on every execution, so `A ∧ (C₁ ∨ … ∨ C_d) ≡ A`
/// (Propositions 5.2/5.4/5.6): it is the answer for itself as it stands,
/// the disjuncts after it are not asked and what the ones before it built
/// — subsets of `A` — is dropped. Only an alternative no disjunct holds on
/// is multiplied by `d`. The result is what the literal rule
/// `Apply(C₁, T) ∨ … ∨ Apply(C_d, T)` yields less those subsets, and `T`
/// itself when every alternative was kept.
///
/// The disjuncts are independent — each rewrites the *same* alternative —
/// and each draws its channels from a range set aside for it up front (see
/// [`ChannelAlloc::reserve`]), the same for every alternative, like one
/// sync walk over the whole `∨` uses one channel. The ranges are taken
/// whatever becomes of the disjuncts, so the numbering of what follows is
/// a function of the constraint list alone.
///
/// The whole normal form is one answer of the table at the subgoal it
/// is asked of (its scope, under [`apply_all`]), keyed like a run by its
/// interned disjuncts and the first channel set aside; below it every
/// alternative is asked through the keys of [`Asked`], so an edit that
/// changes a few alternatives recomputes those few.
pub(crate) fn apply_normal_form_in<T: Table>(
    table: &mut T,
    nf: &NormalForm,
    goal: &Goal,
    channels: &mut ChannelAlloc,
) -> Goal {
    if let [only] = nf.disjuncts.as_slice() {
        return apply_run_in(table, only, goal, channels);
    }
    let ranges = channels.clone();
    set_aside(nf, channels);
    // Truncating, as in a run's key.
    let drawn = channels.next != ranges.next;
    let first = if drawn { ranges.next as u32 } else { 0 };
    let op = Op::Normal(table.normal_id(nf), first);
    table.rewrite(op, goal, |table| {
        let alternatives = match goal {
            Goal::Or(gs) => &gs[..],
            single => std::slice::from_ref(single),
        };
        let mut ranges = ranges.clone();
        let mut disjuncts: Vec<Asked> = (nf.disjuncts.iter())
            .map(|conj| Asked::new(table, conj, ranges.reserve(order_budget(conj))))
            .collect();
        // As in `map_connective`: nothing is collected until an
        // alternative comes back as anything but itself.
        let mut out: Option<Vec<Goal>> = None;
        let mut built = Vec::new();
        for (i, alternative) in alternatives.iter().enumerate() {
            let holds = disjuncts.iter_mut().any(|disjunct| {
                let rewritten = disjunct.of(table, alternative);
                // The same allocation, when the rule ran; a table may hand
                // back an equal goal it recorded for an earlier copy of
                // the alternative (`==` asks pointer and hash first).
                let same = rewritten == *alternative;
                if !same && !rewritten.is_nopath() {
                    built.push(rewritten);
                }
                same
            });
            if holds {
                built.clear();
                if let Some(out) = &mut out {
                    out.push(alternative.clone());
                }
            } else {
                out.get_or_insert_with(|| {
                    let mut kept = Vec::with_capacity(alternatives.len() + built.len());
                    kept.extend_from_slice(&alternatives[..i]);
                    kept
                })
                .append(&mut built);
            }
        }
        out.map_or_else(|| goal.clone(), or)
    })
}

/// [`apply_all`] through `table`: Order, then Scope (see the module doc).
/// Every constraint whose normal form has one disjunct joins one run, in
/// list order, applied at the root first — so a list of runs alone is two
/// walks however long it is. The wide ones follow in [`Scopes`]' order,
/// each at its scope, drawing channels in that order from `channels`.
/// With a table that records, the run and each scope's wide constraints
/// are asked of the subgoal they rewrite, so an edit replays what it
/// leaves alone.
pub(crate) fn apply_all_in<T: Table>(
    table: &mut T,
    constraints: &[Constraint],
    goal: &Goal,
    channels: &mut ChannelAlloc,
) -> Goal {
    let mut run: Vec<Basic> = Vec::new();
    let mut wide: Vec<T::Normal> = Vec::new();
    for c in constraints {
        let nf = table.normalize(c);
        match nf.borrow().disjuncts.as_slice() {
            [only] => run.extend_from_slice(only),
            _ => wide.push(nf),
        }
    }
    let current = apply_run_in(table, &run, goal, channels);
    if wide.is_empty() || current.is_nopath() {
        return current;
    }
    let wide: Vec<&NormalForm> = wide.iter().map(Borrow::borrow).collect();
    let scopes = Scopes::of(&current, &wide);
    let ins: Vec<Goal> = (scopes.groups.iter())
        .map(|group| group.scope.subgoal(&current))
        .collect();
    let mut outs = ins.clone();
    // A constraint naming no event of the goal holds on all of its
    // executions or on none, as on the empty one.
    let mut nothing = Goal::Empty;
    for &(k, target) in &scopes.order {
        let out = match target {
            Target::Scope(g) => &mut outs[g],
            Target::Nothing => &mut nothing,
            Target::Implied => {
                set_aside(wide[k], channels);
                continue;
            }
        };
        *out = apply_normal_form_in(table, wide[k], out, channels);
        if out.is_nopath() {
            // Only `⊗`, `|` and `⊙` lie above a scope.
            return Goal::NoPath;
        }
    }
    // A scope its constraints left as it was stays as it stood. A table
    // may hand back an equal goal it recorded for an earlier copy, so
    // "as it was" is `==`, not the same allocation.
    let mut done: Vec<(&Scope, Goal)> = (scopes.groups.iter().zip(ins).zip(outs))
        .filter(|((_, before), after)| after != before)
        .map(|((group, _), after)| (&group.scope, after))
        .collect();
    done.sort_unstable_by_key(|(scope, _)| scope.id);
    splice_scopes(&current, 0, &done)
}

// ---------------------------------------------------------------------------
// Scope and Order
// ---------------------------------------------------------------------------

/// The subgoal a group of wide constraints is applied at: the node at
/// pre-order `id`, reached from the root through `⊗`, `|` and `⊙` alone
/// along `path` — whole, or `children` of it regrouped (a contiguous run
/// of a `⊗`, a subset of a `|`). By §7, `Apply(C, x₁ ⋯ xₙ) = x₁ ⋯
/// Apply(C, xᵢ) ⋯ xₙ` when `xᵢ` holds every event `C` names, and so is it
/// for `|` and `⊙`; not for `∨`, whose other branches `C` may rule out.
struct Scope {
    path: Vec<u32>,
    id: u32,
    /// Ascending; empty for the whole node.
    children: Vec<u32>,
    /// The positions the scope covers: `[start, end)` intervals, ascending.
    region: Vec<(u32, u32)>,
}

impl Scope {
    /// The lowest subgoal of `goal` that holds every position of
    /// `members` (sorted, not empty) with only `⊗`, `|` and `⊙` above it.
    fn holding(goal: &Goal, members: &[u32]) -> Scope {
        let (first, last) = (members[0], members[members.len() - 1]);
        let (mut node, mut id, mut path) = (goal, 0u32, Vec::new());
        loop {
            match node {
                Goal::Seq(gs) | Goal::Conc(gs) => {
                    let mut start = id + 1;
                    let mut spans = Vec::with_capacity(gs.len());
                    for g in gs.iter() {
                        let end = start + g.size() as u32;
                        spans.push((start, end));
                        start = end;
                    }
                    let k = spans.partition_point(|&(_, end)| end <= first);
                    if last < spans[k].1 {
                        path.push(k as u32);
                        (node, id) = (&gs[k], spans[k].0);
                        continue;
                    }
                    let holds = |&(start, end): &(u32, u32)| {
                        let at = members.partition_point(|&p| p < start);
                        members.get(at).is_some_and(|&p| p < end)
                    };
                    let mut children: Vec<u32> = (0u32..)
                        .zip(&spans)
                        .filter(|(_, span)| holds(span))
                        .map(|(k, _)| k)
                        .collect();
                    if matches!(node, Goal::Seq(_)) {
                        // A run of a `⊗`: the children between are in it.
                        children = (children[0]..=children[children.len() - 1]).collect();
                    }
                    if children.len() == gs.len() {
                        break;
                    }
                    let region = children.iter().map(|&k| spans[k as usize]).collect();
                    return Scope {
                        path,
                        id,
                        children,
                        region,
                    };
                }
                Goal::Isolated(g) => {
                    path.push(0);
                    (node, id) = (g, id + 1);
                }
                _ => break,
            }
        }
        Scope {
            path,
            id,
            children: Vec::new(),
            region: vec![(id, id + node.size() as u32)],
        }
    }

    fn covers(&self, position: u32) -> bool {
        (self.region.iter()).any(|&(start, end)| start <= position && position < end)
    }

    fn overlaps(&self, other: &Scope) -> bool {
        (self.region.iter())
            .any(|&(s, e)| (other.region.iter()).any(|&(start, end)| s < end && start < e))
    }

    /// The subgoal of `goal` the scope stands for.
    fn subgoal(&self, goal: &Goal) -> Goal {
        let mut node = goal;
        for &k in &self.path {
            node = match node {
                Goal::Seq(gs) | Goal::Conc(gs) => &gs[k as usize],
                Goal::Isolated(g) => g,
                other => unreachable!("a scope's path leads through `{other}`"),
            };
        }
        let taken = |gs: &[Goal]| {
            self.children
                .iter()
                .map(|&k| gs[k as usize].clone())
                .collect()
        };
        match node {
            _ if self.children.is_empty() => node.clone(),
            Goal::Seq(gs) => seq(taken(gs)),
            Goal::Conc(gs) => conc(taken(gs)),
            other => unreachable!("children of `{other}` in a scope"),
        }
    }
}

/// Some wide constraints and the scope they share: the positions of
/// their events, and of the channels' other ends.
struct Group {
    members: Vec<u32>,
    scope: Scope,
}

impl Group {
    /// The scope of `members`, widened until it splits no channel: a
    /// `send` and its `receive` stay on one side, so `Excise` can take a
    /// scope's `∨` apart where it stands.
    fn settle(goal: &Goal, channels: &[(Channel, u32)], mut members: Vec<u32>) -> Group {
        loop {
            members.sort_unstable();
            members.dedup();
            let scope = Scope::holding(goal, &members);
            let before = members.len();
            for ops in channels.chunk_by(|a, b| a.0 == b.0) {
                if ops.iter().any(|&(_, p)| scope.covers(p)) {
                    members.extend(ops.iter().map(|&(_, p)| p).filter(|&p| !scope.covers(p)));
                }
            }
            if members.len() == before {
                return Group { members, scope };
            }
        }
    }
}

/// Where a wide constraint is applied.
#[derive(Clone, Copy)]
enum Target {
    /// At the scope of a group.
    Scope(usize),
    /// At `ε`: it names no event of the goal.
    Nothing,
    /// Nowhere: its own scope satisfies it (Theorem 5.10), so
    /// `Apply(C, S) = S`.
    Implied,
}

/// The plan for the wide constraints of a list over a goal: disjoint
/// scopes, and the order to apply the constraints in.
///
/// **Order**: stably, by the pre-order position of the last event each
/// names — the position of the rightmost lane or stage it touches — so
/// each one's product meets alternatives the ones before it left small.
/// **Scope**: each one at the lowest subgoal holding its events; scopes
/// that overlap merge into one, which takes their constraints in that
/// order. Positions are read off the goal's one [`Layout`], which holds
/// every event occurrence and channel operation exactly: a scope widened
/// by a fingerprint's false positive would have `Excise` re-expand what
/// it saved. **Implied**: a constraint of two or more disjuncts that its
/// own scope already satisfies joins no group ([`Layout::implies`], asked
/// of the same layout).
struct Scopes {
    groups: Vec<Group>,
    /// `(k, target)` per wide constraint, `k` indexing the list, in the
    /// order they apply.
    order: Vec<(usize, Target)>,
}

impl Scopes {
    fn of(goal: &Goal, wide: &[&NormalForm]) -> Scopes {
        Layout::with(goal, |layout| {
            let members: Vec<Vec<u32>> = (wide.iter())
                .map(|nf| {
                    (events_of(nf).into_iter())
                        .flat_map(|e| layout.positions(e))
                        .collect()
                })
                .collect();
            // Every constraint naming an event of the goal gets its target
            // below; the others keep `Nothing`.
            let mut order: Vec<(usize, Target)> =
                (0..wide.len()).map(|k| (k, Target::Nothing)).collect();
            order.sort_by_key(|&(k, _)| members[k].iter().max().copied());
            let mut groups: Vec<Group> = Vec::new();
            for (k, target) in &mut order {
                if members[*k].is_empty() {
                    continue;
                }
                let mut group = Group::settle(goal, layout.channels(), members[*k].clone());
                if wide[*k].disjuncts.len() >= 2 && layout.implies(&group.scope.region, wide[*k]) {
                    *target = Target::Implied;
                    continue;
                }
                while let Some(j) = groups.iter().position(|g| g.scope.overlaps(&group.scope)) {
                    let mut merged = groups.swap_remove(j).members;
                    merged.append(&mut group.members);
                    group = Group::settle(goal, layout.channels(), merged);
                }
                groups.push(group);
            }
            // The groups are disjoint: a constraint's is the one holding
            // any of its events.
            for (k, target) in &mut order {
                if let (Target::Nothing, Some(&first)) = (*target, members[*k].first()) {
                    let group = groups.iter().position(|g| g.scope.covers(first));
                    *target = Target::Scope(group.expect("a group holds it"));
                }
            }
            Scopes { order, groups }
        })
    }
}

/// The events a normal form names, each once.
fn events_of(nf: &NormalForm) -> Vec<Symbol> {
    let mut events: Vec<Symbol> = (nf.disjuncts.iter().flatten())
        .flat_map(|basic| match *basic {
            Basic::Must(e) | Basic::MustNot(e) => [Some(e), None],
            Basic::Order(a, b) => [Some(a), Some(b)],
        })
        .flatten()
        .collect();
    events.sort_unstable();
    events.dedup();
    events
}

/// `goal`, at pre-order `id`, with each scope of `done` — sorted by node,
/// all inside `goal` — replaced by what its constraints made of it: a
/// regrouped scope stands where its first child stood.
fn splice_scopes(goal: &Goal, id: u32, done: &[(&Scope, Goal)]) -> Goal {
    if done.is_empty() {
        return goal.clone();
    }
    if let [(scope, out)] = done {
        if scope.id == id && scope.children.is_empty() {
            return out.clone();
        }
    }
    match goal {
        Goal::Seq(gs) | Goal::Conc(gs) => {
            let (here, mut below) = done.split_at(done.partition_point(|(s, _)| s.id == id));
            let mut children = Vec::with_capacity(gs.len());
            let mut start = id + 1;
            for (k, child) in (0u32..).zip(gs.iter()) {
                let end = start + child.size() as u32;
                if let Some((scope, out)) = here.iter().find(|(s, _)| s.children.contains(&k)) {
                    if scope.children[0] == k {
                        children.push(out.clone());
                    }
                } else {
                    let (inside, after) =
                        below.split_at(below.partition_point(|(s, _)| s.id < end));
                    below = after;
                    children.push(if inside.is_empty() {
                        child.clone()
                    } else {
                        splice_scopes(child, start, inside)
                    });
                }
                start = end;
            }
            match goal {
                Goal::Seq(_) => seq(children),
                _ => conc(children),
            }
        }
        Goal::Isolated(g) => isolated(splice_scopes(g, id + 1, done)),
        other => unreachable!("a scope below `{other}`"),
    }
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
fn sync(alpha: Symbol, beta: Symbol, xi: Channel, goal: &Goal) -> Goal {
    sync_in(&mut Scratch, alpha, beta, xi, goal)
}

/// `Apply` of a conjunction of basics: sequential composition — each
/// application preserves the unique-event property, so the next may be
/// applied to its output (Definition 5.5). Computed as one run: two walks
/// of the goal however many basics, with the composition's result.
pub fn apply_conjunct(conj: &Conjunct, goal: &Goal, channels: &mut ChannelAlloc) -> Goal {
    apply_run_in(&mut Scratch, conj, goal, channels)
}

/// `Apply` of one normalized constraint:
/// `Apply(C₁ ∨ C₂, T) = Apply(C₁, T) ∨ Apply(C₂, T)`, one alternative of
/// `T` at a time. An alternative some disjunct already holds on is kept as
/// it stands instead of being joined by its own subsets, so the result is
/// the literal rule's up to those absorbed alternatives — the same
/// executions, a subset of its alternatives under the same channel
/// numbers — and `T` itself when every alternative was kept. Every
/// disjunct's channels are set aside whether it comes to draw them or not.
pub fn apply_normal_form(nf: &NormalForm, goal: &Goal, channels: &mut ChannelAlloc) -> Goal {
    apply_normal_form_in(&mut Scratch, nf, goal, channels)
}

/// `Apply(C, G)` for a whole constraint set `C = δ₁ ∧ … ∧ δₙ`
/// (Definition 5.5): constraints are normalized (Corollary 3.5), those
/// with a single disjunct compiled first as one run, every wider one then
/// per alternative of its scope — the lowest subgoal holding its events —
/// in the order of its last event (see the module doc and
/// [`apply_normal_form`]), less those its scope already satisfies. The
/// output size is `O(d^N · |G|)` in the worst case (Theorem 5.11) —
/// reached when every scope is the whole goal and no alternative a
/// constraint meets already satisfies one of its disjuncts —
/// and `O(Σ d^{Nᵢ} · |G|)` over disjoint scopes. The result has the
/// executions of the constraints folded in list order over the whole goal.
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
    use crate::gen::sharing_goal;

    use crate::semantics::{event_traces, satisfies};
    use crate::symbol::sym;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    const BUDGET: usize = 200_000;

    /// The closed form of `run` — of one primitive, too — drawing from
    /// `channels` what it uses.
    fn apply_run(run: &[Basic], goal: &Goal, channels: &mut ChannelAlloc) -> Goal {
        let mut closed = Run {
            basics: run,
            channels: channels.clone(),
            plan: None,
        };
        let out = closed.apply(goal);
        if !out.is_nopath() {
            channels.reserve(order_budget(run));
        }
        out
    }

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    /// The oracle check of Propositions 5.2/5.4/5.6:
    /// traces(Apply(C, G)) == { t ∈ traces(G) | t ⊨ C }.
    /// Holds `apply` to the trace semantics. A constraint of two or more
    /// disjuncts that `goal` already implies is left out, so `apply` hands
    /// the goal back and the comparison could not fail: none is given here.
    fn assert_apply_equiv(constraints: &[Constraint], goal: &Goal) {
        let traces = event_traces(goal, BUDGET).unwrap();
        for c in constraints
            .iter()
            .filter(|c| c.normalize().disjunct_count() >= 2)
        {
            let implied = traces.iter().all(|t| satisfies(t, c));
            assert!(!implied, "{goal} already implies {c}");
        }
        let compiled = apply(constraints, goal);
        let got = event_traces(&compiled, BUDGET).unwrap();
        let want: BTreeSet<_> = (traces.into_iter())
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
        let result = apply_conjunct(&vec![Basic::Order(sym("alpha"), sym("beta"))], &t, &mut ch);
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
        let result = apply_conjunct(&vec![Basic::Order(sym("alpha"), sym("beta"))], &t, &mut ch);
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
        let reflexive = vec![Basic::Order(sym("a"), sym("a"))];
        assert_eq!(apply_conjunct(&reflexive, &t, &mut ch), Goal::NoPath);
    }

    #[test]
    fn size_growth_is_bounded_by_d_per_constraint() {
        // A chain of 6 binary choices; one Klein constraint (d = 3) at most
        // triples the goal plus constant sync overhead. The `⊗` runs `l0`
        // before `l5`, so the order against it is the one not implied.
        let t = seq((0..6)
            .map(|i| or(vec![g(&format!("l{i}")), g(&format!("r{i}"))]))
            .collect());
        let base = t.size();
        let compiled = apply(&[Constraint::klein_order("l5", "l0")], &t);
        assert!(!compiled.ptr_eq(&t), "the goal implies the order");
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
    fn reapplying_a_clause_is_the_identity() {
        // Every term of a clause's output forces one of its literals, so
        // a second application absorbs them all and hands the `∨` back —
        // where the literal rule added, per term, the variants forcing
        // the other literals.
        let (dnf, clauses) = sat_dnf();
        let once = apply(&clauses[4..5], &dnf);
        assert!(matches!(once, Goal::Or(_)), "got {once}");
        assert!(apply(&clauses[4..5], &once).ptr_eq(&once));
    }

    #[test]
    fn an_alternative_a_disjunct_holds_on_is_kept_as_it_is() {
        // (a ∨ x) | (b ∨ y) under ¬∇a ∨ ¬∇b ∨ a<b, then ¬∇a ∨ ∇y: the
        // alternative without `a` satisfies the second constraint as it
        // stands and is not split into "without a" and "with y".
        let t = conc(vec![or(vec![g("a"), g("x")]), or(vec![g("b"), g("y")])]);
        let first = apply(&[Constraint::klein_order("a", "b")], &t);
        let Goal::Or(alternatives) = &first else {
            panic!("expected three alternatives, got {first}");
        };
        let without_a = &alternatives[0];
        assert_eq!(*without_a, conc(vec![g("x"), or(vec![g("b"), g("y")])]));
        let nf = Constraint::klein_exists("a", "y").normalize();
        let second = apply_normal_form(&nf, &first, &mut ChannelAlloc::fresh_for(&first));
        let Goal::Or(kept) = &second else {
            panic!("expected alternatives, got {second}");
        };
        assert!(kept[0].ptr_eq(without_a));
        assert!(!kept.contains(&conc(vec![g("x"), g("y")])));
        assert_apply_equiv(
            &[
                Constraint::klein_order("a", "b"),
                Constraint::klein_exists("a", "y"),
            ],
            &t,
        );
        // A goal that is no `∨` is its own single alternative.
        assert!(apply_normal_form(&nf, without_a, &mut ChannelAlloc::new()).ptr_eq(without_a));
    }

    /// [`apply_run`] against [`apply_fold`] on one input, each drawing
    /// from its own copy of the same allocator: equal goals, equal text,
    /// and — unless the answer is `¬path`, where the fold may have drawn
    /// for orders it got through before the one that failed — the same
    /// channels left.
    fn assert_run_is_fold(run: &[Basic], goal: &Goal) -> Goal {
        let mut drawn = ChannelAlloc::fresh_for(goal);
        let mut folded = drawn.clone();
        let got = apply_run(run, goal, &mut drawn);
        let want = apply_fold(run, goal, &mut folded);
        assert_eq!(got, want, "run {run:?} on {goal}");
        assert_eq!(got.to_string(), want.to_string(), "run {run:?} on {goal}");
        if !want.is_nopath() {
            assert_eq!(drawn.next, folded.next, "run {run:?} on {goal}");
        }
        got
    }

    /// A goal of [`sharing_goal`] and a run of one to four basics, mostly
    /// over events the goal holds (one in eight over an event it lacks)
    /// and mostly `∇` and orders, so that a fair share of the cases stays
    /// executable.
    fn random_case(seed: u64) -> (Goal, Vec<Basic>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<Symbol> = (0..6).map(|i| sym(&format!("q{i}"))).collect();
        let goal = sharing_goal(&mut rng, &pool, &pool, 4);
        let mut named: Vec<Symbol> = goal.events().into_iter().collect();
        named.push(sym("q_absent"));
        let run = (0..rng.gen_range(1..=4))
            .map(|_| {
                let mut pick = || match rng.gen_range(0..8) {
                    0 => named[named.len() - 1],
                    _ => named[rng.gen_range(0..named.len())],
                };
                let (a, b) = (pick(), pick());
                match rng.gen_range(0..10) {
                    0..=4 => Basic::Order(a, b),
                    5..=7 => Basic::Must(a),
                    _ => Basic::MustNot(a),
                }
            })
            .collect();
        (goal, run)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The closed form is the definition: on random goals with shared
        /// `∨`-branches, `⊙`, `◇` and `ε`, a run mixing `∇`, `¬∇` and
        /// orders compiles to the goal the fold compiles it to.
        #[test]
        fn a_run_is_the_fold_of_its_basics(seed in 0u64..1_000_000) {
            let (goal, run) = random_case(seed);
            prop_assert!(crate::unique::is_unique_event(&goal), "{}", goal);
            assert_run_is_fold(&run, &goal);
        }
    }

    #[test]
    fn the_random_runs_are_not_all_nopath() {
        let executable = (0..1024)
            .filter(|&seed| {
                let (goal, run) = random_case(seed);
                !apply_run(&run, &goal, &mut ChannelAlloc::new()).is_nopath()
            })
            .count();
        assert!(
            executable >= 128,
            "only {executable} of 1024 compile to a goal"
        );
    }

    #[test]
    fn a_run_stacks_its_channels_around_an_event_like_the_fold() {
        // b receives from a, then sends to c; c receives in list order; a
        // sends in reverse list order (each later send went directly
        // after a).
        let goal = conc(vec![g("a"), g("b"), g("c")]);
        let run = [
            Basic::Order(sym("a"), sym("b")),
            Basic::Order(sym("a"), sym("c")),
            Basic::Order(sym("b"), sym("c")),
        ];
        let (x0, x1, x2) = (Channel(0), Channel(1), Channel(2));
        assert_eq!(
            assert_run_is_fold(&run, &goal),
            conc(vec![
                seq(vec![g("a"), Goal::Send(x1), Goal::Send(x0)]),
                seq(vec![Goal::Receive(x0), g("b"), Goal::Send(x2)]),
                seq(vec![Goal::Receive(x1), Goal::Receive(x2), g("c")]),
            ])
        );
    }

    #[test]
    fn degenerate_runs_take_the_folds_answer() {
        use Basic::{Must, MustNot, Order};
        let goal = seq(vec![g("a"), or(vec![g("b"), g("c")]), g("d")]);
        let [a, b, c, d, absent] = ["a", "b", "c", "d", "zzz"].map(sym);
        let nopath: [&[Basic]; 7] = [
            &[Order(a, a)],
            &[Must(b), Order(a, a)],
            &[Must(b), MustNot(b)],
            &[MustNot(b), Must(b)],
            &[Order(a, absent)],
            &[Must(a), Must(absent)],
            &[Must(b), Must(c)],
        ];
        for run in nopath {
            assert!(assert_run_is_fold(run, &goal).is_nopath(), "run {run:?}");
        }
        let executable: [&[Basic]; 5] = [
            &[MustNot(absent), Must(a)],
            &[Must(a), Must(a)],
            &[Order(a, d), Order(a, d)],
            &[Order(a, b), MustNot(c), Order(b, d)],
            &[MustNot(b), MustNot(c)],
        ];
        for run in executable {
            // (¬∇b ∧ ¬∇c empties the ∨, which takes the ⊗ with it.)
            let dead = run == [MustNot(b), MustNot(c)];
            assert_eq!(
                assert_run_is_fold(run, &goal).is_nopath(),
                dead,
                "run {run:?}"
            );
        }
    }

    #[test]
    fn a_goal_that_is_not_unique_event_takes_the_folds_answer() {
        // `compile` refuses such a goal; the unchecked functions do not.
        // a and b occur in both conjuncts, so ∇a ∧ ∇b is witnessed two
        // ways and the fold keeps both — the closed form would keep none.
        let choice = || or(vec![g("a"), g("b")]);
        let goal = seq(vec![choice(), choice()]);
        let (a, b, d) = (sym("a"), sym("b"), sym("d"));
        assert_eq!(
            assert_run_is_fold(&[Basic::Must(a), Basic::Must(b)], &goal),
            or(vec![seq(vec![g("a"), g("b")]), seq(vec![g("b"), g("a")])])
        );
        assert!(!assert_run_is_fold(&[Basic::Order(a, b)], &goal).is_nopath());
        // The same through the entry points, under either table.
        let constraints = [Constraint::must("a"), Constraint::must("b")];
        let untabled = apply(&constraints, &goal);
        assert_eq!(
            untabled,
            apply_fold(
                &[Basic::Must(a), Basic::Must(b)],
                &goal,
                &mut ChannelAlloc::new()
            )
        );
        let mut memo = crate::memo::Memo::default();
        let tabled = apply_all_in(&mut memo, &constraints, &goal, &mut ChannelAlloc::new());
        assert_eq!(tabled, untabled);
        // Shared across `|`, deeper down, beside a ¬∇.
        let goal = conc(vec![g("a"), seq(vec![g("c"), or(vec![g("a"), g("d")])])]);
        assert_run_is_fold(&[Basic::Must(a), Basic::MustNot(d)], &goal);
        assert_run_is_fold(&[Basic::MustNot(d), Basic::Order(a, sym("c"))], &goal);
        // A repeated event no ∇ asks about is no obstacle to the closed
        // form: ¬∇ and sync rewrite every occurrence alike.
        assert_run_is_fold(&[Basic::MustNot(a), Basic::Must(d)], &goal);
    }

    #[test]
    fn a_run_over_a_thousand_events_takes_the_folds_answer() {
        // More distinct ∇-events than any inline bitset is wide.
        let name = |lane: &str, i: usize| sym(&format!("{lane}{i}"));
        let goal = seq((0..1000)
            .map(|i| or(vec![Goal::atom(name("t", i)), Goal::atom(name("s", i))]))
            .collect());
        let mut run: Vec<Basic> = (0..1000).map(|i| Basic::Must(name("t", i))).collect();
        run.extend(
            (0..999)
                .step_by(7)
                .map(|i| Basic::Order(name("t", i + 1), name("t", i))),
        );
        let compiled = assert_run_is_fold(&run, &goal);
        assert_eq!(compiled.channels().len(), 143);
        // … and the thousand-and-first, which excludes the five-hundredth.
        run.push(Basic::Must(name("s", 500)));
        assert!(assert_run_is_fold(&run, &goal).is_nopath());
    }

    #[test]
    fn a_constraint_its_scope_satisfies_is_left_out_with_its_channels() {
        // Each stage of the layers runs before the next, so a forward Klein
        // order holds on its two stages and `Apply` hands the goal back; a
        // backward one does not, and draws its order's channel after the
        // one the forward order set aside.
        let goal = crate::gen::layered_workflow(3, 2);
        let forward = Constraint::klein_order("l0_0", "l1_0");
        assert!(apply(std::slice::from_ref(&forward), &goal).ptr_eq(&goal));
        let backward = Constraint::klein_order("l2_0", "l1_0");
        let compiled = apply(&[forward, backward.clone()], &goal);
        assert_eq!(compiled.channels(), [Channel(1)].into_iter().collect());
        let mut after_one = ChannelAlloc::new();
        after_one.reserve(1);
        assert_eq!(compiled, apply_all(&[backward], &goal, &mut after_one));
    }

    #[test]
    fn a_scope_whose_branches_share_events_is_applied() {
        // `a` and `b` occur in both branches, which puts the `∨` outside
        // the fragment: the Klein orders are applied, not decided on one
        // occurrence of each event.
        let (ab, ba) = (seq(vec![g("a"), g("b")]), seq(vec![g("b"), g("a")]));
        for goal in [or(vec![ab.clone(), ba.clone()]), or(vec![ba, ab])] {
            for c in [
                Constraint::klein_order("a", "b"),
                Constraint::klein_order("b", "a"),
            ] {
                let compiled = apply(std::slice::from_ref(&c), &goal);
                assert!(!compiled.ptr_eq(&goal), "{c} on {goal}");
                assert_apply_equiv(&[c], &goal);
            }
        }
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
