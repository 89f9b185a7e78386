//! The graph fragment: consistency, verification and redundancy decided on
//! the goal's series-parallel order instead of by compiling (Theorems
//! 5.8–5.10, with Proposition 4.1's hardness left where it lives: in the
//! choice of one disjunct per constraint).
//!
//! A session is in the fragment when its goal is built of events, each
//! occurring once, with `⊗`, `|`, `∨` and `ε`; its constraints may be
//! anything. By Cor 3.5 each constraint's normal form is `∨ᵢ Rᵢ`, each `Rᵢ`
//! a *run* — `∇e`, `¬∇e` and orders, conjoined — so `G ∧ C` is consistent
//! iff some choice of one disjunct per constraint gives a consistent
//! concatenated run. All the queries of the
//! [`Analyzer`](crate::analysis::Analyzer) come down to one test: is
//! `G ∧ C ∧ extra` consistent, for a run `extra`?
//!
//! **One layout.** A goal is laid out once, by one pre-order walk
//! ([`Search::lay`]), whatever it holds: its series-parallel graph, its
//! tree for the search, one sorted table of its event occurrences (name,
//! number, pre-order position), the positions of its channel operations,
//! and the positions of the nodes outside the fragment. An `Analyzer`
//! session lays its goal out when it opens, and `Apply` lays each
//! compile's goal out in a per-thread spare and reads both its scopes'
//! positions and its implication answers off it.
//!
//! **The graph.** The *series-parallel graph* of `G` chains the children
//! of a `⊗` exit to entry, and fans the children of a `|` or an `∨` out
//! from an entry vertex and back in to an exit vertex, as the region graph
//! of `excise.rs` does for channels. Without `⊙` the executions of `G`
//! are, choice of branches by choice of branches, the linear extensions of
//! that graph. A basic *leaves `G` alone* when it is a `∇` of an event
//! outside every `∨`, a `¬∇` of an absent event, or an order of two such
//! `∇`-events. For a run `R` of such basics, `G ∧ R` is consistent iff the
//! graph stays acyclic with `R`'s orders added as edges, since they join
//! events every execution holds. The cycle test is that of `graph.rs`, the
//! graph `Excise` finds knots on: a cycle here is a knot there.
//!
//! **Every basic leaves `G` alone** and every constraint is a run: the
//! graph decides. The run is the concatenation of the constraints' runs,
//! and the session keeps the graph of `G` with `C`'s orders from one query
//! to the next, so a question that is one order `a < b` is one
//! reachability test: consistent iff `b` does not reach `a`. A redundancy
//! probe asks whether each basic of `φ` holds: `∇e` iff `e` occurs outside
//! every `∨`, `¬∇e` iff `e` does not occur, and `a < b` iff both occur
//! outside every `∨` and `b` is reachable from `a`.
//!
//! **Anything else** — a constraint of `d ≠ 1` disjuncts, or a basic, of
//! the list or of the query, that disturbs `G` (a `∇` of an event under an
//! `∨`, a `¬∇` of a present event, an order on such an event): a
//! *selection search* picks one disjunct per constraint, backtracking
//! chronologically, over a state kept on `G`'s tree and undone by a trail:
//! which branch each `∨` has committed to (a `∇e` commits every `∨` above
//! `e`), and which subtrees are dead (a `¬∇e` kills `e`; the death climbs
//! through `⊗` and `|`, and through an `∨` once all its branches are
//! dead). A conflict is a kill that reaches a committed branch or the
//! root, or a `∇` of an event that is dead or under another branch of a
//! committed `∨`. Per event the state reads *forced* (every `∨` above
//! committed towards it), *excluded* (dead, or under a branch not taken)
//! or open, and each disjunct counts its basics the state implies and
//! those it contradicts, through per-event occurrence lists, so a step
//! touches only the constraints whose events changed. Propagation skips a
//! constraint one of whose disjuncts the state implies, forces one with a
//! single live disjunct, and backtracks from one with none. An order
//! `a < b` is tested as it is chosen: a cycle iff `b` reaches `a` in `G`'s
//! graph with the orders chosen before it added.
//!
//! The search answers at its first complete choice, and that answer is
//! exact. Let `H` be `G` restricted by the chosen run's `∇`/`¬∇` demands,
//! an order's ends counting as `∇` (the restriction walk of `apply.rs`,
//! layer 3). First, the state's commits and kills are that walk applied
//! one basic at a time, so `H` is not `¬path` and every `∇`-event of the
//! run is forced in it. Second, each order was tested against `G`'s graph,
//! not `H`'s, and that is the same test: every chosen order joins forced
//! events, and a path of `G` between two of them that runs through a
//! pruned branch enters it at its `∨`'s entry vertex and leaves at its
//! exit vertex, which a live branch — `ε` included, there is one or the
//! `∨` would be dead — joins as well, so the path re-routes through it.
//! Reachability between executed events is the same in both graphs. The
//! search allocates nothing once its vectors are warm.
//!
//! Two deciders stay because the split is on the input and each wins on
//! its own: the graph answers an order with one reachability on a graph
//! kept across queries, where the search would test the list's orders one
//! at a time on every query.
//!
//! * **Consistency** (Thm 5.8): `extra` is empty.
//! * **Verification** (Thm 5.9): `φ` holds iff no disjunct of `¬φ`'s
//!   normal form is consistent with `C` — at most `d` tests, one for a
//!   Klein order. Only a violated property compiles, for its most general
//!   counterexample.
//! * **Redundancy** (Thm 5.10): `φ` is implied by the kept constraints iff
//!   they are inconsistent with every disjunct of `¬φ` (where the graph
//!   decides, iff each basic of `φ` holds on it).
//! * **The conflict**: an inconsistent list's minimal conflicting subset,
//!   found by deletion, one test per constraint. Redundancy and the
//!   conflict share one greedy loop ([`Runs::greedy`]).
//! * **Implication, for `Apply`** ([`Layout::implies`]): does every
//!   execution of a scope satisfy a wide constraint? One search over the
//!   compile's layout, with `¬C` read off the constraint's normal form; a
//!   scope outside the fragment answers no.
//!
//! A test asks the session's table for nothing but the normal forms of
//! constraints edited since the last one. It is linear in `|G| + |C|`
//! while the graph decides; Prop 4.1 keeps the search exponential
//! in the worst case. [`is_consistent`](crate::analysis::is_consistent),
//! [`verify`](crate::analysis::verify) and
//! [`is_redundant`](crate::analysis::is_redundant) stay the theorems'
//! compiles as written and are the referees
//! (`tests/consistency_referee.rs`, `tests/redundancy_referee.rs`).
//!
//! "Each event occurring once" is stricter than the unique-event property,
//! whose `∨`-branches may share events: in `(a ⊗ b) ∨ (b ⊗ a)` every
//! execution holds `a`, yet `a` lies under the `∨`. Such goals take the
//! compile.

use crate::constraints::{Basic, Conjunct, NormalForm};
use crate::goal::{Channel, Goal};
use crate::graph::{refill, Graph};
use crate::symbol::Symbol;
use std::borrow::Borrow;
use std::cell::Cell;

/// The vectors a graph test works in, reused from one test to the next, so
/// that a session's tests allocate nothing once they are warm.
#[derive(Default)]
struct Probe {
    /// The orders of `R`, a run that leaves `G` alone, as edges.
    orders: Vec<(u32, u32)>,
    graph: Graph,
}

impl Probe {
    /// Is `G ∧ R` consistent, `g` being `G` laid out?
    fn consistent(&mut self, g: &Search) -> bool {
        g.acyclic(&mut self.graph, &self.orders)
    }

    /// Does every execution of the consistent `G ∧ R` satisfy the basics
    /// `phi`? Asked right after [`Probe::consistent`] said yes.
    fn holds(&mut self, g: &Search, mut phi: impl Iterator<Item = Basic>) -> bool {
        // A basic that does not leave `G` alone does not hold on it.
        phi.all(|basic| match g.place(basic) {
            Placed {
                edge: Some((a, b)), ..
            } => self.graph.reaches(a, b, &[]),
            placed => placed.alone,
        })
    }
}

/// A basic of a session's constraint, placed on the goal's graph.
#[derive(Clone, Copy)]
struct Placed {
    basic: Basic,
    /// True if the basic leaves the goal alone: a `∇` of an event outside
    /// every `∨`, a `¬∇` of an absent one, an order of two such `∇`-events.
    alone: bool,
    /// The edge an order that leaves the goal alone adds.
    edge: Option<(u32, u32)>,
}

/// Where a constraint's basics end in [`Runs`]' `placed` and its disjuncts
/// in `cuts`, whether its normal form is one run, and whether it was
/// edited since they were placed.
#[derive(Clone, Copy)]
struct Slot {
    end: usize,
    cut: usize,
    run: bool,
    stale: bool,
}

/// A session's constraints over its goal's layout, kept in step with the
/// constraint list: an edit marks its own constraint, and the next query
/// places that constraint's disjuncts in place of the old ones, so that a
/// query only tests.
pub(crate) struct Runs {
    /// The goal laid out, and the selection search over it.
    search: Box<Search>,
    /// The basics of every disjunct of every constraint, in list order.
    placed: Vec<Placed>,
    /// How many basics of `placed` each disjunct has, in the same order.
    cuts: Vec<u32>,
    /// One per constraint.
    slots: Vec<Slot>,
    /// How many constraints are not runs.
    wider: usize,
    /// How many basics of `placed` do not leave the goal alone.
    disturbing: usize,
    /// How many slots are stale.
    stale: usize,
    /// The goal's graph with every order of `placed` added, and whether it
    /// is acyclic — filled by the first graph test after an edit.
    whole: Graph,
    whole_acyclic: Option<bool>,
    probe: Probe,
    /// Whether the search's constraints are those of `placed`.
    indexed: bool,
}

impl Runs {
    /// The runs of `constraints` constraints, all stale, over `goal`, or
    /// `None` when the goal is outside the fragment.
    pub(crate) fn new(goal: &Goal, constraints: usize) -> Option<Runs> {
        let mut search = Box::<Search>::default();
        search.lay(goal);
        if !search.foreign.is_empty() {
            return None;
        }
        let stale = Slot {
            end: 0,
            cut: 0,
            run: true,
            stale: true,
        };
        Some(Runs {
            search,
            placed: Vec::new(),
            cuts: Vec::new(),
            slots: vec![stale; constraints],
            wider: 0,
            disturbing: 0,
            stale: constraints,
            whole: Graph::default(),
            whole_acyclic: None,
            probe: Probe::default(),
            indexed: false,
        })
    }

    /// Where constraint `i`'s basics begin in `placed`, and its disjuncts
    /// in `cuts`.
    fn start(&self, i: usize) -> (usize, usize) {
        match i.checked_sub(1) {
            Some(before) => (self.slots[before].end, self.slots[before].cut),
            None => (0, 0),
        }
    }

    /// True while the graph decides: every constraint is a run and leaves
    /// the goal alone.
    fn graphed(&self) -> bool {
        self.wider == 0 && self.disturbing == 0
    }

    /// Where constraint `i`'s basics lie in `placed`.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        self.start(i).0..self.slots[i].end
    }

    /// Constraint `i` was replaced.
    pub(crate) fn replace(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        self.stale += usize::from(!slot.stale);
        slot.stale = true;
    }

    /// A constraint was inserted at `i`.
    pub(crate) fn insert(&mut self, i: usize) {
        let (end, cut) = self.start(i);
        let slot = Slot {
            end,
            cut,
            run: true,
            stale: true,
        };
        self.slots.insert(i, slot);
        self.stale += 1;
    }

    /// Constraint `i` was removed.
    pub(crate) fn remove(&mut self, i: usize) {
        let (span, cut) = (self.span(i), self.start(i).1);
        let (gone, gone_cuts) = (span.len(), self.slots[i].cut - cut);
        self.disturbing -= (self.placed[span.clone()].iter())
            .filter(|p| !p.alone)
            .count();
        self.placed.drain(span);
        self.cuts.drain(cut..cut + gone_cuts);
        let slot = self.slots.remove(i);
        self.wider -= usize::from(!slot.run);
        self.stale -= usize::from(slot.stale);
        for slot in &mut self.slots[i..] {
            slot.end -= gone;
            slot.cut -= gone_cuts;
        }
        self.whole_acyclic = None;
        self.indexed = false;
    }

    /// Places the disjuncts of every stale constraint, `normal(i)` being
    /// the normal form of constraint `i`.
    pub(crate) fn refresh<N: Borrow<NormalForm>>(&mut self, mut normal: impl FnMut(usize) -> N) {
        if self.stale > 0 {
            for i in 0..self.slots.len() {
                if self.slots[i].stale {
                    self.put(i, normal(i).borrow());
                }
            }
            self.whole_acyclic = None;
            self.indexed = false;
        }
    }

    /// Puts `nf`'s disjuncts in place of constraint `i`'s.
    fn put(&mut self, i: usize, nf: &NormalForm) {
        let (span, cut) = (self.span(i), self.start(i).1);
        let cuts = cut..self.slots[i].cut;
        let (was, now) = (span.len(), nf.disjuncts.iter().map(Vec::len).sum());
        let (was_cuts, now_cuts) = (cuts.len(), nf.disjuncts.len());
        let gone = (self.placed[span.clone()].iter())
            .filter(|p| !p.alone)
            .count();
        let (search, mut added) = (&self.search, 0);
        let placed = nf.disjuncts.iter().flatten().map(|&basic| {
            let placed = search.place(basic);
            added += usize::from(!placed.alone);
            placed
        });
        let lengths = nf.disjuncts.iter().map(|d| d.len() as u32);
        if (was, was_cuts) == (now, now_cuts) {
            for (old, new) in self.placed[span].iter_mut().zip(placed) {
                *old = new;
            }
            for (old, new) in self.cuts[cuts].iter_mut().zip(lengths) {
                *old = new;
            }
        } else {
            self.placed.splice(span, placed);
            self.cuts.splice(cuts, lengths);
            for slot in &mut self.slots[i..] {
                slot.end = slot.end + now - was;
                slot.cut = slot.cut + now_cuts - was_cuts;
            }
        }
        self.disturbing = self.disturbing + added - gone;
        let (slot, run) = (&mut self.slots[i], now_cuts == 1);
        self.wider = self.wider + usize::from(!run) - usize::from(!slot.run);
        self.stale -= 1;
        slot.run = run;
        slot.stale = false;
    }

    /// Is `G ∧ C ∧ extra` consistent, `C` being every constraint, none
    /// stale? While the graph decides ([`Runs::graphed`]) and `extra`
    /// leaves `G` alone too, this asks the graph of `G` and `C`'s orders,
    /// kept from one query to the next: `extra` of one order `a < b` adds
    /// a cycle iff `b` reaches `a` there. The selection search answers
    /// everything else.
    fn consistent(&mut self, extra: &[Basic]) -> bool {
        debug_assert!(self.stale == 0);
        let search = &self.search;
        if !self.graphed() || !extra.iter().all(|&b| search.place(b).alone) {
            return self.select(|_| true, extra);
        }
        let (whole, placed, probe) = (&mut self.whole, &self.placed, &mut self.probe);
        let consistent = *self.whole_acyclic.get_or_insert_with(|| {
            probe.orders.clear();
            probe.orders.extend(placed.iter().filter_map(|p| p.edge));
            search.acyclic(whole, &probe.orders)
        });
        probe.orders.clear();
        probe
            .orders
            .extend(extra.iter().filter_map(|&b| search.place(b).edge));
        match probe.orders[..] {
            _ if !consistent => false,
            [] => true,
            [(a, b)] => a != b && !whole.reaches(b, a, &[]),
            _ => {
                probe.orders.extend(placed.iter().filter_map(|p| p.edge));
                probe.consistent(search)
            }
        }
    }

    /// Is `G ∧ C' ∧ extra` consistent, `C'` being the constraints `keep`
    /// admits? The selection search, for a session with a wide constraint.
    fn select(&mut self, keep: impl Fn(usize) -> bool, extra: &[Basic]) -> bool {
        let search = &mut self.search;
        if !self.indexed {
            let ends = self.slots.iter().map(|slot| slot.cut);
            search.index(ends, &self.cuts, |i| self.placed[i].basic);
            self.indexed = true;
        }
        for (i, active) in search.active.iter_mut().enumerate() {
            *active = keep(i);
        }
        search.run(extra)
    }

    /// Does some execution of `G ∧ C` satisfy one of `disjuncts`, the
    /// normal form of a constraint? Asked after [`Runs::refresh`], as are
    /// [`Runs::minimize`] and [`Runs::conflict`].
    pub(crate) fn satisfiable(&mut self, disjuncts: &[Conjunct]) -> bool {
        disjuncts.iter().any(|d| self.consistent(d))
    }

    /// Fills `self.probe.orders` with the edges of the runs `kept` admits.
    fn gather(&mut self, kept: &[bool]) {
        self.probe.orders.clear();
        for j in (0..kept.len()).filter(|&j| kept[j]) {
            let run = &self.placed[self.span(j)];
            self.probe.orders.extend(run.iter().filter_map(|p| p.edge));
        }
    }

    /// Greedy deletion over a kept mask: each constraint `i` in turn is
    /// taken out, and `keep(self, kept, i)` — `kept` admitting the ones
    /// kept before `i` and all the ones after it — says whether it goes
    /// back. Returns the kept indices.
    fn greedy(&mut self, mut keep: impl FnMut(&mut Runs, &[bool], usize) -> bool) -> Vec<usize> {
        let mut kept = vec![true; self.slots.len()];
        for i in 0..kept.len() {
            kept[i] = false;
            kept[i] = keep(self, &kept, i);
        }
        (0..kept.len()).filter(|&j| kept[j]).collect()
    }

    /// Greedy redundancy elimination: the indices
    /// [`Analyzer::minimize_constraints`](crate::analysis::Analyzer::minimize_constraints)
    /// returns. Each constraint in turn is dropped when the kept ones before
    /// it and all the ones after it imply it; `negation(i)` is the normal
    /// form of `¬φ` for constraint `i`, which the selection search tests
    /// against them when the graph does not decide.
    pub(crate) fn minimize<N: Borrow<NormalForm>>(
        &mut self,
        mut negation: impl FnMut(usize) -> N,
    ) -> Vec<usize> {
        let graphed = self.graphed();
        self.greedy(|runs, kept, i| {
            if !graphed {
                let negation = negation(i);
                let disjuncts = &negation.borrow().disjuncts;
                return disjuncts.iter().any(|d| runs.select(|j| kept[j], d));
            }
            runs.gather(kept);
            let phi = &runs.placed[runs.span(i)];
            let (search, probe) = (&runs.search, &mut runs.probe);
            probe.consistent(search) && !probe.holds(search, phi.iter().map(|p| p.basic))
        })
    }

    /// A minimal conflicting subset of an inconsistent constraint list, by
    /// deletion: each constraint in turn is dropped when the rest of the
    /// subset still in play stays inconsistent without it. What is left
    /// is inconsistent, and consistent with any one of its members dropped.
    pub(crate) fn conflict(&mut self) -> Vec<usize> {
        let graphed = self.graphed();
        self.greedy(|runs, kept, _| {
            if !graphed {
                return runs.select(|j| kept[j], &[]);
            }
            runs.gather(kept);
            runs.probe.consistent(&runs.search)
        })
    }
}

/// A compile's goal laid out for `Apply`'s scopes: where its events and
/// channel operations stand, and Theorem 5.10 asked of a region of it,
/// with `¬C` rebuilt per question in the same vectors: a run of the basics
/// that are alone in their constraint, for [`Search::run`], and the other
/// constraints, for [`Search::index`].
#[derive(Default)]
pub(crate) struct Layout {
    search: Search,
    run: Vec<Basic>,
    ends: Vec<usize>,
    cuts: Vec<u32>,
    basics: Vec<Basic>,
    /// The search holds no constraint, so an empty list needs no index.
    unconstrained: bool,
}

thread_local! {
    /// The layout the last compile on this thread worked in, kept for the
    /// next: the forty-odd vectors of a fresh layout cost more to allocate
    /// than to fill.
    static SPARE: Cell<Option<Box<Layout>>> = const { Cell::new(None) };
}

impl Layout {
    /// Lays `goal` out in this thread's spare layout and hands it to `f`.
    pub(crate) fn with<R>(goal: &Goal, f: impl FnOnce(&mut Layout) -> R) -> R {
        let mut laid = SPARE.take().unwrap_or_default();
        laid.search.lay(goal);
        laid.unconstrained = false;
        let out = f(&mut laid);
        SPARE.set(Some(laid));
        out
    }

    /// The pre-order positions of `event`'s occurrences, `◇` bodies
    /// included.
    pub(crate) fn positions(&self, event: Symbol) -> impl Iterator<Item = u32> + '_ {
        let events = &self.search.events;
        let from = events.partition_point(|e| e.0 < event);
        (events[from..].iter())
            .take_while(move |e| e.0 == event)
            .map(|e| e.2)
    }

    /// Every channel operation with its position, sorted.
    pub(crate) fn channels(&self) -> &[(Channel, u32)] {
        &self.search.channels
    }

    /// True if the subgoal at `region` (pre-order `[start, end)`
    /// intervals) is in the fragment and every execution of it satisfies
    /// `nf`: no disjunct of `¬nf` is consistent with it. The region is a
    /// subgoal with only `⊗`, `|` and `⊙` above it that holds every
    /// occurrence of the constraint's events, so the search over the whole
    /// layout is the search over the subgoal alone: the constraint names
    /// no event outside it, a kill that climbs out of it reaches the root
    /// through `⊗`, `|` and `⊙` as it would reach the subgoal's own root,
    /// and no path of the graph leaves a subgoal and comes back. Kept out
    /// of line: inlined into `Scopes::of`, it slowed the apply of the SAT
    /// specs, whose clauses it never finds implied, by ≈ 2 %.
    #[inline(never)]
    pub(crate) fn implies(&mut self, region: &[(u32, u32)], nf: &NormalForm) -> bool {
        if self.search.meets_foreign(region) {
            return false;
        }
        self.negate(nf);
        if !(self.ends.is_empty() && self.unconstrained) {
            let basics = &self.basics;
            (self.search).index(self.ends.iter().copied(), &self.cuts, |i| basics[i]);
            self.unconstrained = self.ends.is_empty();
        }
        !self.search.run(&self.run)
    }

    /// `¬(∨ᵢ ∧ⱼ bᵢⱼ) = ∧ᵢ ∨ⱼ ¬bᵢⱼ`, read off the normal form: one
    /// constraint per disjunct `i`, whose disjuncts are the negated basics,
    /// `¬(a < b)` unfolding to `¬∇a ∨ ¬∇b ∨ b < a` (Lemma 3.4); a lone
    /// `∇e` or `¬∇e` negates to one basic, which joins the run. A disjunct
    /// holding `a < a` is false, so its negation holds and is left out.
    fn negate(&mut self, nf: &NormalForm) {
        let (ends, cuts, basics) = (&mut self.ends, &mut self.cuts, &mut self.basics);
        self.run.clear();
        ends.clear();
        cuts.clear();
        basics.clear();
        for conj in &nf.disjuncts {
            match conj[..] {
                [Basic::Must(e)] => self.run.push(Basic::MustNot(e)),
                [Basic::MustNot(e)] => self.run.push(Basic::Must(e)),
                _ if conj
                    .iter()
                    .any(|b| matches!(b, Basic::Order(x, y) if x == y)) => {}
                _ => {
                    for &basic in conj {
                        match basic {
                            Basic::Must(e) => basics.push(Basic::MustNot(e)),
                            Basic::MustNot(e) => basics.push(Basic::Must(e)),
                            Basic::Order(a, b) => basics.extend([
                                Basic::MustNot(a),
                                Basic::MustNot(b),
                                Basic::Order(b, a),
                            ]),
                        }
                    }
                    cuts.resize(basics.len(), 1);
                    ends.push(cuts.len());
                }
            }
        }
    }
}

/// "No such node, event or branch" in the search's numbering.
const NONE: u32 = u32::MAX;

/// What the search state says of an event.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Some execution of the state may or may not hold it.
    Open,
    /// Every execution holds it: every `∨` above it is committed to it.
    Forced,
    /// No execution holds it: it is dead, or under a branch not taken.
    Excluded,
}

/// How a basic of a disjunct mentions an event: its occurrence list entry.
#[derive(Clone, Copy)]
enum Role {
    /// `∇e`: implied once `e` is forced, dead once it is excluded.
    Must,
    /// `¬∇e`: implied once `e` is excluded, dead once it is forced.
    MustNot,
    /// An end of an order: dead once `e` is excluded, never implied.
    End,
}

impl Role {
    /// What the event becoming forced, or else excluded, does to a basic
    /// that mentions it so: true if it implies it, false if it kills it.
    fn implied(self, forced: bool) -> Option<bool> {
        match (self, forced) {
            (Role::Must, true) | (Role::MustNot, false) => Some(true),
            (Role::End, true) => None,
            _ => Some(false),
        }
    }
}

/// One change to the search state, undone by [`Search::undo_to`].
#[derive(Clone, Copy)]
enum Step {
    /// An `∨` lost a live branch.
    Live(u32),
    /// An `∨` committed to a branch.
    Commit(u32),
    /// An open event became forced or excluded.
    Event(u32),
    /// A constraint's disjunct was chosen.
    Chosen(u32),
}

/// A basic with its events numbered, [`NONE`] for an event outside the
/// goal.
#[derive(Clone, Copy)]
struct Resolved {
    basic: Basic,
    a: u32,
    b: u32,
}

impl Resolved {
    /// The events the basic mentions, with how: none when it can hold in
    /// no state (an event outside the goal, a reflexive order).
    fn mentions(&self) -> impl Iterator<Item = (u32, Role)> {
        let (a, b) = (self.a, self.b);
        let mentions = match self.basic {
            Basic::Must(_) => [(a, Role::Must), (NONE, Role::End)],
            Basic::MustNot(_) => [(a, Role::MustNot), (NONE, Role::End)],
            Basic::Order(..) if a != NONE && b != NONE && a != b => {
                [(a, Role::End), (b, Role::End)]
            }
            Basic::Order(..) => [(NONE, Role::End); 2],
        };
        mentions.into_iter().filter(|&(e, _)| e != NONE)
    }
}

/// How far the state had come: the lengths of the trail and the chosen
/// orders.
#[derive(Clone, Copy)]
struct Mark {
    trail: usize,
    orders: usize,
}

/// An open choice of the search: constraint `c`, whose disjuncts before
/// `next` have been tried from the state at `mark`.
#[derive(Clone, Copy)]
struct Frame {
    c: usize,
    next: u32,
    mark: Mark,
}

/// A goal laid out — its series-parallel graph, its tree, its event table
/// and where it leaves the fragment — with the selection search over it:
/// the constraints indexed by event, and the state a search moves through,
/// which is back at the goal's own between searches.
#[derive(Default)]
struct Search {
    /// The goal's series-parallel graph: its vertex count and edges, and
    /// the same filled in for the order test.
    vertices: u32,
    edges: Vec<(u32, u32)>,
    graph: Graph,
    /// The pre-order positions of the nodes outside the fragment, sorted:
    /// `⊙`, `◇`, channel operations, conditions, `¬path`, and every
    /// occurrence of an event that occurs twice.
    foreign: Vec<u32>,
    /// Every event occurrence: its name, its number ([`NONE`] below a
    /// `◇`) and its pre-order position in the goal; sorted.
    events: Vec<(Symbol, u32, u32)>,
    /// Every channel operation with its pre-order position, sorted.
    channels: Vec<(Channel, u32)>,
    /// The goal's nodes in pre-order: each node's parent ([`NONE`] for the
    /// root), whether it is an `∨`, and the events under it,
    /// `first[n]..end[n]` (events are numbered in pre-order too).
    parent: Vec<u32>,
    or: Vec<bool>,
    first: Vec<u32>,
    end: Vec<u32>,
    /// Per event: its node, its vertex in `graph`, and how many `∨` are
    /// above it.
    leaf: Vec<u32>,
    vertex: Vec<u32>,
    guards: Vec<u32>,

    /// Per constraint, its disjuncts `ways[c]..ways[c + 1]`; per disjunct,
    /// its basics `cut[k]..cut[k + 1]` of `resolved` and its constraint.
    ways: Vec<u32>,
    cut: Vec<u32>,
    owner: Vec<u32>,
    resolved: Vec<Resolved>,
    /// Per event, the disjuncts that mention it,
    /// `occurs[rows[e]..rows[e + 1]]`.
    rows: Vec<u32>,
    occurs: Vec<(u32, Role)>,

    /// Per `∨` node, its live branches and the branch it committed to.
    live: Vec<u32>,
    commit: Vec<u32>,
    /// Per event, how many `∨` above it have not committed, and its status.
    pending: Vec<u32>,
    status: Vec<Status>,
    /// Per disjunct, how many of its basics the state does not imply and
    /// how many reasons it has to be dead.
    open: Vec<u32>,
    killed: Vec<u32>,
    /// Per constraint, how many disjuncts the state implies and how many
    /// are dead, whether one was chosen, and whether the search counts it.
    implied: Vec<u32>,
    dead: Vec<u32>,
    chosen: Vec<bool>,
    active: Vec<bool>,
    trail: Vec<Step>,
    /// The chosen orders, as edges of `graph`.
    orders: Vec<(u32, u32)>,
    /// Constraints to look at: a disjunct of theirs died.
    queue: Vec<u32>,
    frames: Vec<Frame>,
}

impl Search {
    /// Lays `goal` out in place of the goal before, with no constraint.
    fn lay(&mut self, goal: &Goal) {
        debug_assert!(self.trail.is_empty());
        for vector in [
            &mut self.foreign,
            &mut self.parent,
            &mut self.first,
            &mut self.end,
            &mut self.live,
            &mut self.leaf,
            &mut self.vertex,
            &mut self.guards,
        ] {
            vector.clear();
        }
        self.edges.clear();
        self.events.clear();
        self.channels.clear();
        self.or.clear();
        self.vertices = 0;
        self.walk(goal, 0, NONE, 0, true);
        self.events.sort_unstable();
        self.channels.sort_unstable();
        // An event's numbered occurrences come first in its run of the table.
        for twice in self.events.chunk_by(|x, y| x.0 == y.0) {
            if twice.len() > 1 && twice[1].1 != NONE {
                let numbered = twice.iter().take_while(|e| e.1 != NONE);
                self.foreign.extend(numbered.map(|e| e.2));
            }
        }
        self.foreign.sort_unstable();
        (self.graph).fill(self.vertices as usize, &self.edges, &[]);
        refill(&mut self.commit, self.parent.len(), NONE);
        self.pending.clone_from(&self.guards);
        self.status.clear();
        (self.status).extend(self.guards.iter().map(|&g| match g {
            0 => Status::Forced,
            _ => Status::Open,
        }));
    }

    /// Lays `goal`, at pre-order position `id`, out below the node `parent`
    /// with `guards` `∨` above it, and returns its entry and exit vertices.
    /// A `◇` is one vertex, as `ε` is; its body is laid apart, and an
    /// event there (`numbered` false) is a position only, which neither
    /// the graph nor the search sees. `⊙` is laid through.
    fn walk(
        &mut self,
        goal: &Goal,
        id: u32,
        parent: u32,
        guards: u32,
        numbered: bool,
    ) -> (u32, u32) {
        let n = self.parent.len() as u32;
        self.parent.push(parent);
        self.or.push(matches!(goal, Goal::Or(_)));
        self.first.push(self.leaf.len() as u32);
        self.end.push(0);
        self.live.push(0);
        let span = match goal {
            Goal::Seq(gs) => {
                let mut span: Option<(u32, u32)> = None;
                let mut child = id + 1;
                for g in gs.iter() {
                    let (entry, exit) = self.walk(g, child, n, guards, numbered);
                    child += g.size() as u32;
                    span = Some(match span {
                        Some((first, last)) => {
                            self.edges.push((last, entry));
                            (first, exit)
                        }
                        None => (entry, exit),
                    });
                }
                span.unwrap_or_else(|| {
                    let v = self.add_vertex();
                    (v, v)
                })
            }
            Goal::Conc(gs) | Goal::Or(gs) => {
                let inner = guards + u32::from(self.or[n as usize]);
                let (entry, exit) = (self.add_vertex(), self.add_vertex());
                let mut child = id + 1;
                for g in gs.iter() {
                    let (first, last) = self.walk(g, child, n, inner, numbered);
                    child += g.size() as u32;
                    self.edges.extend([(entry, first), (last, exit)]);
                }
                self.live[n as usize] = gs.len() as u32;
                (entry, exit)
            }
            Goal::Isolated(g) => {
                self.foreign.push(id);
                self.walk(g, id + 1, n, guards, numbered)
            }
            // Every other node is one vertex, as `ε` is.
            _ => {
                let v = self.add_vertex();
                match goal {
                    Goal::Atom(a) => match a.as_event() {
                        Some(event) if numbered => {
                            self.events.push((event, self.leaf.len() as u32, id));
                            self.leaf.push(n);
                            self.vertex.push(v);
                            self.guards.push(guards);
                        }
                        Some(event) => self.events.push((event, NONE, id)),
                        None => self.foreign.push(id),
                    },
                    Goal::Possible(g) => {
                        self.foreign.push(id);
                        self.walk(g, id + 1, n, guards, false);
                    }
                    Goal::Send(c) | Goal::Receive(c) => {
                        self.foreign.push(id);
                        self.channels.push((*c, id));
                    }
                    Goal::NoPath => self.foreign.push(id),
                    _ => {}
                }
                (v, v)
            }
        };
        self.end[n as usize] = self.leaf.len() as u32;
        span
    }

    fn add_vertex(&mut self) -> u32 {
        self.vertices += 1;
        self.vertices - 1
    }

    /// True if a node outside the fragment lies in `region`, pre-order
    /// `[start, end)` intervals.
    fn meets_foreign(&self, region: &[(u32, u32)]) -> bool {
        region.iter().any(|&(start, end)| {
            let at = self.foreign.partition_point(|&p| p < start);
            self.foreign.get(at).is_some_and(|&p| p < end)
        })
    }

    /// True if the graph stays acyclic with the edges `orders` added,
    /// filled into `graph`.
    fn acyclic(&self, graph: &mut Graph, orders: &[(u32, u32)]) -> bool {
        graph.fill(self.vertices as usize, &self.edges, orders);
        graph.acyclic()
    }

    /// `event`'s number, [`NONE`] when it occurs nowhere but below a `◇`.
    fn number(&self, event: Symbol) -> u32 {
        let at = self.events.partition_point(|e| e.0 < event);
        match self.events.get(at) {
            Some(&(name, number, _)) if name == event => number,
            _ => NONE,
        }
    }

    /// `event`'s vertex, if it occurs outside every `∨`.
    fn unguarded(&self, event: Symbol) -> Option<u32> {
        let e = self.number(event);
        (e != NONE && self.guards[e as usize] == 0).then(|| self.vertex[e as usize])
    }

    /// `basic` placed on the graph.
    fn place(&self, basic: Basic) -> Placed {
        let (alone, edge) = match basic {
            Basic::Must(e) => (self.unguarded(e).is_some(), None),
            Basic::MustNot(e) => (self.number(e) == NONE, None),
            Basic::Order(a, b) => match (self.unguarded(a), self.unguarded(b)) {
                (Some(a), Some(b)) => (true, Some((a, b))),
                _ => (false, None),
            },
        };
        Placed { basic, alone, edge }
    }

    /// `basic` with its events numbered.
    fn resolve(&self, basic: Basic) -> Resolved {
        let (a, b) = match basic {
            Basic::Must(e) | Basic::MustNot(e) => (self.number(e), NONE),
            Basic::Order(a, b) => (self.number(a), self.number(b)),
        };
        Resolved { basic, a, b }
    }

    /// Indexes a constraint list — per constraint, where its disjuncts end
    /// in `cuts` (`ends`); per disjunct, how many basics it has (`cuts`);
    /// `basic(i)` being the `i`-th basic of them all — and counts what the
    /// goal's own state implies of them. The state is the goal's own.
    fn index(
        &mut self,
        ends: impl ExactSizeIterator<Item = usize>,
        cuts: &[u32],
        basic: impl Fn(usize) -> Basic,
    ) {
        debug_assert!(self.trail.is_empty());
        for vector in [&mut self.ways, &mut self.cut, &mut self.owner] {
            vector.clear();
        }
        self.resolved.clear();
        self.open.clear();
        self.killed.clear();
        self.ways.push(0);
        self.cut.push(0);
        let (n, mut at, mut k) = (ends.len(), 0, 0);
        for (c, end) in ends.enumerate() {
            for &length in &cuts[k..end] {
                // What no state changes: an event outside the goal, a
                // reflexive order.
                let (mut open, mut killed) = (0, 0);
                for i in at..at + length as usize {
                    let r = self.resolve(basic(i));
                    let (implied, dead) = match r.basic {
                        Basic::Must(_) => (false, r.a == NONE),
                        Basic::MustNot(_) => (r.a == NONE, false),
                        Basic::Order(..) => (false, r.mentions().next().is_none()),
                    };
                    open += u32::from(!implied);
                    killed += u32::from(dead);
                    self.resolved.push(r);
                }
                at += length as usize;
                self.cut.push(self.resolved.len() as u32);
                self.owner.push(c as u32);
                self.open.push(open);
                self.killed.push(killed);
            }
            k = end;
            self.ways.push(self.owner.len() as u32);
        }
        // The occurrence lists, in compressed rows.
        let (rows, occurs) = (&mut self.rows, &mut self.occurs);
        rows.clear();
        rows.resize(self.leaf.len() + 2, 0);
        for (e, _) in self.resolved.iter().flat_map(Resolved::mentions) {
            rows[e as usize + 2] += 1;
        }
        for e in 2..rows.len() {
            rows[e] += rows[e - 1];
        }
        occurs.clear();
        occurs.resize(rows[rows.len() - 1] as usize, (0, Role::End));
        for (k, basics) in self.cut.windows(2).enumerate() {
            for r in &self.resolved[basics[0] as usize..basics[1] as usize] {
                for (e, role) in r.mentions() {
                    let at = &mut rows[e as usize + 1];
                    occurs[*at as usize] = (k as u32, role);
                    *at += 1;
                    // What the goal's own state does: the events outside
                    // every `∨` are forced.
                    if self.status[e as usize] == Status::Forced {
                        match role.implied(true) {
                            Some(true) => self.open[k] -= 1,
                            Some(false) => self.killed[k] += 1,
                            None => {}
                        }
                    }
                }
            }
        }
        rows.pop();
        for counts in [&mut self.implied, &mut self.dead] {
            counts.clear();
            counts.resize(n, 0);
        }
        for (k, &c) in self.owner.iter().enumerate() {
            self.implied[c as usize] += u32::from(self.open[k] == 0);
            self.dead[c as usize] += u32::from(self.killed[k] > 0);
        }
        self.chosen.clear();
        self.chosen.resize(n, false);
        self.active.clear();
        self.active.resize(n, true);
    }

    fn status(&self, e: u32) -> Status {
        self.status[e as usize]
    }

    fn mark(&self) -> Mark {
        Mark {
            trail: self.trail.len(),
            orders: self.orders.len(),
        }
    }

    /// Is the goal, with the active constraints and the basics `extra`,
    /// consistent? The state is the goal's own again afterwards.
    fn run(&mut self, extra: &[Basic]) -> bool {
        let base = self.mark();
        let settled = extra.iter().all(|&basic| self.apply(self.resolve(basic))) && {
            self.queue.extend((0..self.active.len() as u32).rev());
            self.propagate()
        };
        let consistent = settled && self.descend();
        self.undo_to(base);
        self.queue.clear();
        self.frames.clear();
        consistent
    }

    /// True if constraint `c` needs no choice: it is not counted, a
    /// disjunct of it was chosen, or the state implies one.
    fn settled(&self, c: usize) -> bool {
        !self.active[c] || self.chosen[c] || self.implied[c] > 0
    }

    /// The depth-first search over the open constraints, in list order,
    /// from a propagated state: true at the first complete choice, which
    /// is exact (see the module doc).
    fn descend(&mut self) -> bool {
        let n = self.active.len();
        let mut at = 0;
        loop {
            while at < n && self.settled(at) {
                at += 1;
            }
            if at == n {
                return true;
            }
            let (next, mark) = (self.ways[at], self.mark());
            self.frames.push(Frame { c: at, next, mark });
            // The next live disjunct of the deepest open choice.
            loop {
                let Some(&Frame { c, next, mark }) = self.frames.last() else {
                    return false;
                };
                self.undo_to(mark);
                let mut ways = next..self.ways[c + 1];
                let Some(k) = ways.find(|&k| self.killed[k as usize] == 0) else {
                    self.frames.pop();
                    continue;
                };
                self.frames.last_mut().expect("just read").next = k + 1;
                if self.choose(c, k) && self.propagate() {
                    at = c + 1;
                    break;
                }
                self.queue.clear();
            }
        }
    }

    /// Forces, or refutes, the queued constraints: one with a single live
    /// disjunct takes it, one with none is a conflict.
    fn propagate(&mut self) -> bool {
        while let Some(c) = self.queue.pop() {
            let c = c as usize;
            if self.settled(c) {
                continue;
            }
            let ways = self.ways[c]..self.ways[c + 1];
            match ways.len() as u32 - self.dead[c] {
                0 => return false,
                1 => {
                    let k = (ways.clone())
                        .find(|&k| self.killed[k as usize] == 0)
                        .expect("one live disjunct");
                    if !self.choose(c, k) {
                        return false;
                    }
                }
                _ => {}
            }
        }
        true
    }

    /// Chooses disjunct `k` of constraint `c`: false on a conflict.
    fn choose(&mut self, c: usize, k: u32) -> bool {
        self.chosen[c] = true;
        self.trail.push(Step::Chosen(c as u32));
        let basics = self.cut[k as usize] as usize..self.cut[k as usize + 1] as usize;
        basics.into_iter().all(|r| self.apply(self.resolved[r]))
    }

    /// Applies one basic to the state: false on a conflict.
    fn apply(&mut self, r: Resolved) -> bool {
        match r.basic {
            Basic::Must(_) => self.must(r.a),
            Basic::MustNot(_) => self.must_not(r.a),
            Basic::Order(..) => {
                if r.a == r.b || !self.must(r.a) || !self.must(r.b) {
                    return false;
                }
                let (a, b) = (self.vertex[r.a as usize], self.vertex[r.b as usize]);
                self.orders.push((a, b));
                !self.graph.reaches(b, a, &self.orders)
            }
        }
    }

    /// `∇e`: commits every `∨` above `e` to it.
    fn must(&mut self, e: u32) -> bool {
        if e == NONE {
            return false;
        }
        match self.status(e) {
            Status::Forced => true,
            Status::Excluded => false,
            Status::Open => {
                // Nothing above an event that is not excluded is dead or
                // committed elsewhere.
                let mut n = self.leaf[e as usize];
                let mut p = self.parent[n as usize];
                while p != NONE {
                    if self.or[p as usize] && self.commit[p as usize] == NONE {
                        self.commit_to(p, n);
                    }
                    debug_assert!(!self.or[p as usize] || self.commit[p as usize] == n);
                    (n, p) = (p, self.parent[p as usize]);
                }
                true
            }
        }
    }

    /// `¬∇e`: kills `e`, and the death climbs through `⊗` and `|`, and
    /// through an `∨` that has no live branch left.
    fn must_not(&mut self, e: u32) -> bool {
        if e == NONE {
            return true;
        }
        match self.status(e) {
            Status::Excluded => true,
            Status::Forced => false,
            Status::Open => {
                let mut n = self.leaf[e as usize];
                loop {
                    let p = self.parent[n as usize];
                    if p == NONE {
                        return false;
                    }
                    if self.or[p as usize] {
                        if self.commit[p as usize] == n {
                            return false;
                        }
                        self.live[p as usize] -= 1;
                        self.trail.push(Step::Live(p));
                        if self.live[p as usize] > 0 {
                            break;
                        }
                    }
                    n = p;
                }
                self.exclude_range(self.first[n as usize]..self.end[n as usize]);
                true
            }
        }
    }

    /// Commits the `∨` node `p` to its branch `n`.
    fn commit_to(&mut self, p: u32, n: u32) {
        self.commit[p as usize] = n;
        self.trail.push(Step::Commit(p));
        for e in self.first[n as usize]..self.end[n as usize] {
            self.pending[e as usize] -= 1;
            if self.pending[e as usize] == 0 && self.status(e) == Status::Open {
                self.set(e, Status::Forced);
            }
        }
        let (p, n) = (p as usize, n as usize);
        self.exclude_range(self.first[p]..self.first[n]);
        self.exclude_range(self.end[n]..self.end[p]);
    }

    fn exclude_range(&mut self, events: std::ops::Range<u32>) {
        for e in events {
            if self.status(e) == Status::Open {
                self.set(e, Status::Excluded);
            }
        }
    }

    /// Moves the open event `e` to `status` and tells every disjunct that
    /// mentions it.
    fn set(&mut self, e: u32, status: Status) {
        self.status[e as usize] = status;
        self.trail.push(Step::Event(e));
        let forced = status == Status::Forced;
        for at in self.rows[e as usize]..self.rows[e as usize + 1] {
            let (k, role) = self.occurs[at as usize];
            let (k, c) = (k as usize, self.owner[k as usize]);
            match role.implied(forced) {
                Some(true) => {
                    self.open[k] -= 1;
                    self.implied[c as usize] += u32::from(self.open[k] == 0);
                }
                Some(false) => {
                    self.killed[k] += 1;
                    if self.killed[k] == 1 {
                        self.dead[c as usize] += 1;
                        self.queue.push(c);
                    }
                }
                None => {}
            }
        }
    }

    /// [`Search::set`] undone.
    fn unset(&mut self, e: u32) {
        let forced = self.status(e) == Status::Forced;
        self.status[e as usize] = Status::Open;
        for at in self.rows[e as usize]..self.rows[e as usize + 1] {
            let (k, role) = self.occurs[at as usize];
            let (k, c) = (k as usize, self.owner[k as usize] as usize);
            match role.implied(forced) {
                Some(true) => {
                    self.implied[c] -= u32::from(self.open[k] == 0);
                    self.open[k] += 1;
                }
                Some(false) => {
                    self.killed[k] -= 1;
                    self.dead[c] -= u32::from(self.killed[k] == 0);
                }
                None => {}
            }
        }
    }

    /// Undoes every step after `mark`.
    fn undo_to(&mut self, mark: Mark) {
        while self.trail.len() > mark.trail {
            match self.trail.pop().expect("longer than the mark") {
                Step::Live(p) => self.live[p as usize] += 1,
                Step::Commit(p) => {
                    let n = self.commit[p as usize] as usize;
                    for e in self.first[n]..self.end[n] {
                        self.pending[e as usize] += 1;
                    }
                    self.commit[p as usize] = NONE;
                }
                Step::Event(e) => self.unset(e),
                Step::Chosen(c) => self.chosen[c as usize] = false,
            }
        }
        self.orders.truncate(mark.orders);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_goal, GoalShape};
    use crate::goal::{conc, isolated, or, possible, seq};
    use crate::symbol::sym;
    use crate::term::{Atom, Term};

    /// A session's runs over `goal` with the normal forms `nfs`, placed.
    fn runs(goal: &Goal, nfs: &[NormalForm]) -> Runs {
        let mut runs = Runs::new(goal, nfs.len()).expect("in the fragment");
        runs.refresh(|i| &nfs[i]);
        runs
    }

    #[test]
    fn a_reflexive_order_is_inconsistent_on_the_graph_and_in_the_search() {
        // `a` occurs outside every `∨`, so `a < a` leaves the goal alone and
        // is placed as the edge `(v, v)`.
        let goal = seq(vec![
            Goal::atom("a"),
            or(vec![Goal::atom("b"), Goal::atom("c")]),
        ]);
        let (a, b, c) = (sym("a"), sym("b"), sym("c"));
        let nf = |disjuncts: Vec<Vec<Basic>>| NormalForm { disjuncts };
        let reflexive = nf(vec![vec![Basic::Order(a, a)]]);
        let wide = nf(vec![vec![Basic::Must(b)], vec![Basic::Must(c)]]);
        let nothing = [Vec::new()];
        // The graph decides: in the list, and as the query.
        assert!(!runs(&goal, std::slice::from_ref(&reflexive)).satisfiable(&nothing));
        assert!(!runs(&goal, &[]).satisfiable(&reflexive.disjuncts));
        // A wide constraint sends both to the selection search.
        let mut searched = runs(&goal, &[reflexive.clone(), wide.clone()]);
        assert!(!searched.satisfiable(&nothing));
        let mut searched = runs(&goal, &[wide]);
        assert!(searched.satisfiable(&nothing));
        assert!(!searched.satisfiable(&reflexive.disjuncts));
    }

    #[test]
    fn a_question_outside_the_fragment_answers_no() {
        // `exists(b) or exists(c)` holds on `b ∨ c` alone, and on `a ⊗ (b ∨
        // c)` around it, but not once a `◇` or a channel lies in the region.
        let (b, c) = (sym("b"), sym("c"));
        let either = NormalForm {
            disjuncts: vec![vec![Basic::Must(b)], vec![Basic::Must(c)]],
        };
        let choice = or(vec![Goal::atom("b"), Goal::atom("c")]);
        let goal = seq(vec![Goal::atom("a"), choice.clone()]);
        Layout::with(&goal, |layout| {
            assert!(layout.implies(&[(2, 5)], &either));
            assert!(layout.implies(&[(0, 5)], &either));
        });
        let beside = possible(Goal::atom("z"));
        let goal = seq(vec![Goal::atom("a"), choice, beside]);
        Layout::with(&goal, |layout| {
            assert!(layout.implies(&[(2, 5)], &either));
            assert!(!layout.implies(&[(2, 7)], &either));
        });
    }

    /// The definition the layout is held to: every event occurrence and
    /// every channel operation of `goal` with its pre-order position, `◇`
    /// bodies included, by a plain count from `next`.
    fn count(
        goal: &Goal,
        next: &mut u32,
        events: &mut Vec<(Symbol, u32)>,
        channels: &mut Vec<(Channel, u32)>,
    ) {
        let id = *next;
        *next += 1;
        match goal {
            Goal::Atom(a) => events.extend(a.as_event().map(|e| (e, id))),
            Goal::Send(c) | Goal::Receive(c) => channels.push((*c, id)),
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
                for g in gs.iter() {
                    count(g, next, events, channels);
                }
            }
            Goal::Isolated(g) | Goal::Possible(g) => count(g, next, events, channels),
            Goal::Empty | Goal::NoPath => {}
        }
    }

    /// True if `goal` is events under `⊗`, `|`, `∨` and `ε`.
    fn plain(goal: &Goal) -> bool {
        match goal {
            Goal::Atom(a) => a.as_event().is_some(),
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => gs.iter().all(plain),
            Goal::Empty => true,
            _ => false,
        }
    }

    /// Holds the layout of `goal` to [`count`] and [`plain`].
    fn check(goal: &Goal) {
        let (mut next, mut events, mut channels) = (0, Vec::new(), Vec::new());
        count(goal, &mut next, &mut events, &mut channels);
        assert_eq!(next as usize, goal.size(), "{goal}");
        channels.sort_unstable();
        let mut names: Vec<Symbol> = events.iter().map(|e| e.0).collect();
        names.sort_unstable();
        let once = names.windows(2).all(|w| w[0] != w[1]);
        names.dedup();
        let fragment = plain(goal) && once;
        Layout::with(goal, |layout| {
            for &name in &names {
                let mut laid: Vec<u32> = layout.positions(name).collect();
                laid.sort_unstable();
                let counted: Vec<u32> = (events.iter())
                    .filter(|e| e.0 == name)
                    .map(|e| e.1)
                    .collect();
                assert_eq!(laid, counted, "{name} in {goal}");
            }
            assert_eq!(layout.search.events.len(), events.len(), "{goal}");
            assert_eq!(layout.channels(), &channels[..], "{goal}");
            assert_eq!(layout.search.foreign.is_empty(), fragment, "{goal}");
        });
        assert_eq!(Runs::new(goal, 0).is_some(), fragment, "{goal}");
    }

    #[test]
    fn the_layout_is_a_plain_pre_order_count() {
        let (a, b) = (Goal::atom("a"), Goal::atom("b"));
        let (send, receive) = (Goal::Send(Channel(0)), Goal::Receive(Channel(0)));
        let condition = Goal::Atom(Atom::new("p", vec![Term::constant("x")]));
        let negated = Goal::Atom(Atom::prop("q").negate());
        let hand = [
            seq(vec![
                a.clone(),
                possible(seq(vec![b.clone(), send.clone()])),
                receive.clone(),
            ]),
            isolated(conc(vec![a.clone(), b.clone()])),
            or(vec![
                seq(vec![a.clone(), b.clone()]),
                seq(vec![b.clone(), a.clone()]),
            ]),
            seq(vec![a.clone(), possible(a.clone())]),
            seq(vec![condition, a.clone(), negated]),
            conc(vec![seq(vec![a.clone(), send]), seq(vec![receive, b])]),
            or(vec![a, Goal::Empty]),
            Goal::NoPath,
            Goal::Empty,
        ];
        hand.iter().for_each(check);
        let shape = GoalShape {
            depth: 3,
            width: 3,
            or_bias: 0.4,
        };
        for seed in 0..200 {
            let (g, _) = random_goal(seed, shape, "e");
            let (h, _) = random_goal(seed + 1_000, shape, "h");
            check(&g);
            check(&seq(vec![g.clone(), possible(h.clone())]));
            check(&conc(vec![isolated(g.clone()), h]));
            check(&seq(vec![g.clone(), g]));
        }
    }
}
