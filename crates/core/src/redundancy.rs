//! The run fragment: consistency, verification and redundancy decided on
//! the goal's series-parallel order instead of by compiling (Theorems
//! 5.8–5.10 where Proposition 4.1 puts the questions in P).
//!
//! A session is in the fragment when every constraint is a *run* — its
//! normal form has one disjunct: `∇e`, `¬∇e`, orders, serials and
//! conjunctions of them — and the goal is built of events, each occurring
//! once, with `⊗`, `|`, `∨` and `ε`. All three queries of the
//! [`Analyzer`](crate::analysis::Analyzer) come down to one test there:
//! is `G ∧ R` consistent, for a run `R`?
//!
//! Let `H` be `G` restricted by `R`'s `∇`/`¬∇` demands, an order's ends
//! counting as `∇`: the restriction walk of a run (`apply.rs`, layer 3).
//! Each event occurring once, every `∇`-event of `R` lies outside every `∨`
//! of `H` — of an `∨` above it only its own branch survives — so `R`'s
//! orders join events that every execution of `H` holds, whichever branches
//! it takes. `G ∧ R` is then consistent iff `H` is not `¬path` and its
//! *series-parallel graph* — `⊗` chains its children exit to entry, `|` and
//! `∨` fan out from an entry vertex and back in to an exit vertex, as the
//! region graph of `excise.rs` does for channels — stays acyclic with `R`'s
//! orders added as edges. It needs no restriction walk (`H` is `G`) when
//! `R` asks no `∇` of an event that is under an `∨` or absent, and no `¬∇`
//! of one that is present. The cycle test is that of `graph.rs`, the graph
//! `Excise` finds knots on: a cycle here is a knot there.
//!
//! * **Consistency** (Thm 5.8): `R` is the concatenation of the
//!   constraints' runs.
//! * **Verification** (Thm 5.9): `φ` holds iff no disjunct of `¬φ`'s
//!   normal form, appended to the constraints' runs, is consistent — at
//!   most `d` tests, one for a Klein order. A session keeps the graph of
//!   `G` with `C`'s orders from one query to the next, so a disjunct that
//!   is one order `a < b` is one reachability test: it is consistent iff
//!   `b` does not reach `a`. Only a violated property compiles, for its
//!   most general counterexample.
//! * **Redundancy** (Thm 5.10): without `⊙` the executions of `H` are,
//!   choice of branches by choice of branches, the linear extensions of its
//!   graph, so `φ` is implied by the kept runs `R` iff `G ∧ R` is
//!   inconsistent or each basic of `φ` holds on the graph: `∇e` iff `e`
//!   occurs in `H` outside every `∨`; `¬∇e` iff `e` does not occur in `H`;
//!   `a < b` iff both occur outside every `∨` and `b` is reachable from
//!   `a`.
//! * **The conflict**: an inconsistent list's minimal conflicting subset,
//!   found by deletion, one test per constraint.
//!
//! A test is linear in `|G| + |C|` and asks the session's table for
//! nothing but the normal forms of constraints edited since the last one.
//! [`is_consistent`](crate::analysis::is_consistent),
//! [`verify`](crate::analysis::verify) and
//! [`is_redundant`](crate::analysis::is_redundant) stay the theorems'
//! compiles as written and are the referees
//! (`tests/consistency_referee.rs`, `tests/redundancy_referee.rs`).
//!
//! "Each event occurring once" is stricter than the unique-event property,
//! whose `∨`-branches may share events: in `(a ⊗ b) ∨ (b ⊗ a)` every
//! execution holds `a`, yet `a` lies under the `∨`. Such goals take the
//! compile.

use crate::apply::restrict;
use crate::constraints::{Basic, Conjunct, NormalForm};
use crate::goal::Goal;
use crate::graph::Graph;
use crate::symbol::Symbol;
use std::borrow::Borrow;

/// The series-parallel graph of a goal in the fragment.
#[derive(Default)]
pub(crate) struct SeriesParallel {
    /// Every event with its vertex and whether an `∨` is above it, sorted.
    events: Vec<(Symbol, u32, bool)>,
    vertices: u32,
    edges: Vec<(u32, u32)>,
}

impl SeriesParallel {
    /// The graph of `goal`, or `None` when the goal is outside the
    /// fragment.
    pub(crate) fn of(goal: &Goal) -> Option<SeriesParallel> {
        let mut graph = SeriesParallel::default();
        graph.lay_out(goal).then_some(graph)
    }

    /// Lays `goal` out in place of the graph before, reusing its vectors;
    /// false when the goal is outside the fragment.
    fn lay_out(&mut self, goal: &Goal) -> bool {
        self.events.clear();
        self.edges.clear();
        self.vertices = 0;
        if self.lay(goal, false).is_none() {
            return false;
        }
        self.events.sort_unstable();
        self.events.windows(2).all(|w| w[0].0 != w[1].0)
    }

    /// Lays `goal` out and returns its entry and exit vertices.
    fn lay(&mut self, goal: &Goal, guarded: bool) -> Option<(u32, u32)> {
        match goal {
            Goal::Atom(a) => {
                let event = a.as_event()?;
                let v = self.vertex();
                self.events.push((event, v, guarded));
                Some((v, v))
            }
            Goal::Empty => {
                let v = self.vertex();
                Some((v, v))
            }
            Goal::Seq(gs) => {
                let mut span: Option<(u32, u32)> = None;
                for g in gs.iter() {
                    let (entry, exit) = self.lay(g, guarded)?;
                    span = Some(match span {
                        Some((first, last)) => {
                            self.edges.push((last, entry));
                            (first, exit)
                        }
                        None => (entry, exit),
                    });
                }
                span
            }
            Goal::Conc(gs) | Goal::Or(gs) => {
                let guarded = guarded || matches!(goal, Goal::Or(_));
                let (entry, exit) = (self.vertex(), self.vertex());
                for g in gs.iter() {
                    let (first, last) = self.lay(g, guarded)?;
                    self.edges.extend([(entry, first), (last, exit)]);
                }
                Some((entry, exit))
            }
            Goal::Isolated(_) | Goal::Possible(_) | Goal::Send(_) | Goal::Receive(_) => None,
            Goal::NoPath => None,
        }
    }

    fn vertex(&mut self) -> u32 {
        self.vertices += 1;
        self.vertices - 1
    }

    /// `event`'s vertex, and whether an `∨` is above it.
    fn find(&self, event: Symbol) -> Option<(u32, bool)> {
        let at = self.events.binary_search_by_key(&event, |e| e.0).ok()?;
        let (_, vertex, guarded) = self.events[at];
        Some((vertex, guarded))
    }

    /// `event`'s vertex, if it occurs outside every `∨`.
    fn unguarded(&self, event: Symbol) -> Option<u32> {
        match self.find(event) {
            Some((vertex, false)) => Some(vertex),
            _ => None,
        }
    }

    /// `basic` placed on this graph.
    fn place(&self, basic: Basic) -> Placed {
        let (alone, edge) = match basic {
            Basic::Must(e) => (self.unguarded(e).is_some(), None),
            Basic::MustNot(e) => (self.find(e).is_none(), None),
            Basic::Order(a, b) => match (self.unguarded(a), self.unguarded(b)) {
                (Some(a), Some(b)) => (true, Some((a, b))),
                _ => (false, None),
            },
        };
        Placed { basic, alone, edge }
    }

    /// The edges the orders among `basics` add, from `a` to `b` for each
    /// `a < b`; their events occur outside every `∨` (it panics otherwise:
    /// restriction by them has put them there).
    fn orders<'a>(&'a self, basics: &'a [Basic]) -> impl Iterator<Item = (u32, u32)> + 'a {
        let vertex = |e| (self.unguarded(e)).expect("R's ∇-events occur in H outside every ∨");
        basics.iter().filter_map(move |basic| match *basic {
            Basic::Order(a, b) => Some((vertex(a), vertex(b))),
            _ => None,
        })
    }
}

/// The vectors a test works in, reused from one test to the next, so that
/// a session's tests allocate nothing once they are warm (the restriction
/// walk aside).
#[derive(Default)]
struct Probe {
    /// `R`, the basics the test is about.
    rest: Vec<Basic>,
    /// `R`'s orders, as edges.
    orders: Vec<(u32, u32)>,
    /// The graph of `H` when the restriction walk changed `G`.
    restricted: SeriesParallel,
    graph: Graph,
}

impl Probe {
    /// Is `G ∧ R` consistent, where `g` is the graph of `goal`, `R` is
    /// `self.rest`, and `alone` says that `R` leaves `G` alone? When it is,
    /// [`Probe::holds`] answers on `H`'s graph with `R`'s orders.
    fn consistent(&mut self, g: &SeriesParallel, goal: &Goal, alone: bool) -> bool {
        let h = if alone {
            g
        } else {
            let restricted = restrict(&self.rest, goal);
            if restricted.is_nopath() {
                return false;
            }
            let laid = self.restricted.lay_out(&restricted);
            assert!(laid, "a restriction stays in the fragment");
            &self.restricted
        };
        self.orders.clear();
        self.orders.extend(h.orders(&self.rest));
        acyclic(&mut self.graph, h, &self.orders)
    }

    /// Does every execution of the consistent `G ∧ R` satisfy the basics
    /// `phi`? Asked right after [`Probe::consistent`] said yes, with the
    /// same `g` and `alone`.
    fn holds(
        &mut self,
        g: &SeriesParallel,
        alone: bool,
        mut phi: impl Iterator<Item = Basic>,
    ) -> bool {
        let h = if alone { g } else { &self.restricted };
        let graph = &mut self.graph;
        phi.all(|basic| match basic {
            Basic::Must(e) => h.unguarded(e).is_some(),
            Basic::MustNot(e) => h.find(e).is_none(),
            Basic::Order(a, b) => match (h.unguarded(a), h.unguarded(b)) {
                (Some(a), Some(b)) => graph.reaches(a, b),
                _ => false,
            },
        })
    }
}

/// True if `h`'s graph stays acyclic with the edges `orders` added, filled
/// into `graph`.
fn acyclic(graph: &mut Graph, h: &SeriesParallel, orders: &[(u32, u32)]) -> bool {
    graph.fill(h.vertices as usize, &h.edges, orders);
    graph.acyclic()
}

/// A basic of a session's run, placed on the goal's graph.
#[derive(Clone, Copy)]
struct Placed {
    basic: Basic,
    /// True if restricting the goal by the basic hands it back as it is.
    alone: bool,
    /// The edge an order that leaves the goal alone adds.
    edge: Option<(u32, u32)>,
}

/// Where a constraint's basics end in [`Runs`]' `placed`, whether its
/// normal form is one run (a constraint that is not has none), and whether
/// it was edited since they were placed.
#[derive(Clone, Copy)]
struct Slot {
    end: usize,
    run: bool,
    stale: bool,
}

/// A session's constraints as runs over its goal's series-parallel graph,
/// kept in step with the constraint list: an edit marks its own
/// constraint, and the next query places that constraint's run in place of
/// the old one, so that a query only tests.
pub(crate) struct Runs {
    /// The goal's graph.
    order: SeriesParallel,
    /// The basics of every constraint that is a run, in list order.
    placed: Vec<Placed>,
    /// One per constraint.
    slots: Vec<Slot>,
    /// How many constraints are not runs.
    wider: usize,
    /// How many basics of `placed` do not leave the goal alone.
    disturbing: usize,
    /// How many slots are stale.
    stale: usize,
    /// The goal's graph with every order of `placed` added, and whether it
    /// is acyclic — filled by the first test that needs it after an edit,
    /// while no basic disturbs the goal.
    whole: Graph,
    whole_acyclic: Option<bool>,
    probe: Probe,
}

impl Runs {
    /// The runs of `constraints` constraints, all stale, over `order`, the
    /// graph of the session's goal.
    pub(crate) fn new(order: SeriesParallel, constraints: usize) -> Runs {
        let stale = Slot {
            end: 0,
            run: true,
            stale: true,
        };
        Runs {
            order,
            placed: Vec::new(),
            slots: vec![stale; constraints],
            wider: 0,
            disturbing: 0,
            stale: constraints,
            whole: Graph::default(),
            whole_acyclic: None,
            probe: Probe::default(),
        }
    }

    /// Where constraint `i`'s basics begin in `placed`.
    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.slots[i - 1].end
        }
    }

    /// Where constraint `i`'s basics lie in `placed`.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        self.start(i)..self.slots[i].end
    }

    /// Constraint `i` was replaced.
    pub(crate) fn replace(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        self.stale += usize::from(!slot.stale);
        slot.stale = true;
    }

    /// A constraint was inserted at `i`.
    pub(crate) fn insert(&mut self, i: usize) {
        let slot = Slot {
            end: self.start(i),
            run: true,
            stale: true,
        };
        self.slots.insert(i, slot);
        self.stale += 1;
    }

    /// Constraint `i` was removed.
    pub(crate) fn remove(&mut self, i: usize) {
        let span = self.span(i);
        let gone = span.len();
        self.disturbing -= (self.placed[span.clone()].iter())
            .filter(|p| !p.alone)
            .count();
        self.placed.drain(span);
        let slot = self.slots.remove(i);
        self.wider -= usize::from(!slot.run);
        self.stale -= usize::from(slot.stale);
        for slot in &mut self.slots[i..] {
            slot.end -= gone;
        }
        self.whole_acyclic = None;
    }

    /// Places the run of every stale constraint, `normal(i)` being the
    /// normal form of constraint `i`, and returns true when every
    /// constraint is a run: the session is in the fragment.
    pub(crate) fn refresh<N: Borrow<NormalForm>>(
        &mut self,
        mut normal: impl FnMut(usize) -> N,
    ) -> bool {
        if self.stale > 0 {
            for i in 0..self.slots.len() {
                if self.slots[i].stale {
                    self.put(i, normal(i).borrow());
                }
            }
            self.whole_acyclic = None;
        }
        self.wider == 0
    }

    /// Puts `nf`'s run in place of constraint `i`'s basics.
    fn put(&mut self, i: usize, nf: &NormalForm) {
        let run = match &nf.disjuncts[..] {
            [run] => Some(&run[..]),
            _ => None,
        };
        let span = self.span(i);
        let (was, basics) = (span.len(), run.unwrap_or_default());
        let gone = (self.placed[span.clone()].iter())
            .filter(|p| !p.alone)
            .count();
        let (order, mut added) = (&self.order, 0);
        let placed = basics.iter().map(|&basic| {
            let placed = order.place(basic);
            added += usize::from(!placed.alone);
            placed
        });
        if was == basics.len() {
            for (old, new) in self.placed[span].iter_mut().zip(placed) {
                *old = new;
            }
        } else {
            self.placed.splice(span, placed);
            for slot in &mut self.slots[i..] {
                slot.end = slot.end + basics.len() - was;
            }
        }
        self.disturbing = self.disturbing + added - gone;
        let slot = &mut self.slots[i];
        self.wider = self.wider + usize::from(run.is_none()) - usize::from(!slot.run);
        self.stale -= 1;
        *slot = Slot {
            end: slot.end,
            run: run.is_some(),
            stale: false,
        };
    }

    /// Is `G ∧ C ∧ extra` consistent, `C` being every constraint, each a
    /// run and none stale? While `C` and `extra` leave `G` alone this asks
    /// the graph of `G` and `C`'s orders, kept from one query to the next:
    /// `extra` of one order `a < b` adds a cycle iff `b` reaches `a` there.
    fn consistent(&mut self, goal: &Goal, extra: &[Basic]) -> bool {
        debug_assert!(self.stale == 0 && self.wider == 0);
        let (order, probe) = (&self.order, &mut self.probe);
        if self.disturbing == 0 && extra.iter().all(|&b| order.place(b).alone) {
            let (whole, placed) = (&mut self.whole, &self.placed);
            let consistent = *self.whole_acyclic.get_or_insert_with(|| {
                probe.orders.clear();
                probe.orders.extend(placed.iter().filter_map(|p| p.edge));
                acyclic(whole, order, &probe.orders)
            });
            probe.orders.clear();
            probe.orders.extend(order.orders(extra));
            return match probe.orders[..] {
                _ if !consistent => false,
                [] => true,
                [(a, b)] => !whole.reaches(b, a),
                _ => {
                    probe.orders.extend(placed.iter().filter_map(|p| p.edge));
                    acyclic(&mut probe.graph, order, &probe.orders)
                }
            };
        }
        probe.rest.clear();
        probe.rest.extend(self.placed.iter().map(|p| p.basic));
        probe.rest.extend_from_slice(extra);
        probe.consistent(order, goal, false)
    }

    /// Does some execution of `G ∧ C` satisfy one of `disjuncts`, the
    /// normal form of a constraint? Asked after [`Runs::refresh`] said the
    /// session is in the fragment, as are [`Runs::minimize`] and
    /// [`Runs::conflict`].
    pub(crate) fn satisfiable(&mut self, goal: &Goal, disjuncts: &[Conjunct]) -> bool {
        disjuncts.iter().any(|d| self.consistent(goal, d))
    }

    /// Fills `self.probe.rest` with the runs of `kept` but its `skip`-th,
    /// and returns whether they leave the goal alone.
    fn gather(&mut self, kept: &[usize], skip: usize) -> bool {
        self.probe.rest.clear();
        let mut alone = true;
        for (k, &j) in kept.iter().enumerate() {
            if k != skip {
                let run = &self.placed[self.span(j)];
                self.probe.rest.extend(run.iter().map(|p| p.basic));
                alone &= run.iter().all(|p| p.alone);
            }
        }
        alone
    }

    /// Greedy redundancy elimination: the indices
    /// [`Analyzer::minimize_constraints`](crate::analysis::Analyzer::minimize_constraints)
    /// returns. Each constraint in turn is dropped when the kept ones before
    /// it and all the ones after it imply it.
    pub(crate) fn minimize(&mut self, goal: &Goal) -> Vec<usize> {
        let mut retained: Vec<usize> = (0..self.slots.len()).collect();
        let mut i = 0;
        while i < retained.len() {
            let alone = self.gather(&retained, i);
            let phi = &self.placed[self.span(retained[i])];
            let (order, probe) = (&self.order, &mut self.probe);
            let redundant = !probe.consistent(order, goal, alone)
                || probe.holds(order, alone, phi.iter().map(|p| p.basic));
            if redundant {
                retained.remove(i);
            } else {
                i += 1;
            }
        }
        retained
    }

    /// A minimal conflicting subset of an inconsistent constraint list, by
    /// deletion: each constraint in turn is dropped when the rest of the
    /// subset still in play stays inconsistent without it. What is left
    /// is inconsistent, and consistent with any one of its members dropped.
    pub(crate) fn conflict(&mut self, goal: &Goal) -> Vec<usize> {
        let mut kept: Vec<usize> = (0..self.slots.len()).collect();
        let mut i = 0;
        while i < kept.len() {
            let alone = self.gather(&kept, i);
            if self.probe.consistent(&self.order, goal, alone) {
                i += 1;
            } else {
                kept.remove(i);
            }
        }
        kept
    }
}
