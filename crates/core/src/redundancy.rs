//! Redundancy in the run fragment, decided on the goal's series-parallel
//! order instead of by compiling (Theorem 5.10 where Proposition 4.1 puts
//! the question in P).
//!
//! [`Analyzer::minimize_constraints`](crate::analysis::Analyzer::minimize_constraints)
//! asks of each constraint `φ` in turn whether the set `R` of the others
//! still kept implies it; Theorem 5.10 answers by compiling `G ∧ R ∧ ¬φ`.
//! Here the question takes no compile when every constraint is a *run* —
//! its normal form has one disjunct: `∇e`, `¬∇e`, orders, serials and
//! conjunctions of them — and the goal is built of events, each occurring
//! once, with `⊗`, `|`, `∨` and `ε`.
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
//! orders added as edges. Without `⊙` the executions are, choice of
//! branches by choice of branches, the linear extensions of that graph, so
//! `φ` is redundant iff `G ∧ R` is inconsistent or each of its basics holds
//! on the graph:
//!
//! * `∇e`: `e` occurs in `H` outside every `∨`;
//! * `¬∇e`: `e` does not occur in `H`;
//! * `a < b`: both occur outside every `∨`, and `b` is reachable from `a`.
//!
//! A probe is linear in `|G| + |C|`, and asks the session's table nothing.
//! Its cycle and reachability tests are those of `graph.rs`, the graph
//! `Excise` finds knots on: a cycle here is a knot there.
//! It needs no restriction walk (`H` is `G`) when `R` asks no `∇` of an
//! event that is under an `∨` or absent, and no `¬∇` of one that is present.
//! [`is_redundant`](crate::analysis::is_redundant) stays the literal
//! Theorem 5.10 probe and is the referee (`tests/redundancy_referee.rs`).
//!
//! "Each event occurring once" is stricter than the unique-event property,
//! whose `∨`-branches may share events: in `(a ⊗ b) ∨ (b ⊗ a)` every
//! execution holds `a`, yet `a` lies under the `∨`. Such goals take the
//! compile.

use crate::apply::restrict;
use crate::constraints::Basic;
use crate::goal::Goal;
use crate::graph::Graph;
use crate::symbol::Symbol;

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
        graph.lay(goal, false)?;
        graph.events.sort_unstable();
        let once_each = graph.events.windows(2).all(|w| w[0].0 != w[1].0);
        once_each.then_some(graph)
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

    /// True if restricting the goal by `basic` hands it back as it is.
    fn leaves_alone(&self, basic: &Basic) -> bool {
        match *basic {
            Basic::Must(e) => self.unguarded(e).is_some(),
            Basic::MustNot(e) => self.find(e).is_none(),
            Basic::Order(a, b) => self.unguarded(a).is_some() && self.unguarded(b).is_some(),
        }
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

    /// Greedy redundancy elimination over `runs`, the one disjunct of each
    /// constraint's normal form, on this graph of `goal`: the indices
    /// [`Analyzer::minimize_constraints`](crate::analysis::Analyzer::minimize_constraints)
    /// returns.
    pub(crate) fn minimize(&self, goal: &Goal, runs: &[&[Basic]]) -> Vec<usize> {
        let alone: Vec<bool> = (runs.iter())
            .map(|run| run.iter().all(|b| self.leaves_alone(b)))
            .collect();
        let mut disturbing = alone.iter().filter(|&&alone| !alone).count();
        let mut retained: Vec<usize> = (0..runs.len()).collect();
        let mut rest = Vec::new();
        let mut probe = Probe::default();
        let mut i = 0;
        while i < retained.len() {
            let phi = retained[i];
            rest.clear();
            for &j in retained[..i].iter().chain(&retained[i + 1..]) {
                rest.extend_from_slice(runs[j]);
            }
            let redundant = if disturbing == usize::from(!alone[phi]) {
                probe.redundant(self, &rest, runs[phi])
            } else {
                let restricted = restrict(&rest, goal);
                restricted.is_nopath() || {
                    let h = SeriesParallel::of(&restricted)
                        .expect("a restriction stays in the fragment");
                    probe.redundant(&h, &rest, runs[phi])
                }
            };
            if redundant {
                retained.remove(i);
                disturbing -= usize::from(!alone[phi]);
            } else {
                i += 1;
            }
        }
        retained
    }
}

/// The vectors a probe works in, reused from one probe to the next.
#[derive(Default)]
struct Probe {
    /// `R`'s orders, as edges.
    orders: Vec<(u32, u32)>,
    graph: Graph,
}

impl Probe {
    /// Do the basics of `rest`, `R`, imply `phi`, where `h` is the graph of
    /// the goal restricted by them?
    fn redundant(&mut self, h: &SeriesParallel, rest: &[Basic], phi: &[Basic]) -> bool {
        self.orders.clear();
        self.orders.extend(h.orders(rest));
        let graph = &mut self.graph;
        graph.fill(h.vertices as usize, &h.edges, &self.orders);
        if graph.find_knots() {
            // A cycle: G ∧ R has no execution.
            return true;
        }
        phi.iter().all(|basic| match *basic {
            Basic::Must(e) => h.unguarded(e).is_some(),
            Basic::MustNot(e) => h.find(e).is_none(),
            Basic::Order(a, b) => match (h.unguarded(a), h.unguarded(b)) {
                (Some(a), Some(b)) => graph.reaches(a, b),
                _ => false,
            },
        })
    }
}
