//! The `Excise` transformation (paper, §5, "Knots").
//!
//! After `Apply` compiles order constraints into `send(ξ)`/`receive(ξ)`
//! pairs, the resulting goal may contain **knots** — sub-formulas where the
//! synchronization primitives wait on each other cyclically, so no
//! execution can complete (Example 5.7). Model-theoretically such a
//! formula is equivalent to `¬path`. `Excise` rewrites a compiled goal
//! into an equivalent knot-free goal, or into `¬path` if the whole
//! specification is inconsistent; on failure it also produces `G_fail`,
//! the smallest subpart of the workflow that is inconsistent with the
//! constraints, as designer feedback.
//!
//! # Algorithm
//!
//! The implementation is the "variant of the proof theory" the paper
//! alludes to, phrased as a static analysis:
//!
//! 1. `∨` at the root distributes: `Excise(A ∨ B) = Excise(A) ∨ Excise(B)`.
//!    This is exact — atoms in different branches of one `∨` never
//!    co-occur in an execution.
//! 2. A choice-rooted-free region is walked once. The walk lays the
//!    **occurrences** — every `send`/`receive` on the path, and the begin
//!    and end of every `⊙`-block that has a channel below, which stand for
//!    the block in waits that cross its boundary, so those respect
//!    atomicity — and the interior nodes leading to them into a flat
//!    arena (parent, child index, depth, number of `∨` above, innermost
//!    block), and emits the **series-parallel graph** of what it lays:
//!    `⊗` chains its channel-bearing children exit to entry; `|`, `∨` and
//!    `⊙` fan an entry vertex out to their children's entries and the
//!    children's exits in to an exit vertex. One occurrence reaches
//!    another through these edges exactly when it **precedes** it (their
//!    lowest common ancestor is a `⊗`) or is the begin/end of a block
//!    around it. Subtrees without a channel are passed over in O(1) — the
//!    goal caches that per node — so a channel-free region is not walked
//!    at all. Two occurrences can **co-occur** when their lowest common
//!    ancestor, found over the parent links, is not an `∨`.
//!    An `∨` of the region whose channels are its own — every operation
//!    of each channel it holds lies below it — is excised first, where it
//!    stands, branch by branch as a root `∨` is, and the walk laid again
//!    passing over it: no wait crosses it and a subtree is a module of the
//!    series-parallel order, so no knot enters it and comes back. The `∨`s
//!    `Apply` leaves at its scopes are such, and stay where they are.
//! 3. The `send`s and `receive`s are grouped by channel (one sort, walk
//!    order kept inside a group), and every question below looks only at
//!    its own channel's group. A `receive` with no co-occurrence-guaranteed
//!    `send` (none whose `∨`-ancestors all lie above the point where the
//!    two part ways) is a dead wait; the first such in walk order is
//!    resolved by expanding the outermost `∨` above it — or, if it is
//!    unconditional, above its first conditional `send` — into its
//!    branches and recursing, which is exact: the goal is equivalent to
//!    the disjunction of its branch-instantiations. With nothing to
//!    expand, the region rewrites to `¬path`.
//! 4. Otherwise the graph gets its channel edges `send(ξ) → receive(ξ)`
//!    between co-occurring pairs, each lifted to the end/begin of the
//!    outermost block only one of its ends is in, and one Tarjan pass over
//!    flat adjacency finds the strongly connected components (`graph.rs`,
//!    whose cycle test the graph fragment asks too). Each one with more
//!    than one vertex is a **knot**. The one acted on is a
//!    function of the goal: the knot holding the earliest occurrence in
//!    walk order, its occurrences taken in walk order. The first
//!    conditional one (under some `∨`) has its outermost `∨` expanded as in
//!    step 3; if all are unconditional the cycle dooms every execution and
//!    the region rewrites to `¬path`, reported as a cyclic wait among the
//!    knot's channels at its occurrences' lowest common ancestor.
//!
//! For goals produced by `Apply` on unique-event inputs, every execution
//! containing a `receive(ξ)` also contains the matching `send(ξ)` by
//! construction, and each channel has one send and one receive per
//! execution; on this class the analysis needs no expansion beyond the
//! knot-entangled choices. The graph has at most two vertices and two
//! structural edges per arena node and one channel edge per co-occurring
//! (send, receive) pair of a channel — one pair per channel in this class
//! — so a region costs the walk of its channel-bearing part, a sort of its
//! channel operations, and a pair test that climbs the tree only when both
//! ends are conditional: proportional to the goal size but for the sort's
//! logarithm (Theorem 5.11). The arena, the edges and Tarjan's arrays are
//! one set of flat vectors per `excise` call, reused from region to region.
//! Experiment E2 times it; `tests/apply_allocs.rs` and the `region_graph_*`
//! tests below count it. The pairwise definitions this replaces — every
//! occurrence with its explicit path, an edge for every related ordered
//! pair — are kept in the tests as the specification it is checked against.

use crate::apply::{map_connective, Op, Parallelism, Scratch, Table};
use crate::goal::{Channel, Goal};
use crate::graph::Graph;
use std::fmt;

/// Why a region was rewritten to `¬path`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KnotKind {
    /// A cyclic wait among the listed channels.
    CyclicWait(Vec<Channel>),
    /// A `receive` on the channel that no execution can ever satisfy.
    DeadReceive(Channel),
}

/// Designer feedback for an inconsistent (sub)workflow: the paper's
/// `G_fail`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnotReport {
    /// The nature of the knot.
    pub kind: KnotKind,
    /// The smallest subgoal spanning the knot, before it was excised.
    pub subgoal: Goal,
}

impl fmt::Display for KnotReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            KnotKind::CyclicWait(chs) => {
                write!(f, "cyclic wait among channels [")?;
                for (i, c) in chs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "] in `{}`", self.subgoal)
            }
            KnotKind::DeadReceive(c) => {
                write!(
                    f,
                    "receive({c}) can never be satisfied in `{}`",
                    self.subgoal
                )
            }
        }
    }
}

/// Outcome of [`excise_with_diagnostics`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExciseResult {
    /// The knot-free equivalent goal (possibly `¬path`).
    pub goal: Goal,
    /// One report per excised knot.
    pub reports: Vec<KnotReport>,
    /// False when the region contained co-occurring multiple sends on one
    /// channel — a shape `Apply` never produces — for which knot-freeness
    /// is not statically guaranteed and the run-time scheduler must be
    /// prepared to backtrack.
    pub guaranteed_knot_free: bool,
}

/// `Excise(G)`: rewrites `G` into an equivalent knot-free goal, or
/// `¬path`.
pub fn excise(goal: &Goal) -> Goal {
    excise_with_diagnostics(goal).goal
}

/// [`excise`] with `G_fail` diagnostics.
pub fn excise_with_diagnostics(goal: &Goal) -> ExciseResult {
    excise_in(&mut Scratch, goal)
}

/// [`excise_with_diagnostics`], under the name `benchmark/` calls; see
/// [`Parallelism`].
#[doc(hidden)]
pub fn excise_with_diagnostics_par(goal: &Goal, _: Parallelism) -> ExciseResult {
    excise_with_diagnostics(goal)
}

/// [`excise_with_diagnostics`] through `table`, which is asked for each
/// region's outcome (diagnostics included) and for the final
/// canonicalization.
pub(crate) fn excise_in<T: Table>(table: &mut T, goal: &Goal) -> ExciseResult {
    let mut reports = Vec::new();
    let mut guaranteed = true;
    let mut region = Region::default();
    let out = excise_inner(table, goal, &mut region, &mut reports, &mut guaranteed);
    ExciseResult {
        goal: table.rewrite(Op::Simplify, &out, |_| out.simplify()),
        reports,
        guaranteed_knot_free: guaranteed,
    }
}

fn excise_inner<T: Table>(
    table: &mut T,
    goal: &Goal,
    region: &mut Region,
    reports: &mut Vec<KnotReport>,
    guaranteed: &mut bool,
) -> Goal {
    // Exact distribution at a disjunctive root: each branch is its own
    // region, and so its own unit for the table. Branches that come back
    // as themselves — every channel-free one does — leave the node as it
    // is.
    if let Goal::Or(_) = goal {
        return map_connective(goal, |g| {
            excise_inner(table, g, region, reports, guaranteed)
        });
    }
    let outcome = table.region(goal, || {
        let mut reports = Vec::new();
        let mut guaranteed = true;
        let goal = excise_region(goal, region, &mut reports, &mut guaranteed);
        ExciseResult {
            goal,
            reports,
            guaranteed_knot_free: guaranteed,
        }
    });
    reports.extend(outcome.reports);
    *guaranteed &= outcome.guaranteed_knot_free;
    outcome.goal
}

// ---------------------------------------------------------------------------
// The region arena and its series-parallel graph
// ---------------------------------------------------------------------------

/// "No such node": the parent of the root, the block of a node outside
/// every `⊙`.
const NONE: u32 = u32::MAX;

/// What an arena node is. `Send`, `Recv`, `Begin` and `End` are the
/// **occurrences** — the points a wait can start or end at; the rest is
/// the spine that leads to them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// A `⊗` node. It has no vertex of its own: its entry is its first
    /// channel-bearing child's, its exit the last one's.
    Seq,
    /// Entry vertex of a `|`; the node after it is the exit ([`Kind::Join`]).
    Conc,
    /// Entry vertex of an `∨`, exit likewise.
    Or,
    /// Exit vertex of the `|`/`∨` entered at the node before it.
    Join,
    /// Start of an `⊙`-block that has a channel below — the block's entry
    /// vertex, and the spine node its body hangs from. The node after it
    /// is the block's [`Kind::End`]. The block is named by this node.
    Begin,
    /// End of that block: its exit vertex.
    End,
    Send(Channel),
    Recv(Channel),
}

/// One node of the region laid flat: where it sits in the tree, and the
/// two aggregates of its ancestry the analysis asks about. Paths are not
/// stored; [`Region::path`] rebuilds one from the parent links for the
/// single node a report or an expansion names.
#[derive(Clone, Copy, Debug)]
struct Node {
    kind: Kind,
    /// The spine node this one hangs from ([`NONE`] at the root). A
    /// `Join`/`End` has its entry's.
    parent: u32,
    /// Index among the parent's children in the goal.
    child: u32,
    /// Number of proper ancestors — the length of the path.
    depth: u32,
    /// How many of them are `∨`: the node is *guarded* when not zero.
    ors: u32,
    /// The innermost `⊙`-block around the node (its `Begin`), or [`NONE`].
    block: u32,
}

/// A choice-rooted-free region as the analysis sees it — the
/// channel-bearing part of the tree in walk order, and a graph over the
/// same indices whose reachability is the "must happen before" of the
/// region — with the vectors the analysis works in. One `Region` serves a
/// whole `excise` call, each region laid into it in turn, so only the first
/// few regions allocate.
#[derive(Default)]
struct Region {
    nodes: Vec<Node>,
    /// `(from, to)`, in no particular order. The structural edges make the
    /// series-parallel graph of the tree — `⊗` chains its channel-bearing
    /// children exit to entry, `|`/`∨`/`⊙` fan their entry out and their
    /// exit in — so one occurrence reaches another through them exactly
    /// when it precedes it in the series-parallel order or is the
    /// `Begin`/`End` of a block around it. [`Region::add_waits`] adds
    /// `send(ξ) → receive(ξ)`.
    edges: Vec<(u32, u32)>,
    /// The `send`s and `receive`s, sorted for [`by_channel`].
    ops: Vec<ChannelOp>,
    /// The edges in compressed rows, with the knot each vertex is on.
    graph: Graph,
    /// The closed `∨`s of the region, excised where they stand: the walk
    /// passes over them as over channel-free subtrees.
    opaque: Vec<Goal>,
}

/// A `send` or `receive` of a region: `(channel, is a receive, node)`.
type ChannelOp = (Channel, bool, u32);

/// The sorted channel operations of a region channel by channel: a
/// channel's sends and its receives, each in walk order.
fn by_channel(ops: &[ChannelOp]) -> impl Iterator<Item = (&[ChannelOp], &[ChannelOp])> {
    ops.chunk_by(|a, b| a.0 == b.0)
        .map(|channel| channel.split_at(channel.partition_point(|op| !op.1)))
}

impl Region {
    /// Lays out `goal` in place of whatever region was here; false when
    /// no occurrence is on its path.
    fn lay(&mut self, goal: &Goal) -> bool {
        self.nodes.clear();
        self.edges.clear();
        let root = Node {
            kind: Kind::Seq,
            parent: NONE,
            child: 0,
            depth: 0,
            ors: 0,
            block: NONE,
        };
        self.walk(goal, root).is_some()
    }

    /// Appends the part of `goal` that bears a channel, at the position
    /// `at` describes (its `kind` is filled in here), and returns the
    /// subtree's entry and exit vertices. A subtree with no occurrence on
    /// the path leaves the region as it found it.
    fn walk(&mut self, goal: &Goal, at: Node) -> Option<(u32, u32)> {
        if !goal.has_channels() || self.opaque.iter().any(|o| o.ptr_eq(goal)) {
            return None;
        }
        let me = u32::try_from(self.nodes.len()).expect("fewer than 2^32 nodes in a region");
        let below = |child: usize, ors: u32, block: u32| Node {
            parent: me,
            child: child as u32,
            depth: at.depth + 1,
            ors,
            block,
            ..at
        };
        match goal {
            Goal::Send(c) => {
                self.nodes.push(Node {
                    kind: Kind::Send(*c),
                    ..at
                });
                Some((me, me))
            }
            Goal::Receive(c) => {
                self.nodes.push(Node {
                    kind: Kind::Recv(*c),
                    ..at
                });
                Some((me, me))
            }
            Goal::Seq(gs) => {
                self.nodes.push(Node {
                    kind: Kind::Seq,
                    ..at
                });
                let mut span: Option<(u32, u32)> = None;
                for (i, g) in gs.iter().enumerate() {
                    if let Some((entry, exit)) = self.walk(g, below(i, at.ors, at.block)) {
                        if let Some((_, last)) = span {
                            self.edges.push((last, entry));
                        }
                        span = Some((span.map_or(entry, |(first, _)| first), exit));
                    }
                }
                if span.is_none() {
                    self.nodes.truncate(me as usize);
                }
                span
            }
            Goal::Conc(gs) | Goal::Or(gs) => {
                let (kind, ors) = match goal {
                    Goal::Or(_) => (Kind::Or, at.ors + 1),
                    _ => (Kind::Conc, at.ors),
                };
                self.nodes.push(Node { kind, ..at });
                self.nodes.push(Node {
                    kind: Kind::Join,
                    ..at
                });
                let before = self.edges.len();
                for (i, g) in gs.iter().enumerate() {
                    if let Some((entry, exit)) = self.walk(g, below(i, ors, at.block)) {
                        self.edges.push((me, entry));
                        self.edges.push((exit, me + 1));
                    }
                }
                if self.edges.len() == before {
                    self.nodes.truncate(me as usize);
                    return None;
                }
                Some((me, me + 1))
            }
            Goal::Isolated(g) => {
                self.nodes.push(Node {
                    kind: Kind::Begin,
                    ..at
                });
                self.nodes.push(Node {
                    kind: Kind::End,
                    ..at
                });
                match self.walk(g, below(0, at.ors, me)) {
                    Some((entry, exit)) => {
                        self.edges.push((me, entry));
                        self.edges.push((exit, me + 1));
                    }
                    // Its channels are all under ◇. The block stays an
                    // occurrence, as a point other waits are ordered around.
                    None => self.edges.push((me, me + 1)),
                }
                Some((me, me + 1))
            }
            // ◇ bodies never execute on the path; their channel operations
            // take no part in scheduling.
            Goal::Possible(_) | Goal::Atom(_) | Goal::Empty | Goal::NoPath => None,
        }
    }

    fn node(&self, v: u32) -> &Node {
        &self.nodes[v as usize]
    }

    /// The occurrences, in walk order.
    fn occurrences(&self) -> impl Iterator<Item = u32> + '_ {
        (0u32..).zip(&self.nodes).filter_map(|(v, node)| {
            matches!(
                node.kind,
                Kind::Send(_) | Kind::Recv(_) | Kind::Begin | Kind::End
            )
            .then_some(v)
        })
    }

    /// Gathers the `send`s and `receive`s, sorted for [`by_channel`].
    fn gather_ops(&mut self) {
        self.ops.clear();
        let ops = (0u32..)
            .zip(&self.nodes)
            .filter_map(|(v, node)| match node.kind {
                Kind::Send(c) => Some((c, false, v)),
                Kind::Recv(c) => Some((c, true, v)),
                _ => None,
            });
        self.ops.extend(ops);
        self.ops.sort_unstable();
    }

    /// The outermost *closed* `∨`s laid out, in walk order: each holds an
    /// operation, and every operation of each channel it holds one of
    /// lies below it.
    fn closed_ors(&self) -> Vec<u32> {
        let mut closed = Vec::new();
        let mut covered = 0;
        for (v, n) in (0u32..).zip(&self.nodes) {
            if n.kind != Kind::Or || v < covered {
                continue;
            }
            // Its subtree: the nodes laid after it (and its `Join`) down to
            // the first that is no deeper than it.
            let end = (v + 2..)
                .zip(&self.nodes[v as usize + 2..])
                .find_map(|(i, m)| (m.depth <= n.depth).then_some(i))
                .unwrap_or(self.nodes.len() as u32);
            let inside = |op: &ChannelOp| (v..end).contains(&op.2);
            let (mut held, mut own) = (false, true);
            for channel in self.ops.chunk_by(|a, b| a.0 == b.0) {
                let any = channel.iter().any(inside);
                own &= !any || channel.iter().all(inside);
                held |= any;
            }
            if held && own {
                closed.push(v);
                covered = end;
            }
        }
        closed
    }

    /// Child indices from the region root down to `v`.
    fn path(&self, mut v: u32) -> Vec<usize> {
        let mut path = vec![0; self.node(v).depth as usize];
        for step in path.iter_mut().rev() {
            *step = self.node(v).child as usize;
            v = self.node(v).parent;
        }
        path
    }

    /// The lowest node both `a` and `b` are at or below; an `End` stands
    /// where its block does.
    fn common_ancestor(&self, a: u32, b: u32) -> u32 {
        let site = |v: u32| {
            if self.node(v).kind == Kind::End {
                v - 1
            } else {
                v
            }
        };
        let (mut a, mut b) = (site(a), site(b));
        while a != b {
            if self.node(a).depth >= self.node(b).depth {
                a = self.node(a).parent;
            } else {
                b = self.node(b).parent;
            }
        }
        a
    }

    /// True if some execution can contain both leaves: they do not part
    /// ways at an `∨`. An unguarded one is in every execution the other
    /// is in.
    fn compatible(&self, a: u32, b: u32) -> bool {
        self.node(a).ors == 0
            || self.node(b).ors == 0
            || self.node(self.common_ancestor(a, b)).kind != Kind::Or
    }

    /// True if every execution containing the leaf `r` also contains the
    /// leaf `s`: all of `s`'s choices are made above the point where the
    /// two part ways, where `r` makes the same ones.
    fn guards_implied(&self, s: u32, r: u32) -> bool {
        let guards = self.node(s).ors;
        guards == 0 || guards == self.node(self.common_ancestor(s, r)).ors
    }

    /// The outermost `∨` above the guarded node `v`.
    fn outermost_or(&self, v: u32) -> u32 {
        let mut found = NONE;
        let mut up = self.node(v).parent;
        while up != NONE {
            if self.node(up).kind == Kind::Or {
                found = up;
            }
            up = self.node(up).parent;
        }
        debug_assert_ne!(found, NONE, "a guarded node has an ∨ above it");
        found
    }

    /// The first `receive` in walk order that no `send` is guaranteed to
    /// accompany, with its channel's sends.
    fn dead_receive(&self) -> Option<(ChannelOp, &[ChannelOp])> {
        let mut first: Option<(ChannelOp, &[ChannelOp])> = None;
        for (sends, receives) in by_channel(&self.ops) {
            // A channel's receives ascend: only its first dead one counts,
            // and only while no earlier one is known.
            let dead = (receives.iter())
                .take_while(|receive| first.is_none_or(|(earliest, _)| receive.2 < earliest.2))
                .find(|receive| {
                    !sends
                        .iter()
                        .any(|send| self.guards_implied(send.2, receive.2))
                });
            if let Some(&receive) = dead {
                first = Some((receive, sends));
            }
        }
        first
    }

    /// Adds the wait edges `send(ξ) → receive(ξ)` between co-occurring
    /// pairs, each lifted across the `⊙`-blocks only one end is in.
    /// Returns false if some channel has co-occurring senders — outside the
    /// `Apply`-produced class; its waits are disjunctive and not modeled.
    fn add_waits(&mut self) -> bool {
        let mut guaranteed = true;
        let ops = std::mem::take(&mut self.ops);
        for (sends, receives) in by_channel(&ops) {
            let disjunctive = (sends.iter().enumerate())
                .any(|(i, a)| sends[i + 1..].iter().any(|b| self.compatible(a.2, b.2)));
            if disjunctive {
                guaranteed = false;
                continue;
            }
            for &(_, _, s) in sends {
                for &(_, _, r) in receives {
                    if self.compatible(s, r) {
                        let wait = self.lifted(s, r);
                        self.edges.push(wait);
                    }
                }
            }
        }
        self.ops = ops;
        guaranteed
    }

    /// The edge `u → v` between nodes in different block chains: a wait
    /// leaving an atomic block defers to its end, a wait entering one to
    /// its begin — of the outermost block the other end is not in.
    fn lifted(&self, u: u32, v: u32) -> (u32, u32) {
        let (mut src, mut dst) = (u, v);
        let (mut bu, mut bv) = (self.node(u).block, self.node(v).block);
        while bu != bv {
            // The deeper of two distinct blocks cannot be around the other.
            if bv == NONE || (bu != NONE && self.node(bu).depth >= self.node(bv).depth) {
                src = bu + 1;
                bu = self.node(bu).block;
            } else {
                dst = bv;
                bv = self.node(bv).block;
            }
        }
        (src, dst)
    }
}

// ---------------------------------------------------------------------------
// Region analysis
// ---------------------------------------------------------------------------

fn excise_region(
    goal: &Goal,
    region: &mut Region,
    reports: &mut Vec<KnotReport>,
    guaranteed: &mut bool,
) -> Goal {
    region.opaque.clear();
    if !region.lay(goal) {
        return goal.clone();
    }
    region.gather_ops();
    // The closed `∨`s, excised where they stand: no wait crosses one, and
    // a series-parallel subtree is a module of the order, so a cycle that
    // enters one and comes back lies inside it, and one that passes
    // through needs none of its operations. Each branch is its own region,
    // as under a root `∨`, and the walk passes over what comes back. This
    // is what keeps the `∨`s `Apply` leaves at its scopes where `Apply` put
    // them, their alternatives analyzed apart instead of multiplied out.
    let closed = region.closed_ors();
    let settled;
    let goal = if closed.is_empty() {
        goal
    } else {
        let paths: Vec<Vec<usize>> = closed.iter().map(|&v| region.path(v)).collect();
        let excised: Vec<Goal> = (paths.iter())
            .map(|path| {
                excise_inner(
                    &mut Scratch,
                    subtree_at(goal, path),
                    region,
                    reports,
                    guaranteed,
                )
            })
            .collect();
        region.opaque = excised
            .iter()
            .filter(|g| matches!(g, Goal::Or(_)))
            .cloned()
            .collect();
        let at: Vec<(Vec<usize>, Goal)> = paths.into_iter().zip(excised).collect();
        settled = replace_all(goal, 0, &at);
        if !region.lay(&settled) {
            return settled;
        }
        region.gather_ops();
        &settled
    };

    // --- Dead-receive analysis -------------------------------------------
    if let Some(((channel, _, r), sends)) = region.dead_receive() {
        // Not statically covered: expand a guard to make progress — the
        // receive's outermost, or failing that the first guarded send's —
        // or declare the region dead if there is nothing left to expand.
        // (An unguarded receive co-occurs with every send of its channel.)
        let guarded = if region.node(r).ors > 0 {
            Some(r)
        } else {
            (sends.iter().map(|op| op.2)).find(|&s| region.node(s).ors > 0)
        };
        return match guarded.map(|v| region.path(region.outermost_or(v))) {
            Some(choice) => expand_and_recurse(goal, &choice, region, reports, guaranteed),
            None => {
                // The receive occurs in every execution and no send can
                // ever precede it.
                reports.push(KnotReport {
                    kind: KnotKind::DeadReceive(channel),
                    subgoal: Goal::Receive(channel),
                });
                Goal::NoPath
            }
        };
    }

    // --- Cycle analysis ----------------------------------------------------
    *guaranteed &= region.add_waits();
    region.graph.fill(region.nodes.len(), &region.edges, &[]);
    region.graph.find_knots();
    // Which knot is acted on is a function of the goal: the one holding
    // the earliest occurrence in walk order, its occurrences taken in walk
    // order.
    let knot = |v: u32| region.graph.knot(v);
    let Some(chosen) = region.occurrences().find_map(knot) else {
        return goal.clone();
    };
    let members = || region.occurrences().filter(|&v| knot(v) == Some(chosen));
    // Conditional participants are resolved by expanding one of their
    // choices; a fully unconditional cycle kills the region.
    let guarded = members().find(|&v| region.node(v).ors > 0);
    if let Some(choice) = guarded.map(|v| region.path(region.outermost_or(v))) {
        return expand_and_recurse(goal, &choice, region, reports, guaranteed);
    }
    let mut channels: Vec<Channel> = members()
        .filter_map(|v| match region.node(v).kind {
            Kind::Send(c) | Kind::Recv(c) => Some(c),
            _ => None,
        })
        .collect();
    channels.sort_unstable();
    channels.dedup();
    let span = members()
        .reduce(|a, b| region.common_ancestor(a, b))
        .expect("a knot has members");
    reports.push(KnotReport {
        kind: KnotKind::CyclicWait(channels),
        subgoal: subtree_at(goal, &region.path(span)).clone(),
    });
    Goal::NoPath
}

/// The subtree at a path of child indices.
fn subtree_at<'a>(goal: &'a Goal, path: &[usize]) -> &'a Goal {
    let mut cur = goal;
    for &i in path {
        cur = match cur {
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => &gs[i],
            Goal::Isolated(g) | Goal::Possible(g) => {
                debug_assert_eq!(i, 0);
                g
            }
            _ => return cur,
        };
    }
    cur
}

/// Replaces the `∨` node at `path` by each of its branches in turn,
/// producing the exact expansion `G ≡ ∨ᵦ G[∨ := branch]`, then excises each
/// variant. The expanded `∨` disappears, so recursion terminates.
fn expand_and_recurse(
    goal: &Goal,
    path: &[usize],
    region: &mut Region,
    reports: &mut Vec<KnotReport>,
    guaranteed: &mut bool,
) -> Goal {
    let or_node = subtree_at(goal, path);
    let branches = match or_node {
        Goal::Or(gs) => gs.len(),
        other => unreachable!("expansion target must be a disjunction, got `{other}`"),
    };
    let variants: Vec<Goal> = (0..branches)
        .map(|b| {
            let g = replace_or_at(goal, path, b);
            // Inside a region the sub-answers belong to that region's
            // outcome; only whole regions go through a table. The region
            // being expanded is done with; its variants are laid over it.
            excise_inner(&mut Scratch, &g, region, reports, guaranteed)
        })
        .collect();
    crate::goal::or(variants)
}

/// Rebuilds `goal` with the subtree at each path of `at` — disjoint, in
/// walk order, `depth` steps of each already taken — replaced by its goal,
/// through the smart constructors, so a `¬path` takes its conjunctions
/// with it.
fn replace_all(goal: &Goal, depth: usize, at: &[(Vec<usize>, Goal)]) -> Goal {
    if let [(path, new)] = at {
        if path.len() == depth {
            return new.clone();
        }
    }
    let children = |gs: &[Goal]| {
        let mut out = gs.to_vec();
        for group in at.chunk_by(|a, b| a.0[depth] == b.0[depth]) {
            let i = group[0].0[depth];
            out[i] = replace_all(&gs[i], depth + 1, group);
        }
        out
    };
    match goal {
        Goal::Seq(gs) => crate::goal::seq(children(gs)),
        Goal::Conc(gs) => crate::goal::conc(children(gs)),
        Goal::Or(gs) => crate::goal::or(children(gs)),
        Goal::Isolated(g) => crate::goal::isolated(replace_all(g, depth + 1, at)),
        _ => unreachable!("a path descends through `{goal}`"),
    }
}

/// Rebuilds `goal` with the `∨` at `path` replaced by its `branch`-th child.
fn replace_or_at(goal: &Goal, path: &[usize], branch: usize) -> Goal {
    if path.is_empty() {
        let Goal::Or(gs) = goal else {
            unreachable!("path leads to a disjunction")
        };
        return gs[branch].clone();
    }
    let (head, rest) = (path[0], &path[1..]);
    match goal {
        Goal::Seq(gs) => {
            let mut out = gs.to_vec();
            out[head] = replace_or_at(&gs[head], rest, branch);
            Goal::raw_seq(out)
        }
        Goal::Conc(gs) => {
            let mut out = gs.to_vec();
            out[head] = replace_or_at(&gs[head], rest, branch);
            Goal::raw_conc(out)
        }
        Goal::Or(gs) => {
            let mut out = gs.to_vec();
            out[head] = replace_or_at(&gs[head], rest, branch);
            Goal::raw_or(out)
        }
        Goal::Isolated(g) => Goal::raw_isolated(replace_or_at(g, rest, branch)),
        Goal::Possible(g) => Goal::raw_possible(replace_or_at(g, rest, branch)),
        _ => unreachable!("path descends through an interior node"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply;
    use crate::constraints::Constraint;
    use crate::goal::{conc, isolated, or, seq};
    use crate::semantics::event_traces;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    const BUDGET: usize = 200_000;

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    /// Excise must preserve the trace semantics exactly.
    fn assert_excise_equiv(goal: &Goal) {
        let excised = excise(goal);
        assert_eq!(
            event_traces(&excised, BUDGET).unwrap(),
            event_traces(goal, BUDGET).unwrap(),
            "on goal {goal}"
        );
    }

    #[test]
    fn goal_without_channels_is_untouched() {
        let goal = seq(vec![g("a"), or(vec![g("b"), g("c")])]);
        assert_eq!(excise(&goal), goal);
    }

    #[test]
    fn straight_line_knot_is_excised() {
        // receive(ξ) ⊗ β ⊗ α ⊗ send(ξ): the receive waits for a send that
        // can only come later.
        let xi = Channel(0);
        let goal = seq(vec![
            Goal::Receive(xi),
            g("beta"),
            g("alpha"),
            Goal::Send(xi),
        ]);
        let result = excise_with_diagnostics(&goal);
        assert_eq!(result.goal, Goal::NoPath);
        assert_eq!(result.reports.len(), 1);
        assert!(matches!(result.reports[0].kind, KnotKind::CyclicWait(_)));
    }

    #[test]
    fn valid_sync_is_kept() {
        let xi = Channel(0);
        let goal = conc(vec![
            seq(vec![g("a"), Goal::Send(xi)]),
            seq(vec![Goal::Receive(xi), g("b")]),
        ]);
        assert_eq!(excise(&goal), goal);
    }

    #[test]
    fn example_5_7_knot() {
        // G = γ ⊗ (η ∨ (α | β | η)), constraints c₁: α causes β later,
        // c₂: β causes η later, c₃: if α occurs, η precedes α.
        // Excise(Apply(c₁∧c₂∧c₃, G)) ≡ γ ⊗ η.
        let goal = seq(vec![
            g("gamma"),
            or(vec![g("eta"), conc(vec![g("alpha"), g("beta"), g("eta")])]),
        ]);
        let constraints = [
            Constraint::causes_later("alpha", "beta"),
            Constraint::causes_later("beta", "eta"),
            Constraint::or(vec![
                Constraint::must_not("alpha"),
                Constraint::order("eta", "alpha"),
            ]),
        ];
        let compiled = apply(&constraints, &goal);
        let result = excise_with_diagnostics(&compiled);
        assert_eq!(result.goal, seq(vec![g("gamma"), g("eta")]));
        assert!(
            !result.reports.is_empty(),
            "the α-branch knot must be reported"
        );
    }

    #[test]
    fn two_channel_cross_wait_is_a_knot() {
        let (x1, x2) = (Channel(1), Channel(2));
        let goal = conc(vec![
            seq(vec![Goal::Receive(x1), g("a"), Goal::Send(x2)]),
            seq(vec![Goal::Receive(x2), g("b"), Goal::Send(x1)]),
        ]);
        let result = excise_with_diagnostics(&goal);
        assert_eq!(result.goal, Goal::NoPath);
        match &result.reports[0].kind {
            KnotKind::CyclicWait(chs) => assert_eq!(chs, &vec![x1, x2]),
            other => panic!("expected cyclic wait, got {other:?}"),
        }
    }

    #[test]
    fn knot_in_one_or_branch_prunes_only_that_branch() {
        let xi = Channel(0);
        let knotted = seq(vec![Goal::Receive(xi), g("a"), Goal::Send(xi)]);
        let fine = seq(vec![g("b"), g("c")]);
        let goal = or(vec![knotted, fine.clone()]);
        assert_eq!(excise(&goal), fine);
    }

    #[test]
    fn dead_receive_without_send_is_reported() {
        let xi = Channel(7);
        let goal = seq(vec![g("a"), Goal::Receive(xi)]);
        let result = excise_with_diagnostics(&goal);
        assert_eq!(result.goal, Goal::NoPath);
        assert_eq!(result.reports[0].kind, KnotKind::DeadReceive(xi));
    }

    #[test]
    fn receive_with_send_in_unchosen_branch_prunes_choice() {
        // (a ∨ (b ⊗ send ξ)) ⊗ receive ξ — choosing `a` deadlocks; Excise
        // must keep only the send branch.
        let xi = Channel(0);
        let goal = seq(vec![
            or(vec![g("a"), seq(vec![g("b"), Goal::Send(xi)])]),
            Goal::Receive(xi),
        ]);
        let excised = excise(&goal);
        assert_eq!(
            excised,
            seq(vec![g("b"), Goal::Send(xi), Goal::Receive(xi)])
        );
        assert_excise_equiv(&goal);
    }

    #[test]
    fn guarded_knot_expands_choice() {
        // In branch 0 the receive precedes the send (knot); branch 1 is a
        // plain activity. Both under a ⊗ context so the Or is interior.
        let xi = Channel(0);
        let inner = or(vec![
            seq(vec![Goal::Receive(xi), g("x"), Goal::Send(xi)]),
            g("y"),
        ]);
        let goal = seq(vec![g("pre"), inner, g("post")]);
        assert_eq!(excise(&goal), seq(vec![g("pre"), g("y"), g("post")]));
    }

    #[test]
    fn isolation_blocks_cross_waits() {
        // ⊙(recv ξ ⊗ a) | (send ξ): the sibling cannot interleave into the
        // atomic block, but it can run entirely before it — no knot.
        let xi = Channel(0);
        let goal = conc(vec![
            isolated(seq(vec![Goal::Receive(xi), g("a")])),
            Goal::Send(xi),
        ]);
        assert_eq!(excise(&goal), goal);
        assert_excise_equiv(&goal);
    }

    #[test]
    fn isolation_atomicity_creates_knot() {
        // Block B = ⊙(send ξ₁ ⊗ recv ξ₂); sibling = recv ξ₁ ⊗ send ξ₂.
        // The sibling needs ξ₁ (produced inside B) before it can produce
        // ξ₂ (needed inside B) — impossible without interleaving into B.
        let (x1, x2) = (Channel(1), Channel(2));
        let goal = conc(vec![
            isolated(seq(vec![Goal::Send(x1), Goal::Receive(x2)])),
            seq(vec![Goal::Receive(x1), Goal::Send(x2)]),
        ]);
        let result = excise_with_diagnostics(&goal);
        assert_eq!(result.goal, Goal::NoPath);
        assert_excise_equiv(&goal);
    }

    #[test]
    fn multi_send_goals_are_flagged_not_guaranteed() {
        let xi = Channel(0);
        let goal = conc(vec![
            Goal::Send(xi),
            Goal::Send(xi),
            seq(vec![Goal::Receive(xi), g("b")]),
        ]);
        let result = excise_with_diagnostics(&goal);
        assert!(!result.guaranteed_knot_free);
        // Still executable — nothing is pruned.
        assert!(!result.goal.is_nopath());
    }

    #[test]
    fn compiled_workflows_never_have_dead_receives() {
        // Apply guarantees send/receive pairing per execution; excising any
        // compiled goal preserves traces exactly.
        let goal = seq(vec![
            g("s"),
            conc(vec![or(vec![g("a"), g("x")]), or(vec![g("b"), g("y")])]),
            g("t"),
        ]);
        for constraints in [
            vec![Constraint::order("a", "b")],
            vec![Constraint::klein_order("b", "a")],
            vec![
                Constraint::causes_later("x", "y"),
                Constraint::klein_exists("a", "b"),
            ],
        ] {
            let compiled = apply(&constraints, &goal);
            assert_excise_equiv(&compiled);
        }
    }

    #[test]
    fn excise_is_idempotent() {
        let goal = seq(vec![
            or(vec![g("a"), seq(vec![g("b"), Goal::Send(Channel(0))])]),
            Goal::Receive(Channel(0)),
        ]);
        let once = excise(&goal);
        assert_eq!(excise(&once), once);
    }

    #[test]
    fn tarjan_detects_self_loop() {
        let adj = vec![vec![0]];
        assert_eq!(find_cycle(&adj), Some(vec![0]));
    }

    #[test]
    fn tarjan_on_dag_finds_nothing() {
        let adj = vec![vec![1, 2], vec![2], vec![]];
        assert_eq!(find_cycle(&adj), None);
    }

    // -----------------------------------------------------------------------
    // The specification: the analysis as it is defined, pairwise. Every
    // occurrence carries its explicit tree path; co-occurrence, precedence
    // and guard implication are read off two paths; the dependency graph has
    // an edge for every ordered pair that is related. Quadratic and more in
    // the occurrences — `excise_region` must agree with it on every region.
    // -----------------------------------------------------------------------

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum NodeKind {
        Seq,
        Conc,
        Or,
        Iso,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum OccKind {
        Send(Channel),
        Recv(Channel),
        /// Start of an `⊙`-block containing channel operations; `usize`
        /// identifies the block.
        BlockBegin(usize),
        /// End of that block.
        BlockEnd(usize),
    }

    #[derive(Clone, Debug)]
    struct Occ {
        kind: OccKind,
        /// Child indices from the region root down to the occurrence.
        path: Vec<usize>,
        /// Connective kind of each ancestor, aligned with `path`.
        ctx: Vec<NodeKind>,
        /// Enclosing `⊙`-block ids, outermost first.
        blocks: Vec<usize>,
    }

    impl Occ {
        /// Choice guards: `(depth, branch)` for each `∨` ancestor.
        fn guards(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
            self.ctx
                .iter()
                .enumerate()
                .filter(|(_, k)| **k == NodeKind::Or)
                .map(|(d, _)| (d, self.path[d]))
        }

        fn is_unguarded(&self) -> bool {
            self.guards().next().is_none()
        }
    }

    /// First index where the two paths diverge, if any.
    fn divergence(a: &Occ, b: &Occ) -> Option<usize> {
        let n = a.path.len().min(b.path.len());
        (0..n).find(|&i| a.path[i] != b.path[i])
    }

    /// True if some execution can contain both occurrences.
    fn compatible(a: &Occ, b: &Occ) -> bool {
        match divergence(a, b) {
            None => true,
            Some(d) => a.ctx[d] != NodeKind::Or,
        }
    }

    /// True if every execution containing `r` also contains `s`: all of `s`'s
    /// choice ancestors lie on the common path prefix (where `r` makes the
    /// same choices); any `∨` ancestor of `s` at or below the divergence point
    /// is an independent choice that might exclude `s`.
    fn guards_implied(s: &Occ, r: &Occ) -> bool {
        let d = divergence(s, r).unwrap_or_else(|| s.path.len().min(r.path.len()));
        !s.ctx[d.min(s.ctx.len())..].contains(&NodeKind::Or)
    }

    /// True if `a` strictly precedes `b` in the series-parallel order.
    fn precedes(a: &Occ, b: &Occ) -> bool {
        match divergence(a, b) {
            Some(d) => a.ctx[d] == NodeKind::Seq && a.path[d] < b.path[d],
            None => false,
        }
    }

    struct Collector<'a> {
        occs: Vec<Occ>,
        next_block: usize,
        opaque: &'a [Goal],
    }

    /// The occurrences of `goal`, the `∨`s of `opaque` passed over.
    fn collect_occurrences(goal: &Goal, opaque: &[Goal]) -> Vec<Occ> {
        fn walk(
            goal: &Goal,
            path: &mut Vec<usize>,
            ctx: &mut Vec<NodeKind>,
            blocks: &mut Vec<usize>,
            col: &mut Collector,
        ) {
            if col.opaque.iter().any(|o| o.ptr_eq(goal)) {
                return;
            }
            match goal {
                Goal::Send(c) => col.occs.push(Occ {
                    kind: OccKind::Send(*c),
                    path: path.clone(),
                    ctx: ctx.clone(),
                    blocks: blocks.clone(),
                }),
                Goal::Receive(c) => col.occs.push(Occ {
                    kind: OccKind::Recv(*c),
                    path: path.clone(),
                    ctx: ctx.clone(),
                    blocks: blocks.clone(),
                }),
                Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
                    let kind = match goal {
                        Goal::Seq(_) => NodeKind::Seq,
                        Goal::Conc(_) => NodeKind::Conc,
                        _ => NodeKind::Or,
                    };
                    for (i, g) in gs.iter().enumerate() {
                        path.push(i);
                        ctx.push(kind);
                        walk(g, path, ctx, blocks, col);
                        ctx.pop();
                        path.pop();
                    }
                }
                Goal::Isolated(g) => {
                    // Only blocks that actually contain channel operations need
                    // atomicity super-nodes.
                    if !g.channels().is_empty() {
                        let id = col.next_block;
                        col.next_block += 1;
                        col.occs.push(Occ {
                            kind: OccKind::BlockBegin(id),
                            path: path.clone(),
                            ctx: ctx.clone(),
                            blocks: blocks.clone(),
                        });
                        col.occs.push(Occ {
                            kind: OccKind::BlockEnd(id),
                            path: path.clone(),
                            ctx: ctx.clone(),
                            blocks: blocks.clone(),
                        });
                        blocks.push(id);
                        path.push(0);
                        ctx.push(NodeKind::Iso);
                        walk(g, path, ctx, blocks, col);
                        ctx.pop();
                        path.pop();
                        blocks.pop();
                    } else {
                        path.push(0);
                        ctx.push(NodeKind::Iso);
                        walk(g, path, ctx, blocks, col);
                        ctx.pop();
                        path.pop();
                    }
                }
                // ◇ bodies never execute on the path; their channel operations
                // take no part in scheduling.
                Goal::Possible(_) => {}
                Goal::Atom(_) | Goal::Empty | Goal::NoPath => {}
            }
        }
        let mut col = Collector {
            occs: Vec::new(),
            next_block: 0,
            opaque,
        };
        walk(
            goal,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut Vec::new(),
            &mut col,
        );
        col.occs
    }

    /// The closed-`∨` step of `excise_region` over the specification: an
    /// `∨` is closed when every occurrence of each channel it holds lies
    /// below it, and the outermost ones are excised top-down.
    fn spec_settle(
        goal: &Goal,
        opaque: &mut Vec<Goal>,
        reports: &mut Vec<KnotReport>,
        guaranteed: &mut bool,
    ) -> Goal {
        fn go(
            goal: &Goal,
            path: &mut Vec<usize>,
            occs: &[Occ],
            opaque: &mut Vec<Goal>,
            reports: &mut Vec<KnotReport>,
            guaranteed: &mut bool,
        ) -> Goal {
            let channel = |o: &Occ| match o.kind {
                OccKind::Send(c) | OccKind::Recv(c) => Some(c),
                _ => None,
            };
            let below = |o: &Occ| o.path.starts_with(path);
            let held: BTreeSet<Channel> = occs
                .iter()
                .filter(|o| below(o))
                .filter_map(channel)
                .collect();
            if held.is_empty() {
                return goal.clone();
            }
            let closed =
                (occs.iter()).all(|o| channel(o).is_none_or(|c| !held.contains(&c) || below(o)));
            if matches!(goal, Goal::Or(_)) && closed {
                let out = spec_inner(goal, reports, guaranteed);
                if matches!(out, Goal::Or(_)) {
                    opaque.push(out.clone());
                }
                return out;
            }
            let mut child = |i: usize, g: &Goal| {
                path.push(i);
                let out = go(g, path, occs, opaque, reports, guaranteed);
                path.pop();
                out
            };
            match goal {
                Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
                    let children: Vec<Goal> =
                        gs.iter().enumerate().map(|(i, g)| child(i, g)).collect();
                    if children
                        .iter()
                        .zip(gs.iter())
                        .all(|(new, old)| new.ptr_eq(old))
                    {
                        return goal.clone();
                    }
                    match goal {
                        Goal::Seq(_) => seq(children),
                        Goal::Conc(_) => conc(children),
                        _ => or(children),
                    }
                }
                Goal::Isolated(g) => {
                    let new = child(0, g);
                    if new.ptr_eq(g) {
                        goal.clone()
                    } else {
                        isolated(new)
                    }
                }
                _ => goal.clone(),
            }
        }
        let occs = collect_occurrences(goal, &[]);
        go(goal, &mut Vec::new(), &occs, opaque, reports, guaranteed)
    }

    fn spec_region(goal: &Goal, reports: &mut Vec<KnotReport>, guaranteed: &mut bool) -> Goal {
        let mut opaque = Vec::new();
        let goal = &spec_settle(goal, &mut opaque, reports, guaranteed);
        let occs = collect_occurrences(goal, &opaque);
        if occs.is_empty() {
            return goal.clone();
        }

        // --- Dead-receive analysis -------------------------------------------
        for r in occs.iter() {
            let OccKind::Recv(ch) = r.kind else { continue };
            let compatible_sends: Vec<usize> = occs
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s.kind, OccKind::Send(c) if c == ch))
                .filter(|(_, s)| compatible(s, r))
                .map(|(i, _)| i)
                .collect();
            let covered = compatible_sends
                .iter()
                .any(|&si| guards_implied(&occs[si], r));
            if covered {
                continue;
            }
            // Not statically covered: expand a guard to make progress, or
            // declare the region dead if there is nothing left to expand.
            let mut expandable: Option<(usize, usize)> = r.guards().next();
            if expandable.is_none() {
                for &si in &compatible_sends {
                    if let Some(g) = occs[si].guards().next() {
                        expandable = Some(g);
                        break;
                    }
                }
            }
            match expandable {
                Some((depth, _)) => {
                    // If the guard came from a send, the prefix must be taken
                    // from that occurrence's path.
                    let prefix = if r.ctx.get(depth) == Some(&NodeKind::Or) {
                        r.path[..depth].to_vec()
                    } else {
                        let si = compatible_sends
                            .iter()
                            .copied()
                            .find(|&si| occs[si].ctx.get(depth) == Some(&NodeKind::Or))
                            .expect("guard index originated from a send occurrence");
                        occs[si].path[..depth].to_vec()
                    };
                    return spec_expand(goal, &prefix, reports, guaranteed);
                }
                None => {
                    // The receive occurs in every execution (unguarded) and no
                    // send can ever precede it.
                    reports.push(KnotReport {
                        kind: KnotKind::DeadReceive(ch),
                        subgoal: subtree_at(goal, &r.path).clone(),
                    });
                    return Goal::NoPath;
                }
            }
        }

        // --- Cycle analysis ----------------------------------------------------
        // Nodes: occurrences. Edges: SP precedence, channel waits, and
        // ⊙-atomicity, all lifted across block boundaries.
        let n = occs.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];

        let begin_of = |block: usize| -> usize {
            occs.iter()
                .position(|o| o.kind == OccKind::BlockBegin(block))
                .expect("block begin exists")
        };
        let end_of = |block: usize| -> usize {
            occs.iter()
                .position(|o| o.kind == OccKind::BlockEnd(block))
                .expect("block end exists")
        };

        // Structural block edges: begin → member → end.
        for (i, o) in occs.iter().enumerate() {
            for &b in &o.blocks {
                adj[begin_of(b)].push(i);
                adj[i].push(end_of(b));
            }
        }

        // Lift an edge u → v across differing block chains: a wait entering an
        // atomic block defers to its begin; a wait leaving one defers to its
        // end.
        let add_edge = |adj: &mut Vec<Vec<usize>>, u: usize, v: usize| {
            let (bu, bv) = (&occs[u].blocks, &occs[v].blocks);
            let k = bu.iter().zip(bv.iter()).take_while(|(a, b)| a == b).count();
            let src = if bu.len() > k { end_of(bu[k]) } else { u };
            let dst = if bv.len() > k { begin_of(bv[k]) } else { v };
            if src != dst {
                adj[src].push(dst);
            }
        };

        // Detect multi-send channels with co-occurring senders — outside the
        // Apply-produced class; waits become disjunctive and are not modeled.
        let mut disjunctive_channels: BTreeSet<Channel> = BTreeSet::new();
        for (i, a) in occs.iter().enumerate() {
            let OccKind::Send(ca) = a.kind else { continue };
            for b in occs.iter().skip(i + 1) {
                if matches!(b.kind, OccKind::Send(cb) if cb == ca) && compatible(a, b) {
                    disjunctive_channels.insert(ca);
                }
            }
        }
        if !disjunctive_channels.is_empty() {
            *guaranteed = false;
        }

        for i in 0..n {
            for j in 0..n {
                if i == j || !compatible(&occs[i], &occs[j]) {
                    continue;
                }
                if precedes(&occs[i], &occs[j]) {
                    add_edge(&mut adj, i, j);
                }
                if let (OccKind::Send(cs), OccKind::Recv(cr)) = (occs[i].kind, occs[j].kind) {
                    if cs == cr && !disjunctive_channels.contains(&cs) {
                        add_edge(&mut adj, i, j);
                    }
                }
            }
        }

        match find_cycle(&adj) {
            None => goal.clone(),
            Some(cycle_nodes) => {
                // A knot. Conditional participants are resolved by expanding
                // one of their choices; a fully unconditional cycle kills the
                // region.
                for &i in &cycle_nodes {
                    if let Some((depth, _)) = occs[i].guards().next() {
                        let prefix = occs[i].path[..depth].to_vec();
                        return spec_expand(goal, &prefix, reports, guaranteed);
                    }
                }
                debug_assert!(cycle_nodes.iter().all(|&i| occs[i].is_unguarded()));
                let channels: Vec<Channel> = cycle_nodes
                    .iter()
                    .filter_map(|&i| match occs[i].kind {
                        OccKind::Send(c) | OccKind::Recv(c) => Some(c),
                        _ => None,
                    })
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let lca = common_prefix(cycle_nodes.iter().map(|&i| occs[i].path.as_slice()));
                reports.push(KnotReport {
                    kind: KnotKind::CyclicWait(channels),
                    subgoal: subtree_at(goal, &lca).clone(),
                });
                Goal::NoPath
            }
        }
    }

    /// Longest common prefix of the given paths.
    fn common_prefix<'a>(mut paths: impl Iterator<Item = &'a [usize]>) -> Vec<usize> {
        let first = match paths.next() {
            Some(p) => p.to_vec(),
            None => return Vec::new(),
        };
        paths.fold(first, |acc, p| {
            let k = acc.iter().zip(p.iter()).take_while(|(a, b)| a == b).count();
            acc[..k].to_vec()
        })
    }

    /// The knot acted on: of the strongly connected components with ≥ 2 nodes
    /// (or a self-loop), the one holding the smallest node, its nodes
    /// ascending — iterative Tarjan.
    fn find_cycle(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
        let mut chosen: Option<Vec<usize>> = None;
        let n = adj.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;

        enum Frame {
            Enter(usize),
            Resume(usize, usize),
        }

        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut call: Vec<Frame> = vec![Frame::Enter(start)];
            while let Some(frame) = call.pop() {
                match frame {
                    Frame::Enter(v) => {
                        index[v] = next_index;
                        low[v] = next_index;
                        next_index += 1;
                        stack.push(v);
                        on_stack[v] = true;
                        call.push(Frame::Resume(v, 0));
                    }
                    Frame::Resume(v, mut ei) => {
                        let mut descended = false;
                        while ei < adj[v].len() {
                            let w = adj[v][ei];
                            ei += 1;
                            if index[w] == usize::MAX {
                                call.push(Frame::Resume(v, ei));
                                call.push(Frame::Enter(w));
                                descended = true;
                                break;
                            } else if on_stack[w] {
                                low[v] = low[v].min(index[w]);
                            }
                        }
                        if descended {
                            continue;
                        }
                        if low[v] == index[v] {
                            let mut comp = Vec::new();
                            loop {
                                let w = stack.pop().expect("tarjan stack invariant");
                                on_stack[w] = false;
                                comp.push(w);
                                if w == v {
                                    break;
                                }
                            }
                            let self_loop = comp.len() == 1 && adj[comp[0]].contains(&comp[0]);
                            if comp.len() > 1 || self_loop {
                                comp.sort_unstable();
                                if chosen.as_ref().is_none_or(|c| comp[0] < c[0]) {
                                    chosen = Some(comp);
                                }
                            }
                        }
                        // Propagate lowlink to the parent frame.
                        if let Some(Frame::Resume(parent, _)) = call.last() {
                            let parent = *parent;
                            low[parent] = low[parent].min(low[v]);
                        }
                    }
                }
            }
        }
        chosen
    }

    /// `excise_in` over the specification.
    fn spec_excise(goal: &Goal) -> ExciseResult {
        let mut reports = Vec::new();
        let mut guaranteed = true;
        let out = spec_inner(goal, &mut reports, &mut guaranteed);
        ExciseResult {
            goal: out.simplify(),
            reports,
            guaranteed_knot_free: guaranteed,
        }
    }

    fn spec_inner(goal: &Goal, reports: &mut Vec<KnotReport>, guaranteed: &mut bool) -> Goal {
        match goal {
            Goal::Or(gs) => or(gs
                .iter()
                .map(|g| spec_inner(g, reports, guaranteed))
                .collect()),
            _ => spec_region(goal, reports, guaranteed),
        }
    }

    /// `expand_and_recurse` over the specification.
    fn spec_expand(
        goal: &Goal,
        path: &[usize],
        reports: &mut Vec<KnotReport>,
        guaranteed: &mut bool,
    ) -> Goal {
        let Goal::Or(branches) = subtree_at(goal, path) else {
            unreachable!("expansion target must be a disjunction")
        };
        or((0..branches.len())
            .map(|b| spec_inner(&replace_or_at(goal, path, b), reports, guaranteed))
            .collect())
    }

    // -----------------------------------------------------------------------
    // The analysis against its specification
    // -----------------------------------------------------------------------

    /// The regions of a goal: the branches of a root `∨`, or the goal.
    fn regions(goal: &Goal) -> &[Goal] {
        match goal {
            Goal::Or(gs) => gs,
            other => std::slice::from_ref(other),
        }
    }

    /// Region by region and as a whole, the analysis answers what the
    /// specification does: goal, reports, guarantee.
    fn assert_matches_spec(goal: &Goal) -> Result<(), proptest::TestCaseError> {
        for region in regions(goal).iter().chain([goal]) {
            proptest::prop_assert_eq!(
                excise_with_diagnostics(region),
                spec_excise(region),
                "on region `{}` of `{}`",
                region,
                goal
            );
        }
        Ok(())
    }

    /// A random goal over four channels and fresh atoms in shapes `Apply`
    /// never makes: `⊙` at any depth with channels crossing it, `◇` bodies
    /// holding channels, several senders on a channel (co-occurring or one
    /// per `∨`-branch), receives nobody serves.
    fn channel_goal(rng: &mut StdRng, depth: usize, atoms: &mut usize) -> Goal {
        if depth == 0 || rng.gen_bool(0.25) {
            let channel = Channel(rng.gen_range(0..4));
            return match rng.gen_range(0..5) {
                0 | 1 => Goal::Send(channel),
                2 | 3 => Goal::Receive(channel),
                _ => {
                    *atoms += 1;
                    Goal::atom(format!("k{atoms}"))
                }
            };
        }
        let mut children = |rng: &mut StdRng| -> Vec<Goal> {
            (0..rng.gen_range(2..4))
                .map(|_| channel_goal(rng, depth - 1, atoms))
                .collect()
        };
        match rng.gen_range(0..9) {
            0..=2 => seq(children(rng)),
            3 | 4 => conc(children(rng)),
            5 | 6 => or(children(rng)),
            7 => isolated(channel_goal(rng, depth - 1, atoms)),
            _ => crate::goal::possible(channel_goal(rng, depth - 1, atoms)),
        }
    }

    /// `goal` with some of its subgoals wrapped in `⊙`.
    fn isolate_some(rng: &mut StdRng, goal: &Goal) -> Goal {
        let inner = match goal {
            Goal::Seq(gs) => seq(gs.iter().map(|g| isolate_some(rng, g)).collect()),
            Goal::Conc(gs) => conc(gs.iter().map(|g| isolate_some(rng, g)).collect()),
            Goal::Or(gs) => or(gs.iter().map(|g| isolate_some(rng, g)).collect()),
            Goal::Isolated(g) => isolated(isolate_some(rng, g)),
            leaf => leaf.clone(),
        };
        if rng.gen_bool(0.2) {
            isolated(inner)
        } else {
            inner
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(192))]

        #[test]
        fn analysis_matches_the_pairwise_specification_on_compiled_goals(
            goal_seed in 0u64..100_000,
            constraint_seed in 0u64..100_000,
            count in 1usize..5,
        ) {
            let (goal, events) =
                crate::gen::random_goal(goal_seed, crate::gen::GoalShape::default(), "e");
            proptest::prop_assume!(events.len() >= 2);
            let constraints = crate::gen::random_constraints(constraint_seed, &events, count);
            let compiled = apply(&constraints, &goal);
            assert_matches_spec(&compiled)?;
            // … and with `⊙` thrown over the compiled structure, so the
            // channels `Apply` laid cross block boundaries at every level.
            let mut rng = StdRng::seed_from_u64(goal_seed ^ constraint_seed);
            let blocked = isolate_some(&mut rng, &compiled);
            assert_matches_spec(&blocked)?;
            if let Ok(traces) = event_traces(&blocked, 20_000) {
                proptest::prop_assert_eq!(
                    event_traces(&excise(&blocked), BUDGET).unwrap(),
                    traces,
                    "on `{}`",
                    blocked
                );
            }
        }

        #[test]
        fn analysis_matches_the_pairwise_specification_on_arbitrary_channel_goals(
            seed in 0u64..1_000_000,
            depth in 1usize..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let goal = channel_goal(&mut rng, depth, &mut 0);
            assert_matches_spec(&goal)?;
            if let Ok(traces) = event_traces(&goal, 20_000) {
                proptest::prop_assert_eq!(
                    event_traces(&excise(&goal), BUDGET).unwrap(),
                    traces,
                    "on `{}`",
                    goal
                );
            }
        }
    }

    #[test]
    fn analysis_matches_the_specification_on_the_hard_corners() {
        let [x0, x1, x2, x3] = [0, 1, 2, 3].map(Channel);
        let (send, recv) = (Goal::Send, Goal::Receive);
        let corners = [
            // ⊙ three deep, a channel crossing every level, outwards …
            conc(vec![
                isolated(seq(vec![
                    send(x0),
                    isolated(seq(vec![
                        g("a"),
                        send(x1),
                        isolated(seq(vec![g("b"), send(x2)])),
                    ])),
                ])),
                seq(vec![recv(x2), recv(x1), recv(x0), g("c")]),
            ]),
            // … inwards, which the innermost block cannot wait out …
            conc(vec![
                isolated(seq(vec![
                    recv(x0),
                    isolated(seq(vec![recv(x1), isolated(seq(vec![recv(x2), send(x3)]))])),
                ])),
                seq(vec![send(x0), send(x1), recv(x3), send(x2)]),
            ]),
            // … and two knots in one region, the later one unguarded.
            conc(vec![
                or(vec![seq(vec![recv(x0), g("a"), send(x0)]), g("b")]),
                isolated(seq(vec![send(x1), recv(x2)])),
                seq(vec![recv(x1), send(x2)]),
            ]),
            // A ◇ body holding channels: on no path, so the receive outside
            // is dead, and a block with nothing else inside is still a block.
            seq(vec![
                crate::goal::possible(seq(vec![g("a"), send(x0)])),
                isolated(crate::goal::possible(send(x1))),
                recv(x0),
            ]),
            // Co-occurring senders: flagged, their waits not modeled, the
            // other channel's knot still found.
            conc(vec![
                send(x0),
                seq(vec![send(x0), recv(x1)]),
                seq(vec![recv(x0), g("a"), send(x1), recv(x1)]),
            ]),
            // One sender per ∨-branch, one shared receive, at two depths.
            seq(vec![
                or(vec![
                    seq(vec![g("a"), send(x0)]),
                    seq(vec![
                        g("b"),
                        or(vec![send(x0), seq(vec![g("c"), send(x0)])]),
                    ]),
                ]),
                recv(x0),
            ]),
        ];
        for goal in &corners {
            assert_matches_spec(goal).unwrap_or_else(|e| panic!("{e:?}"));
            assert_excise_equiv(goal);
        }
    }

    #[test]
    fn receive_shallower_than_its_senders_guard_expands_that_guard() {
        // (a | (send ξ ∨ b)) ⊗ receive ξ: the receive's path is shorter
        // than the depth of the only guard there is to expand (the pairwise
        // analysis sliced the receive's path to it and panicked).
        let xi = Channel(0);
        let goal = seq(vec![
            conc(vec![g("a"), or(vec![Goal::Send(xi), g("b")])]),
            Goal::Receive(xi),
        ]);
        assert_eq!(
            excise(&goal),
            seq(vec![conc(vec![g("a"), Goal::Send(xi)]), Goal::Receive(xi)])
        );
        assert_excise_equiv(&goal);
    }

    // -----------------------------------------------------------------------
    // The bound, counted: the region graph is linear in the region
    // -----------------------------------------------------------------------

    /// Vertices + edges of the region graph against what it was built from.
    /// Every spine node is one or two vertices and brings at most two
    /// structural edges; every receive that has one sender, one wait.
    const GRAPH_PER_NODE: usize = 4;

    fn assert_graph_is_linear(goal: &Goal) {
        let mut region = Region::default();
        assert!(region.lay(goal), "the goal has channels");
        region.gather_ops();
        assert!(region.add_waits(), "one sender per channel");
        let spine = (region.nodes.iter())
            .filter(|node| node.kind != Kind::Join)
            .count();
        let graph = region.nodes.len() + region.edges.len();
        assert!(
            graph <= GRAPH_PER_NODE * spine,
            "{graph} vertices and edges for {spine} occurrences and spine nodes"
        );
    }

    #[test]
    fn region_graph_of_an_order_chain_is_linear() {
        for n in [64, 256, 1024] {
            let compiled = apply(
                &crate::gen::order_chain(n),
                &crate::gen::pipeline_workflow(2 * n + 2),
            );
            assert_eq!(compiled.channels().len(), n);
            assert_graph_is_linear(&compiled);
            assert_eq!(excise(&compiled), compiled);
        }
    }

    #[test]
    fn region_graph_of_nested_blocks_is_linear() {
        // ⊙(a₀ ⊗ send ξ₀ ⊗ ⊙(a₁ ⊗ send ξ₁ ⊗ …)) | receive ξ₆₃ ⊗ … ⊗ receive ξ₀
        let blocks = (0..64u32).rev().fold(Goal::Empty, |inner, i| {
            isolated(seq(vec![
                g(&format!("a{i}")),
                Goal::Send(Channel(i)),
                inner,
            ]))
        });
        let receives = seq((0..64).rev().map(|i| Goal::Receive(Channel(i))).collect());
        let goal = conc(vec![blocks, receives]);
        assert_graph_is_linear(&goal);
        assert_eq!(excise(&goal), goal);
    }
}
