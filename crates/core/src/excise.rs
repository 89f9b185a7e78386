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
//! 2. For a choice-rooted-free region, collect every `send`/`receive`
//!    occurrence together with its tree path. The path determines, for any
//!    two occurrences, whether they can **co-occur** (their lowest common
//!    ancestor is not an `∨`) and whether one **precedes** the other in
//!    the series-parallel order (the LCA is a `⊗`). `⊙`-isolated blocks
//!    containing channel operations become atomic super-nodes with
//!    begin/end events, so cross-boundary waits respect atomicity.
//! 3. Build the dependency graph: series-parallel precedence edges plus
//!    channel edges `send(ξ) → receive(ξ)` between co-occurring pairs.
//!    A **cycle** whose nodes are all unconditional (not under any `∨`)
//!    dooms every execution: the region rewrites to `¬path`. A cycle
//!    through conditional occurrences is resolved *exactly* by expanding
//!    one participating `∨` node into its branches and recursing — the
//!    goal is equivalent to the disjunction of its branch-instantiations.
//! 4. A `receive` with no co-occurrence-guaranteed `send` (no compatible
//!    send whose choice-guards are implied by the receive's) is a dead
//!    wait and is resolved the same way.
//!
//! For goals produced by `Apply` on unique-event inputs, every execution
//! containing a `receive(ξ)` also contains the matching `send(ξ)` by
//! construction, and each channel has one send and one receive per
//! execution; on this class the analysis needs no expansion beyond the
//! knot-entangled choices and runs in time proportional to the goal size
//! (Theorem 5.11) — measured in experiment E2.

use crate::apply::{Op, Parallelism, Scratch, Table};
use crate::goal::{Channel, Goal};
use std::collections::BTreeSet;
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
    let out = excise_inner(table, goal, &mut reports, &mut guaranteed);
    ExciseResult {
        goal: table.rewrite(Op::Simplify, &out, |_| out.simplify()),
        reports,
        guaranteed_knot_free: guaranteed,
    }
}

fn excise_inner<T: Table>(
    table: &mut T,
    goal: &Goal,
    reports: &mut Vec<KnotReport>,
    guaranteed: &mut bool,
) -> Goal {
    // Exact distribution at a disjunctive root: each branch is its own
    // region, and so its own unit for the table.
    if let Goal::Or(gs) = goal {
        return crate::goal::or(
            gs.iter()
                .map(|g| excise_inner(table, g, reports, guaranteed))
                .collect(),
        );
    }
    let region = table.region(goal, || {
        let mut reports = Vec::new();
        let mut guaranteed = true;
        let goal = excise_region(goal, &mut reports, &mut guaranteed);
        ExciseResult {
            goal,
            reports,
            guaranteed_knot_free: guaranteed,
        }
    });
    reports.extend(region.reports);
    *guaranteed &= region.guaranteed_knot_free;
    region.goal
}

// ---------------------------------------------------------------------------
// Occurrence collection
// ---------------------------------------------------------------------------

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

struct Collector {
    occs: Vec<Occ>,
    next_block: usize,
}

fn collect_occurrences(goal: &Goal) -> Vec<Occ> {
    fn walk(
        goal: &Goal,
        path: &mut Vec<usize>,
        ctx: &mut Vec<NodeKind>,
        blocks: &mut Vec<usize>,
        col: &mut Collector,
    ) {
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

// ---------------------------------------------------------------------------
// Region analysis
// ---------------------------------------------------------------------------

fn excise_region(goal: &Goal, reports: &mut Vec<KnotReport>, guaranteed: &mut bool) -> Goal {
    let occs = collect_occurrences(goal);
    if occs.is_empty() {
        return goal.clone();
    }

    // --- Dead-receive analysis -------------------------------------------
    for (ri, r) in occs.iter().enumerate() {
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
                let prefix = r.path[..depth].to_vec();
                // If the guard came from a send, the prefix must be taken
                // from that occurrence's path.
                let prefix = if r.ctx.get(depth) == Some(&NodeKind::Or) {
                    prefix
                } else {
                    let si = compatible_sends
                        .iter()
                        .copied()
                        .find(|&si| occs[si].ctx.get(depth) == Some(&NodeKind::Or))
                        .expect("guard index originated from a send occurrence");
                    occs[si].path[..depth].to_vec()
                };
                return expand_and_recurse(goal, &prefix, reports, guaranteed);
            }
            None => {
                // The receive occurs in every execution (unguarded) and no
                // send can ever precede it.
                let _ = ri;
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
                    return expand_and_recurse(goal, &prefix, reports, guaranteed);
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
            // outcome; only whole regions go through a table.
            excise_inner(&mut Scratch, &g, reports, guaranteed)
        })
        .collect();
    crate::goal::or(variants)
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

/// Returns the nodes of one strongly connected component with ≥ 2 nodes (or
/// a self-loop), if any — iterative Tarjan.
fn find_cycle(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
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
                            return Some(comp);
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
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply;
    use crate::constraints::Constraint;
    use crate::goal::{conc, isolated, or, seq};
    use crate::semantics::event_traces;

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
}
