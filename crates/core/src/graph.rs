//! The one directed-graph type of the compiler, and the questions it is
//! asked: which vertices lie on a cycle, is there a cycle at all, and does
//! one vertex reach another.
//!
//! Both of its callers ask whether a precedence graph — a goal's
//! series-parallel order plus extra edges — has a cycle. `Excise` adds a
//! region's `send(ξ) → receive(ξ)` waits and excises what lies on a cycle
//! (a *knot*, `excise.rs`). The graph fragment's graph test — behind
//! an `Analyzer`'s consistency, verification, redundancy and conflict
//! queries while every constraint is a run that leaves the goal alone —
//! adds the runs' orders, and `G ∧ R` has an execution iff
//! there is none, which Kahn's peeling tells without naming the knots
//! (Prop 4.1, `redundancy.rs`); its selection search asks, as it chooses
//! an order `a < b`, whether `b` already reaches `a`. `Excise` never makes
//! an edge from a vertex to itself, so [`Graph::find_knots`] takes a knot
//! to be a strongly connected component of more than one vertex. The
//! fragment's graph may hold one: `Search::place` (`redundancy.rs`) gives a
//! reflexive order `a < a` on an event outside every `∨` the edge
//! `(v, v)`, a cycle of one vertex, which [`Graph::acyclic`] and
//! [`Graph::reaches`] both see.

/// "No such vertex": the knot of a vertex on no cycle.
const NONE: u32 = u32::MAX;

/// A graph over the vertices `0..n` in compressed rows, with the vectors
/// its searches work in. Each graph is filled in place of the one before,
/// so only the first few a caller builds allocate.
#[derive(Default)]
pub(crate) struct Graph {
    /// The successors of `v` are `targets[row[v]..row[v + 1]]`.
    row: Vec<u32>,
    targets: Vec<u32>,
    /// Per vertex, the knot it is on; see [`Graph::find_knots`].
    knot: Vec<u32>,
    /// Tarjan's indices and low-links; `index` doubles as the marks of
    /// [`Graph::reaches`] and the in-degrees of [`Graph::acyclic`].
    index: Vec<u32>,
    low: Vec<u32>,
    /// Tarjan's stack, the search stack of [`Graph::reaches`] and the
    /// ready list of [`Graph::acyclic`].
    open: Vec<u32>,
    /// The recursion's stack: (vertex, next edge of its row to look at).
    call: Vec<(u32, u32)>,
}

/// `n` copies of `value` in place of what `vector` held.
pub(crate) fn refill(vector: &mut Vec<u32>, n: usize, value: u32) {
    vector.clear();
    vector.resize(n, value);
}

impl Graph {
    /// The graph over `vertices` vertices with the edges `edges` and
    /// `more`, each `(from, to)`, in place of this one.
    pub(crate) fn fill(&mut self, vertices: usize, edges: &[(u32, u32)], more: &[(u32, u32)]) {
        assert!(
            edges.len() + more.len() < NONE as usize,
            "fewer than 2^32 edges"
        );
        let row = &mut self.row;
        refill(row, vertices + 2, 0);
        for &(u, _) in edges.iter().chain(more) {
            row[u as usize + 2] += 1;
        }
        for v in 2..row.len() {
            row[v] += row[v - 1];
        }
        refill(&mut self.targets, edges.len() + more.len(), 0);
        for &(u, v) in edges.iter().chain(more) {
            let at = &mut row[u as usize + 1];
            self.targets[*at as usize] = v;
            *at += 1;
        }
    }

    fn vertices(&self) -> usize {
        self.row.len() - 2
    }

    /// Finds the knots — the strongly connected components of more than
    /// one vertex, each named by one of its vertices — in one iterative
    /// Tarjan pass, and returns true if there is one. A component of one
    /// is on no cycle: `Excise`, the caller, makes no edge from a vertex to
    /// itself.
    pub(crate) fn find_knots(&mut self) -> bool {
        /// `low` of a vertex whose component is complete.
        const DONE: u32 = u32::MAX;
        let n = self.vertices();
        let (row, targets) = (&self.row, &self.targets);
        let (knot, index, low) = (&mut self.knot, &mut self.index, &mut self.low);
        let (open, call) = (&mut self.open, &mut self.call);
        refill(index, n, NONE);
        refill(low, n, 0);
        refill(knot, n, NONE);
        // Neither stack holds a vertex twice.
        open.clear();
        open.reserve(n);
        call.clear();
        call.reserve(n);
        let mut any = false;
        let mut next_index = 0u32;
        for start in 0..n as u32 {
            if index[start as usize] != NONE {
                continue;
            }
            call.push((start, row[start as usize]));
            while let Some(top) = call.last_mut() {
                let (v, edge) = *top;
                let vi = v as usize;
                if index[vi] == NONE {
                    index[vi] = next_index;
                    low[vi] = next_index;
                    next_index += 1;
                    open.push(v);
                }
                if edge < row[vi + 1] {
                    top.1 += 1;
                    let w = targets[edge as usize];
                    if index[w as usize] == NONE {
                        call.push((w, row[w as usize]));
                    } else if low[w as usize] != DONE {
                        low[vi] = low[vi].min(index[w as usize]);
                    }
                    continue;
                }
                call.pop();
                let low_v = low[vi];
                if low_v == index[vi] {
                    let alone = open.last() == Some(&v);
                    any |= !alone;
                    while let Some(w) = open.pop() {
                        low[w as usize] = DONE;
                        if !alone {
                            knot[w as usize] = v;
                        }
                        if w == v {
                            break;
                        }
                    }
                } else if let Some(&(parent, _)) = call.last() {
                    let pi = parent as usize;
                    low[pi] = low[pi].min(low_v);
                }
            }
        }
        any
    }

    /// True if the graph has no cycle: Kahn's peeling of vertices with no
    /// edge left into them, which is all the graph fragment's one-run
    /// test asks and lighter than finding the knots.
    pub(crate) fn acyclic(&mut self) -> bool {
        let n = self.vertices();
        let (row, targets) = (&self.row, &self.targets);
        let (waiting, ready) = (&mut self.index, &mut self.open);
        refill(waiting, n, 0);
        for &v in targets.iter() {
            waiting[v as usize] += 1;
        }
        ready.clear();
        ready.extend((0..n as u32).filter(|&v| waiting[v as usize] == 0));
        let mut peeled = 0;
        while let Some(u) = ready.pop() {
            peeled += 1;
            let u = u as usize;
            for &v in &targets[row[u] as usize..row[u + 1] as usize] {
                let left = &mut waiting[v as usize];
                *left -= 1;
                if *left == 0 {
                    ready.push(v);
                }
            }
        }
        peeled == n
    }

    /// The knot `v` is on, as [`Graph::find_knots`] last found them.
    pub(crate) fn knot(&self, v: u32) -> Option<u32> {
        let knot = self.knot[v as usize];
        (knot != NONE).then_some(knot)
    }

    /// True if the graph with the edges `more` added holds a path from
    /// `from` to `to`. The sources of `more` are marked first, and only a
    /// marked vertex scans `more`, so a query costs `O(|G| + k·s)` for `k`
    /// extra edges out of `s` distinct sources reached.
    pub(crate) fn reaches(&mut self, from: u32, to: u32, more: &[(u32, u32)]) -> bool {
        const SEEN: u32 = 1;
        const SOURCE: u32 = 2;
        let n = self.vertices();
        let (row, targets) = (&self.row, &self.targets);
        let (marks, stack) = (&mut self.index, &mut self.open);
        refill(marks, n, 0);
        for &(u, _) in more {
            marks[u as usize] |= SOURCE;
        }
        stack.clear();
        stack.push(from);
        while let Some(u) = stack.pop() {
            let extra = if marks[u as usize] & SOURCE != 0 {
                more
            } else {
                &[]
            };
            let extra = extra.iter().filter(|e| e.0 == u).map(|e| &e.1);
            let u = u as usize;
            for &v in targets[row[u] as usize..row[u + 1] as usize]
                .iter()
                .chain(extra)
            {
                if v == to {
                    return true;
                }
                if marks[v as usize] & SEEN == 0 {
                    marks[v as usize] |= SEEN;
                    stack.push(v);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dag_has_no_knot_and_reaches_along_its_edges() {
        let mut dag = Graph::default();
        dag.fill(4, &[(0, 1), (1, 2)], &[(0, 3)]);
        assert!(dag.acyclic());
        assert!(!dag.find_knots());
        assert!((0..4).all(|v| dag.knot(v).is_none()));
        assert!(dag.reaches(0, 2, &[]));
        assert!(!dag.reaches(2, 0, &[]));
        assert!(dag.reaches(2, 0, &[(2, 3), (3, 0)]));
        assert!(!dag.reaches(3, 1, &[]));
    }

    /// `to` among the vertices a breadth-first search from `from` reaches
    /// over `edges` and `more` alike, by at least one edge.
    fn bfs_reaches(n: u32, edges: &[(u32, u32)], from: u32, to: u32) -> bool {
        let mut seen = vec![false; n as usize];
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(u) = queue.pop_front() {
            for &(_, v) in edges.iter().filter(|e| e.0 == u) {
                if v == to {
                    return true;
                }
                if !std::mem::replace(&mut seen[v as usize], true) {
                    queue.push_back(v);
                }
            }
        }
        false
    }

    #[test]
    fn reaches_is_a_breadth_first_search_over_both_edge_lists() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(44);
        let mut g = Graph::default();
        for _ in 0..500 {
            let n = rng.gen_range(1..12u32);
            let edge = |rng: &mut StdRng| (rng.gen_range(0..n), rng.gen_range(0..n));
            let edges: Vec<(u32, u32)> = (0..rng.gen_range(0..2 * n))
                .map(|_| edge(&mut rng))
                .collect();
            let more: Vec<(u32, u32)> = (0..rng.gen_range(0..6)).map(|_| edge(&mut rng)).collect();
            g.fill(n as usize, &edges, &[]);
            let all: Vec<(u32, u32)> = edges.iter().chain(&more).copied().collect();
            for (from, to) in (0..n).flat_map(|u| (0..n).map(move |v| (u, v))) {
                assert_eq!(
                    g.reaches(from, to, &more),
                    bfs_reaches(n, &all, from, to),
                    "{from} → {to} over {edges:?} and {more:?}"
                );
            }
        }
    }

    #[test]
    fn a_reflexive_edge_is_a_cycle_of_one() {
        let mut g = Graph::default();
        g.fill(2, &[(0, 1)], &[(1, 1)]);
        assert!(!g.acyclic());
        assert!(g.reaches(1, 1, &[]));
        g.fill(2, &[(0, 1)], &[]);
        assert!(g.acyclic());
        assert!(!g.reaches(1, 1, &[]) && g.reaches(1, 1, &[(1, 1)]));
    }

    #[test]
    fn the_knots_are_the_components_on_a_cycle() {
        // 0 → 1 → 2 → 0 and 3 ⇄ 4, joined by 2 → 3; 5 hangs off 4.
        let mut g = Graph::default();
        g.fill(
            6,
            &[(0, 1), (1, 2), (2, 0), (2, 3)],
            &[(3, 4), (4, 3), (4, 5)],
        );
        assert!(!g.acyclic());
        assert!(g.find_knots());
        let knots: Vec<Option<u32>> = (0..6).map(|v| g.knot(v)).collect();
        assert!(knots[0].is_some() && knots[..3].iter().all(|&k| k == knots[0]));
        assert!(knots[3].is_some() && knots[3] == knots[4]);
        assert_ne!(knots[0], knots[3]);
        assert_eq!(knots[5], None);
        // A refill forgets the graph before it.
        g.fill(2, &[(0, 1)], &[]);
        assert!(g.acyclic());
        assert!(!g.find_knots());
    }
}
