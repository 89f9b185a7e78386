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
//! an order `a < b`, whether `b` already reaches `a`. Neither makes an
//! edge from a vertex to itself, so a cycle is a strongly connected
//! component of more than one vertex.

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
    /// Tarjan's indices and low-links; `index` doubles as the visit marks
    /// of [`Graph::reaches`] and the in-degrees of [`Graph::acyclic`].
    index: Vec<u32>,
    low: Vec<u32>,
    /// Tarjan's stack, the search stack of [`Graph::reaches`] and the
    /// ready list of [`Graph::acyclic`].
    open: Vec<u32>,
    /// The recursion's stack: (vertex, next edge of its row to look at).
    call: Vec<(u32, u32)>,
}

/// `n` copies of `value` in place of what `vector` held.
fn refill(vector: &mut Vec<u32>, n: usize, value: u32) {
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
    /// is on no cycle: neither caller makes an edge from a vertex to
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
    /// `from` to `to`. Each vertex reached scans `more`, so it is meant to
    /// be short.
    pub(crate) fn reaches(&mut self, from: u32, to: u32, more: &[(u32, u32)]) -> bool {
        let n = self.vertices();
        let (row, targets) = (&self.row, &self.targets);
        let (seen, stack) = (&mut self.index, &mut self.open);
        refill(seen, n, 0);
        stack.clear();
        stack.push(from);
        while let Some(u) = stack.pop() {
            let extra = more.iter().filter(|e| e.0 == u).map(|e| &e.1);
            let u = u as usize;
            for &v in targets[row[u] as usize..row[u + 1] as usize]
                .iter()
                .chain(extra)
            {
                if v == to {
                    return true;
                }
                if seen[v as usize] == 0 {
                    seen[v as usize] = 1;
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
