//! Trace equivalence of two compiled programs — the one referee for a
//! rewrite that keeps what a workflow may do but not how its goal looks.
//!
//! [`equivalent`] walks the product of the two programs' transition
//! systems on the fly, the scheduler's cursor state being a state and a
//! fired event a labelled step. Several nodes may carry one event (`Apply`
//! copies events into the alternatives of a `∨`), so each side is a
//! *set* of cursors — the subset construction — keyed by their sorted
//! [`Scheduler::residual_key`]s, which forget the history, so the walk
//! is as large as the programs' futures, not exponential in the trace
//! length. Silent steps (`send`, `receive`, `ε` that
//! commit a choice) are closed eagerly: a set holds every cursor they
//! reach. Two programs are equal when every pair of sets the same trace
//! reaches agrees on whether it may complete; the walk is breadth-first,
//! so a difference comes back as a shortest trace one program completes
//! and the other does not.
//!
//! Like the marking graph of [`crate::modelcheck`], the product is
//! exponential in the concurrent width (§6), so the walk stops at a cap on
//! the pairs it has seen.

use ctr::term::Atom;
use ctr_engine::scheduler::{Program, Scheduler};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};

/// What [`equivalent`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Equivalence {
    /// The programs complete exactly the same traces.
    Equal,
    /// A shortest trace exactly one of the programs completes.
    Differs(Vec<Atom>),
    /// Undecided: the walk saw this many pairs of states, the cap, and
    /// found no difference among them.
    Unknown(usize),
}

/// One side of the product: the distinct cursors a trace reaches.
struct Side<'p> {
    program: &'p Program,
    /// Every state met so far, numbered, by a 128-bit digest of its key:
    /// a key is a few bytes per live node, too many to keep by the
    /// hundred thousand.
    ids: HashMap<u128, u32>,
}

/// The cursors of one side a trace reaches, by their ids, sorted.
type Set<'p> = Vec<(u32, Scheduler<&'p Program>)>;

impl<'p> Side<'p> {
    fn new(program: &'p Program) -> Side<'p> {
        Side {
            program,
            ids: HashMap::new(),
        }
    }

    fn id(&mut self, cursor: &Scheduler<&'p Program>) -> u32 {
        let key = cursor.residual_key();
        let digest = |seed: u64| {
            let mut hasher = DefaultHasher::new();
            seed.hash(&mut hasher);
            key.hash(&mut hasher);
            hasher.finish()
        };
        let next = self.ids.len() as u32;
        let digest = u128::from(digest(1)) << 64 | u128::from(digest(2));
        *self.ids.entry(digest).or_insert(next)
    }

    /// `cursors` and every cursor silent steps take them to, each once.
    fn close(&mut self, cursors: Vec<Scheduler<&'p Program>>) -> Set<'p> {
        let mut set: Set<'p> = Vec::new();
        let mut seen = HashSet::new();
        let mut todo = cursors;
        while let Some(cursor) = todo.pop() {
            let id = self.id(&cursor);
            if !seen.insert(id) {
                continue;
            }
            for choice in cursor.eligible() {
                if self.program.event(choice.node).is_none() {
                    let mut next = cursor.clone();
                    next.fire(choice.node);
                    todo.push(next);
                }
            }
            set.push((id, cursor));
        }
        set.sort_unstable_by_key(|(id, _)| *id);
        set
    }

    /// The cursors of `set` after `label`, closed.
    fn step(&mut self, set: &Set<'p>, label: &Atom) -> Set<'p> {
        let mut next = Vec::new();
        for (_, cursor) in set {
            for choice in cursor.eligible() {
                if self.program.event(choice.node) == Some(label) {
                    let mut fired = cursor.clone();
                    fired.fire(choice.node);
                    next.push(fired);
                }
            }
        }
        self.close(next)
    }

    /// The events some cursor of `set` may fire next.
    fn labels(&self, set: &Set<'p>, into: &mut Vec<Atom>) {
        for (_, cursor) in set {
            let events = cursor.eligible().iter();
            into.extend(events.filter_map(|c| self.program.event(c.node).cloned()));
        }
    }
}

fn accepts(set: &Set<'_>) -> bool {
    set.iter().any(|(_, cursor)| cursor.is_complete())
}

fn ids(set: &Set<'_>) -> Vec<u32> {
    set.iter().map(|(id, _)| *id).collect()
}

/// Do `p` and `q` complete the same traces? Walks at most `cap` pairs of
/// cursor sets.
pub fn equivalent(p: &Program, q: &Program, cap: usize) -> Equivalence {
    let (mut left, mut right) = (Side::new(p), Side::new(q));
    let start = (
        left.close(vec![Scheduler::new(p)]),
        right.close(vec![Scheduler::new(q)]),
    );
    let mut seen: HashSet<(Vec<u32>, Vec<u32>)> = HashSet::from([(ids(&start.0), ids(&start.1))]);
    // Each pair reached, with the pair it was reached from and the event
    // that took it there: the trace, read backwards.
    let mut reached: Vec<(usize, Option<Atom>)> = vec![(0, None)];
    let mut queue = VecDeque::from([(0, start)]);
    let mut labels = Vec::new();
    while let Some((at, (ps, qs))) = queue.pop_front() {
        if accepts(&ps) != accepts(&qs) {
            let mut trace = Vec::new();
            let mut back = at;
            while let (from, Some(label)) = &reached[back] {
                trace.push(label.clone());
                back = *from;
            }
            trace.reverse();
            return Equivalence::Differs(trace);
        }
        labels.clear();
        left.labels(&ps, &mut labels);
        right.labels(&qs, &mut labels);
        labels.sort_unstable();
        labels.dedup();
        for label in &labels {
            let next = (left.step(&ps, label), right.step(&qs, label));
            if !seen.insert((ids(&next.0), ids(&next.1))) {
                continue;
            }
            if seen.len() > cap {
                return Equivalence::Unknown(cap);
            }
            reached.push((at, Some(label.clone())));
            queue.push_back((reached.len() - 1, next));
        }
    }
    Equivalence::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctr::goal::{conc, or, seq, Goal};
    use ctr::symbol::sym;

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    fn program(goal: &Goal) -> Program {
        Program::compile(goal).unwrap()
    }

    #[test]
    fn a_program_equals_itself_and_a_refactoring() {
        let a = seq(vec![g("a"), or(vec![g("b"), g("c")]), g("d")]);
        let b = or(vec![
            seq(vec![g("a"), g("b"), g("d")]),
            seq(vec![g("a"), g("c"), g("d")]),
        ]);
        assert_eq!(
            equivalent(&program(&a), &program(&a), 100),
            Equivalence::Equal
        );
        assert_eq!(
            equivalent(&program(&a), &program(&b), 100),
            Equivalence::Equal
        );
    }

    #[test]
    fn a_difference_comes_back_as_a_shortest_trace() {
        let a = conc(vec![g("a"), g("b")]);
        let b = seq(vec![g("a"), g("b")]);
        let Equivalence::Differs(trace) = equivalent(&program(&a), &program(&b), 100) else {
            panic!("`{a}` and `{b}` differ");
        };
        let names: Vec<_> = trace.iter().filter_map(Atom::as_event).collect();
        assert_eq!(names, [sym("b"), sym("a")]);
        // A prefix one side cannot complete is no difference by itself.
        let stuck = seq(vec![g("a"), Goal::Receive(ctr::goal::Channel(9))]);
        let c = or(vec![seq(vec![g("a"), g("b")]), stuck]);
        assert_eq!(
            equivalent(&program(&b), &program(&c), 100),
            Equivalence::Equal
        );
    }

    #[test]
    fn the_cap_leaves_the_answer_open() {
        let wide = |n: usize| conc((0..n).map(|i| g(&format!("w{i}"))).collect());
        let (a, b) = (wide(8), seq(vec![wide(7), g("w7")]));
        assert!(matches!(
            equivalent(&program(&a), &program(&a), 20),
            Equivalence::Unknown(20)
        ));
        assert!(matches!(
            equivalent(&program(&a), &program(&b), 1_000),
            Equivalence::Differs(_)
        ));
    }
}
