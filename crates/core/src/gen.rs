//! Workload generators for tests and for the benchmark harness.
//!
//! Everything here produces unique-event goals *by construction*
//! (serial/concurrent siblings draw from disjoint event pools; only
//! `∨`-branches may share), so generated inputs are always in the class
//! the compilation is defined on.
//!
//! The generators correspond to the experiment families of DESIGN.md:
//! random goals for the property-based equivalence tests, layered
//! series-parallel workflows for the Theorem 5.11 size/time measurements,
//! and the 3-SAT reduction behind the NP-hardness claim of
//! Proposition 4.1.

use crate::constraints::Constraint;
use crate::goal::{conc, isolated, or, possible, seq, Goal};
use crate::symbol::{sym, Symbol};
use crate::term::Atom;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`random_goal`].
#[derive(Clone, Copy, Debug)]
pub struct GoalShape {
    /// Maximum nesting depth.
    pub depth: usize,
    /// Maximum children per connective.
    pub width: usize,
    /// Probability that an interior node is an `∨` (the rest split evenly
    /// between `⊗` and `|`).
    pub or_bias: f64,
}

impl Default for GoalShape {
    fn default() -> Self {
        GoalShape {
            depth: 4,
            width: 3,
            or_bias: 0.34,
        }
    }
}

/// Generates a random unique-event goal over fresh events named
/// `{prefix}0, {prefix}1, …`. Returns the goal and the events used.
pub fn random_goal(seed: u64, shape: GoalShape, prefix: &str) -> (Goal, Vec<Symbol>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next = 0usize;
    let goal = build(&mut rng, shape.depth, shape, prefix, &mut next);
    let events = (0..next).map(|i| sym(&format!("{prefix}{i}"))).collect();
    (goal, events)
}

fn build(rng: &mut StdRng, depth: usize, shape: GoalShape, prefix: &str, next: &mut usize) -> Goal {
    // A sliver of empty goals keeps ε-branches (`a ∨ ε`) in the test
    // distribution — they exercise silent-finish scheduling.
    if rng.gen_bool(0.04) {
        return Goal::Empty;
    }
    if depth == 0 || rng.gen_bool(0.3) {
        let e = *next;
        *next += 1;
        return Goal::atom(format!("{prefix}{e}"));
    }
    let width = rng.gen_range(2..=shape.width.max(2));
    let children: Vec<Goal> = (0..width)
        .map(|_| build(rng, depth - 1, shape, prefix, next))
        .collect();
    if rng.gen_bool(shape.or_bias) {
        // ∨-branches may legally share events, but generating disjoint
        // pools keeps the goal unique-event for every subset of events.
        or(children)
    } else if rng.gen_bool(0.5) {
        seq(children)
    } else {
        conc(children)
    }
}

/// Picks `count` random constraints over the given events: a mix of Klein
/// order, Klein existence, `causes_later`, and primitive constraints —
/// the shapes catalogued in §3 of the paper.
pub fn random_constraints(seed: u64, events: &[Symbol], count: usize) -> Vec<Constraint> {
    assert!(events.len() >= 2, "need at least two events to constrain");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let a = events[rng.gen_range(0..events.len())];
            let mut b = events[rng.gen_range(0..events.len())];
            while b == a {
                b = events[rng.gen_range(0..events.len())];
            }
            match rng.gen_range(0..6) {
                0 => Constraint::klein_order(a, b),
                1 => Constraint::klein_exists(a, b),
                2 => Constraint::causes_later(a, b),
                3 => Constraint::must(a),
                4 => Constraint::must_not(a),
                _ => Constraint::requires_earlier(a, b),
            }
        })
        .collect()
}

/// Picks `count` random constraints of the *run* fragment — those whose
/// normal form has a single disjunct, the ones a run of `Apply` takes in
/// two walks — over `events` (the goal's) and one event outside them:
/// orders (reflexive ones included), three-event serials, `∇`, `¬∇`, and
/// conjunctions of two of these. [`random_constraints`] never emits a
/// plain order, so it never puts two orders before the trace oracle.
pub fn random_run_constraints(seed: u64, events: &[Symbol], count: usize) -> Vec<Constraint> {
    assert!(!events.is_empty(), "need an event to constrain");
    let mut rng = StdRng::seed_from_u64(seed);
    let absent = (0..)
        .map(|k| sym(&format!("absent{k}")))
        .find(|e| !events.contains(e))
        .expect("a name outside a finite pool");
    let pick = |rng: &mut StdRng| {
        if rng.gen_bool(0.1) {
            absent
        } else {
            events[rng.gen_range(0..events.len())]
        }
    };
    // `k` events, a repeat among them (a reflexive order) now and then.
    let draw = |rng: &mut StdRng, k: usize| {
        let mut drawn: Vec<Symbol> = Vec::with_capacity(k);
        while drawn.len() < k {
            let e = pick(rng);
            if !drawn.contains(&e) || rng.gen_bool(0.05) {
                drawn.push(e);
            }
        }
        drawn
    };
    let basic = |rng: &mut StdRng| match rng.gen_range(0..8) {
        0..=3 => Constraint::serial(draw(rng, 2)),
        4 => Constraint::serial(draw(rng, 3)),
        5 | 6 => Constraint::must(pick(rng)),
        _ => Constraint::must_not(pick(rng)),
    };
    (0..count)
        .map(|_| {
            if rng.gen_bool(0.2) {
                Constraint::and(vec![basic(&mut rng), basic(&mut rng)])
            } else {
                basic(&mut rng)
            }
        })
        .collect()
}

/// A layered series-parallel workflow: `layers` sequential stages, each a
/// concurrent block of `lanes` branches, each branch an `∨` of two
/// activities (`l{i}_{j}` / `r{i}_{j}`) — the structured shape of
/// commercial control-flow graphs (Figure 1 writ large).
///
/// Size is `Θ(layers × lanes)`; every event is unique by construction.
pub fn layered_workflow(layers: usize, lanes: usize) -> Goal {
    seq((0..layers)
        .map(|i| {
            conc(
                (0..lanes)
                    .map(|j| {
                        or(vec![
                            Goal::atom(format!("l{i}_{j}")),
                            Goal::atom(format!("r{i}_{j}")),
                        ])
                    })
                    .collect(),
            )
        })
        .collect())
}

/// The events of [`layered_workflow`]'s `(i, j)` cell.
pub fn layered_events(i: usize, j: usize) -> (Symbol, Symbol) {
    (sym(&format!("l{i}_{j}")), sym(&format!("r{i}_{j}")))
}

/// A pure pipeline `t0 ⊗ t1 ⊗ … ⊗ t{n−1}` — the `d = 1` workload for the
/// serial-constraints corollary of Theorem 5.11.
pub fn pipeline_workflow(n: usize) -> Goal {
    seq((0..n).map(|i| Goal::atom(format!("t{i}"))).collect())
}

/// A fully concurrent workflow `t0 | t1 | … | t{n−1}` — the workload where
/// scheduling choices are maximal.
pub fn parallel_workflow(n: usize) -> Goal {
    conc((0..n).map(|i| Goal::atom(format!("t{i}"))).collect())
}

/// `k` Klein order constraints chaining the stages of a layered workflow:
/// `l{i}_0` before `l{i+1}_0`. Each has `d = 3` disjuncts.
pub fn klein_chain(k: usize) -> Vec<Constraint> {
    (0..k)
        .map(|i| {
            let (a, _) = layered_events(i, 0);
            let (b, _) = layered_events(i + 1, 0);
            Constraint::klein_order(a, b)
        })
        .collect()
}

/// `k` Klein order constraints no two of which share an event, over a `|`
/// of `2k` binary choices `p{i} ∨ q{i}`: no alternative one of them yields
/// satisfies another ahead of time, so `Apply` reaches the `3^k`
/// alternatives of Theorem 5.11's worst case.
pub fn independent_kleins(k: usize) -> (Goal, Vec<Constraint>) {
    let name = |side: &str, i: usize| sym(&format!("{side}{i}"));
    let choice = |i| or(vec![Goal::atom(name("p", i)), Goal::atom(name("q", i))]);
    let goal = conc((0..2 * k).map(choice).collect());
    let constraints = (0..k)
        .map(|i| Constraint::klein_order(name("p", 2 * i), name("p", 2 * i + 1)))
        .collect();
    (goal, constraints)
}

/// A goal over `events`, unique-event by construction, that uses every
/// connective: `⊗` and `|` deal the pool out among their children, the
/// branches of an `∨` each draw on all of it (so they share events), `⊙`
/// wraps, `ε` appears, and `◇` — whose content does not occur — draws on
/// `all`.
pub fn sharing_goal(rng: &mut StdRng, events: &[Symbol], all: &[Symbol], depth: usize) -> Goal {
    if events.is_empty() || rng.gen_bool(0.05) {
        return Goal::Empty;
    }
    if depth == 0 || events.len() == 1 || rng.gen_bool(0.15) {
        return Goal::Atom(Atom::prop(events[rng.gen_range(0..events.len())]));
    }
    match rng.gen_range(0..10) {
        0..=2 => or((0..rng.gen_range(2..=3))
            .map(|_| sharing_goal(rng, events, all, depth - 1))
            .collect()),
        3 => isolated(sharing_goal(rng, events, all, depth - 1)),
        4 => possible(sharing_goal(rng, all, all, depth - 1)),
        kind => {
            let (left, right) = events.split_at(rng.gen_range(1..events.len()));
            let children = vec![
                sharing_goal(rng, left, all, depth - 1),
                sharing_goal(rng, right, all, depth - 1),
            ];
            if kind % 2 == 0 {
                seq(children)
            } else {
                conc(children)
            }
        }
    }
}

/// `k` plain order constraints (`d = 1`) over a pipeline's tasks:
/// `t{2i}` before `t{2i+1}`.
pub fn order_chain(k: usize) -> Vec<Constraint> {
    (0..k)
        .map(|i| Constraint::order(sym(&format!("t{}", 2 * i)), sym(&format!("t{}", 2 * i + 1))))
        .collect()
}

// ---------------------------------------------------------------------------
// The 3-SAT reduction of Proposition 4.1
// ---------------------------------------------------------------------------

/// A 3-SAT instance: `clauses[i]` holds up to three literals; a literal is
/// `(variable, polarity)` with `polarity = true` for the positive literal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SatInstance {
    /// Number of propositional variables, named `0..vars`.
    pub vars: usize,
    /// The clauses.
    pub clauses: Vec<Vec<(usize, bool)>>,
}

impl SatInstance {
    /// Evaluates the instance under an assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses
            .iter()
            .all(|cl| cl.iter().any(|&(v, pol)| assignment[v] == pol))
    }

    /// Brute-force satisfiability — the ground truth for testing the
    /// reduction (only for small `vars`).
    pub fn brute_force_sat(&self) -> bool {
        assert!(self.vars <= 24, "brute force limited to small instances");
        (0u32..(1 << self.vars)).any(|bits| {
            let assignment: Vec<bool> = (0..self.vars).map(|v| bits & (1 << v) != 0).collect();
            self.eval(&assignment)
        })
    }
}

/// A random 3-SAT instance at the given clause/variable ratio.
pub fn random_3sat(seed: u64, vars: usize, clauses: usize) -> SatInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let clauses = (0..clauses)
        .map(|_| {
            let mut lits = Vec::with_capacity(3);
            while lits.len() < 3 {
                let v = rng.gen_range(0..vars);
                if lits.iter().all(|&(w, _)| w != v) {
                    lits.push((v, rng.gen_bool(0.5)));
                }
            }
            lits
        })
        .collect();
    SatInstance { vars, clauses }
}

/// The workflow-consistency encoding of a 3-SAT instance — the reduction
/// behind Proposition 4.1, using **existence constraints only**.
///
/// The workflow runs one concurrent lane per variable, each choosing
/// `x{v}_t` (true) or `x{v}_f` (false). Each clause becomes the existence
/// constraint `∇lit₁ ∨ ∇lit₂ ∨ ∇lit₃`. The specification is consistent
/// iff the instance is satisfiable.
pub fn sat_to_workflow(inst: &SatInstance) -> (Goal, Vec<Constraint>) {
    let goal = conc(
        (0..inst.vars)
            .map(|v| {
                or(vec![
                    Goal::atom(format!("x{v}_t")),
                    Goal::atom(format!("x{v}_f")),
                ])
            })
            .collect(),
    );
    let constraints = inst
        .clauses
        .iter()
        .map(|cl| {
            Constraint::or(
                cl.iter()
                    .map(|&(v, pol)| {
                        Constraint::must(sym(&format!("x{v}_{}", if pol { 't' } else { 'f' })))
                    })
                    .collect(),
            )
        })
        .collect();
    (goal, constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::is_consistent;
    use crate::unique::is_unique_event;

    #[test]
    fn random_goals_are_unique_event() {
        for seed in 0..20 {
            let (goal, _) = random_goal(seed, GoalShape::default(), "e");
            assert!(is_unique_event(&goal), "seed {seed}: {goal}");
        }
    }

    #[test]
    fn random_goal_is_deterministic_per_seed() {
        let (g1, _) = random_goal(42, GoalShape::default(), "e");
        let (g2, _) = random_goal(42, GoalShape::default(), "e");
        assert_eq!(g1, g2);
    }

    #[test]
    fn layered_workflow_shape() {
        let w = layered_workflow(3, 2);
        assert!(is_unique_event(&w));
        // 3 stages × 2 lanes × (or + 2 atoms) + 2 conc + 1 seq wrappers.
        assert_eq!(w.size(), 3 * 2 * 3 + 3 + 1);
        assert_eq!(w.variant_count(), 1 << 6);
    }

    #[test]
    fn pipeline_and_parallel_workflows() {
        assert_eq!(pipeline_workflow(4).size(), 5);
        assert_eq!(parallel_workflow(4).size(), 5);
        assert_eq!(pipeline_workflow(1), Goal::atom("t0"));
    }

    #[test]
    fn klein_chain_references_layered_events() {
        let cs = klein_chain(2);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0], Constraint::klein_order("l0_0", "l1_0"));
    }

    #[test]
    fn sat_reduction_round_trips_satisfiability() {
        for seed in 0..12 {
            // ratio ~4.3 straddles the sat/unsat threshold: both outcomes
            // appear across seeds.
            let inst = random_3sat(seed, 5, 21);
            let (goal, constraints) = sat_to_workflow(&inst);
            assert_eq!(
                is_consistent(&goal, &constraints).unwrap(),
                inst.brute_force_sat(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sat_reduction_on_known_instances() {
        // (x0 ∨ x1 ∨ x2) ∧ (¬x0 ∨ ¬x1 ∨ ¬x2): satisfiable.
        let sat = SatInstance {
            vars: 3,
            clauses: vec![
                vec![(0, true), (1, true), (2, true)],
                vec![(0, false), (1, false), (2, false)],
            ],
        };
        let (g, c) = sat_to_workflow(&sat);
        assert!(is_consistent(&g, &c).unwrap());

        // x0 ∧ ¬x0 via two unit-ish clauses: unsatisfiable.
        let unsat = SatInstance {
            vars: 1,
            clauses: vec![vec![(0, true)], vec![(0, false)]],
        };
        assert!(!unsat.brute_force_sat());
        let (g, c) = sat_to_workflow(&unsat);
        assert!(!is_consistent(&g, &c).unwrap());
    }

    #[test]
    fn random_run_constraints_stay_in_the_run_fragment() {
        let events: Vec<Symbol> = (0..5).map(|i| sym(&format!("v{i}"))).collect();
        let cs = random_run_constraints(7, &events, 200);
        let mut seen = [false; 4];
        for c in &cs {
            let nf = c.normalize();
            // A reflexive order, or a serial repeating an event, is false.
            assert!(nf.disjunct_count() <= 1, "{c}");
            if let Constraint::Serial(es) = c {
                seen[0] |= es.len() == 2 && es[0] != es[1];
                seen[1] |= es.len() == 2 && es[0] == es[1];
                seen[2] |= es.len() == 3;
            }
            seen[3] |= c.events().iter().any(|e| !events.contains(e));
        }
        assert_eq!(
            seen, [true; 4],
            "orders, reflexive orders, serials, an absent event"
        );
    }

    #[test]
    fn random_constraints_cover_catalogue() {
        let events: Vec<Symbol> = (0..5).map(|i| sym(&format!("v{i}"))).collect();
        let cs = random_constraints(7, &events, 40);
        assert_eq!(cs.len(), 40);
        // All constraint events come from the pool.
        for c in &cs {
            for e in c.events() {
                assert!(events.contains(&e));
            }
        }
    }
}
