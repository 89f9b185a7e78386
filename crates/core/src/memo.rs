//! The recording table: hash-consed subgoals and the answers to every
//! rewrite asked about them.
//!
//! Verification (Theorem 5.9) is NP-complete, and across the queries of a
//! session — a batch of properties, a re-verification after one edit, the
//! compile per probe of `minimize_constraints` outside the order fragment
//! (inside it a probe is a graph test that asks no table) — the *same*
//! subgoals are rewritten by the *same* primitive operations over and
//! over. That is the shape SLG-style tabling (Swift/Warren) exploits:
//! remember subgoal answers, keyed on structure. The rules live in
//! [`mod@crate::apply`] and [`mod@crate::excise`], written once over a
//! table strategy; this module is the strategy that remembers:
//!
//! 1. `GoalTable` — a hash-consing table interning `Goal` subtrees into
//!    stable `NodeId`s. Buckets are keyed by the cached
//!    [`Goal::structural_hash`]; inside a bucket candidates are compared
//!    with a *real* equality check (pointer comparison first, exactly like
//!    [`crate::goal::or`]'s idempotence dedup — hash equality alone is NOT
//!    identity). Repeated subtrees across disjuncts and across queries
//!    therefore share one id, and re-encountering a cached `Arc` costs one
//!    pointer compare.
//! 2. [`Memo`] — the answers, keyed on `(op, event, node_id)`: `∇α`,
//!    `¬∇α`, `sync` at a fixed channel, a whole *run* of basics, a whole
//!    normal form of several disjuncts, `simplify`, per-region `Excise`
//!    outcomes, and normal forms per constraint. An order draws a fresh channel, so what it compiles to
//!    depends on allocator state: a run — a stretch of constraints with
//!    one disjunct each, or one conjunct of a wider normal form — is an
//!    answer at its root subgoal keyed on its interned basics *and* the
//!    first channel it draws, which fixes the rest (DESIGN.md §13).
//!
//! A `Memo` has no method of its own: the one tabled API is the session
//! that keeps one across queries, [`Analyzer`]. The rules being shared, it
//! yields goals structurally equal to the one-shot functions' by
//! construction; `tests/tabled_analysis.rs` pins what can still differ —
//! that each answer is a function of its key.

use crate::apply::{Op, Table};
use crate::constraints::{Basic, Constraint, NormalForm};
use crate::excise::ExciseResult;
use crate::goal::{FxBuildHasher, Goal};
use std::collections::HashMap;
use std::sync::Arc;

pub use crate::analysis::Analyzer;

/// Stable id of an interned goal subtree. Ids are dense indices into the
/// owning [`GoalTable`]; equal goals always receive the same id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct NodeId(u32);

/// Hash-consing table: interns `Goal` subtrees into stable [`NodeId`]s.
///
/// Buckets are keyed by the cached structural hash; within a bucket the
/// candidate is confirmed by real equality, pointer comparison first (the
/// [`crate::goal::or`] dedup idiom). Two structurally distinct goals that
/// collide on the hash therefore land in the same bucket but keep distinct
/// ids — see the `hash_collision_keeps_distinct_ids` test.
#[derive(Default)]
struct GoalTable {
    nodes: Vec<Goal>,
    /// Per node, the next node of its bucket ([`NO_NODE`] ends the chain).
    next_in_bucket: Vec<u32>,
    /// Structural hash → the bucket's most recently interned node.
    buckets: HashMap<u64, u32, FxBuildHasher>,
}

/// End of a bucket chain.
const NO_NODE: u32 = u32::MAX;

impl GoalTable {
    /// Interns a goal, returning its stable id. Equal goals (by structural
    /// equality) always return the same id.
    fn intern(&mut self, goal: &Goal) -> NodeId {
        self.intern_hashed(goal, goal.structural_hash())
    }

    /// [`GoalTable::intern`] with the bucket hash supplied by the caller.
    /// Split out so the collision-safety test can force two structurally
    /// distinct goals through one bucket.
    fn intern_hashed(&mut self, goal: &Goal, hash: u64) -> NodeId {
        let head = self.buckets.get(&hash).copied().unwrap_or(NO_NODE);
        let mut i = head;
        while i != NO_NODE {
            let candidate = &self.nodes[i as usize];
            // Pointer compare first: re-encountering a cached Arc is the
            // common case on warm tables. Hash equality alone is NOT
            // identity — the deep equality check is what keeps colliding
            // goals distinct.
            if candidate.ptr_eq(goal) || candidate == goal {
                return NodeId(i);
            }
            i = self.next_in_bucket[i as usize];
        }
        let id = u32::try_from(self.nodes.len()).expect("fewer than 2^32 interned subgoals");
        assert_ne!(id, NO_NODE, "the last id is the end-of-chain mark");
        self.nodes.push(goal.clone());
        self.next_in_bucket.push(head);
        self.buckets.insert(hash, id);
        NodeId(id)
    }

    /// Number of interned subtrees.
    fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// Observability counters for the memo tables.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct MemoStats {
    /// Lookups answered from a table.
    pub hits: u64,
    /// Lookups that fell through to a real computation.
    pub misses: u64,
    /// Live cached entries across all tables.
    pub entries: usize,
    /// Distinct subtrees in the hash-consing table.
    pub interned: usize,
}

impl std::fmt::Display for MemoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} entries, {} interned subgoals",
            self.hits, self.misses, self.entries, self.interned
        )
    }
}

/// The recording table: answers persist for the lifetime of the `Memo`,
/// so repeated queries over overlapping goals (the [`Analyzer`] pattern)
/// replay shared regions as O(1) hits.
///
/// It has no method of its own: the rules of [`mod@crate::apply`] and
/// [`mod@crate::excise`] run through it, and an [`Analyzer`] is how a
/// caller asks them. The table only changes how often the structural
/// recursion actually runs.
#[derive(Default)]
pub struct Memo {
    table: GoalTable,
    rewrites: HashMap<(Op, NodeId), Goal, FxBuildHasher>,
    /// Per-region `Excise` outcomes: the rewritten goal plus the exact
    /// diagnostics the analysis appended.
    excise: HashMap<NodeId, ExciseResult, FxBuildHasher>,
    normal_forms: HashMap<Constraint, Arc<NormalForm>, FxBuildHasher>,
    /// The basics of every run asked about, interned to the id that
    /// stands for them in [`Op::Run`].
    runs: HashMap<Box<[Basic]>, u32, FxBuildHasher>,
    /// The same for every normal form of two or more disjuncts, and
    /// [`Op::Normal`].
    normals: HashMap<NormalForm, u32, FxBuildHasher>,
    hits: u64,
    misses: u64,
}

impl Table for Memo {
    fn rewrite(&mut self, op: Op, goal: &Goal, rule: impl FnOnce(&mut Memo) -> Goal) -> Goal {
        // Leaves are O(1) rewrites and never touch the tables. The `Apply`
        // rewrites never look inside ◇; only `simplify` descends into it.
        let tabled = match goal {
            Goal::Seq(_) | Goal::Conc(_) | Goal::Or(_) | Goal::Isolated(_) => true,
            Goal::Possible(_) => op == Op::Simplify,
            _ => false,
        };
        if !tabled {
            return rule(self);
        }
        let key = (op, self.table.intern(goal));
        if let Some(hit) = self.rewrites.get(&key) {
            self.hits += 1;
            return hit.clone();
        }
        self.misses += 1;
        let out = rule(self);
        self.rewrites.insert(key, out.clone());
        out
    }

    fn region(&mut self, goal: &Goal, analyze: impl FnOnce() -> ExciseResult) -> ExciseResult {
        // Leaves carry no channel structure worth caching.
        if !matches!(
            goal,
            Goal::Seq(_) | Goal::Conc(_) | Goal::Isolated(_) | Goal::Possible(_)
        ) {
            return analyze();
        }
        let id = self.table.intern(goal);
        if let Some(hit) = self.excise.get(&id) {
            self.hits += 1;
            return hit.clone();
        }
        self.misses += 1;
        let out = analyze();
        self.excise.insert(id, out.clone());
        out
    }

    type Normal = Arc<NormalForm>;

    /// Constraint sets replay verbatim across queries, so the normal form
    /// is computed once per distinct constraint and shared from then on.
    fn normalize(&mut self, constraint: &Constraint) -> Arc<NormalForm> {
        if let Some(nf) = self.normal_forms.get(constraint) {
            self.hits += 1;
            return Arc::clone(nf);
        }
        self.misses += 1;
        let nf = Arc::new(constraint.normalize());
        self.normal_forms
            .insert(constraint.clone(), Arc::clone(&nf));
        nf
    }

    fn run_id(&mut self, run: &[Basic]) -> u32 {
        if let Some(&id) = self.runs.get(run) {
            self.hits += 1;
            return id;
        }
        self.misses += 1;
        let id = u32::try_from(self.runs.len()).expect("fewer than 2^32 distinct runs");
        self.runs.insert(run.into(), id);
        id
    }

    fn normal_id(&mut self, nf: &NormalForm) -> u32 {
        if let Some(&id) = self.normals.get(nf) {
            self.hits += 1;
            return id;
        }
        self.misses += 1;
        let id = u32::try_from(self.normals.len()).expect("fewer than 2^32 distinct normal forms");
        self.normals.insert(nf.clone(), id);
        id
    }
}

impl Memo {
    /// Current counters. `entries` sums the rewrite, excise, normal-form
    /// and run tables; `interned` is the hash-consing table size.
    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.rewrites.len()
                + self.excise.len()
                + self.normal_forms.len()
                + self.runs.len()
                + self.normals.len(),
            interned: self.table.len(),
        }
    }

    /// Resets the hit/miss counters (entries are kept).
    pub(crate) fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{self, compile_in, mentions_conditions, CompileError, Compiled};
    use crate::apply::{
        apply_all_in, apply_must_in, apply_must_not_in, apply_run_in, sync_in, ChannelAlloc,
        Scratch,
    };
    use crate::goal::{conc, isolated, or, seq, Channel};
    use crate::symbol::sym;

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    /// `G ∧ C` compiled through `memo`, as a session compiles it.
    fn compile_through(memo: &mut Memo, goal: &Goal, constraints: &[Constraint]) -> Compiled {
        let channels = ChannelAlloc::fresh_for(goal);
        compile_in(memo, goal, constraints, channels, mentions_conditions(goal))
    }

    fn demo() -> (Goal, Vec<Constraint>) {
        let goal = seq(vec![
            g("a"),
            conc(vec![g("b"), or(vec![g("c"), g("d")])]),
            g("e"),
        ]);
        let constraints = vec![Constraint::order("b", "c"), Constraint::must_not("d")];
        (goal, constraints)
    }

    #[test]
    fn interner_shares_ids_for_equal_goals() {
        let mut table = GoalTable::default();
        let g1 = seq(vec![g("a"), g("b")]);
        let g2 = seq(vec![g("a"), g("b")]); // equal, distinct Arc
        let g3 = seq(vec![g("b"), g("a")]);
        let id1 = table.intern(&g1);
        assert_eq!(table.intern(&g2), id1);
        assert_eq!(table.intern(&g1.clone()), id1, "Arc bump hits ptr_eq");
        assert_ne!(table.intern(&g3), id1);
        assert_eq!(table.len(), 2);
        assert_eq!(table.nodes[id1.0 as usize], g1);
    }

    #[test]
    fn hash_collision_keeps_distinct_ids() {
        // Force two structurally distinct goals through one bucket: the
        // in-bucket equality check must keep them apart — hash equality
        // alone is not identity.
        let mut table = GoalTable::default();
        let g1 = seq(vec![g("a"), g("b")]);
        let g2 = conc(vec![g("x"), g("y")]);
        let forced = 0xDEAD_BEEF;
        let id1 = table.intern_hashed(&g1, forced);
        let id2 = table.intern_hashed(&g2, forced);
        assert_ne!(id1, id2);
        assert_eq!(table.len(), 2);
        // Re-interning under the same forced hash still resolves to the
        // original ids.
        assert_eq!(table.intern_hashed(&g1, forced), id1);
        assert_eq!(table.intern_hashed(&g2, forced), id2);
        assert_eq!(table.nodes[id1.0 as usize], g1);
        assert_eq!(table.nodes[id2.0 as usize], g2);
    }

    #[test]
    fn tabled_rewrites_match_untabled() {
        let (goal, _) = demo();
        let mut memo = Memo::default();
        for event in ["a", "b", "c", "d", "e", "zzz"] {
            let e = sym(event);
            assert_eq!(
                apply_must_in(&mut memo, e, &goal),
                crate::apply::apply_must(e, &goal)
            );
            assert_eq!(
                apply_must_not_in(&mut memo, e, &goal),
                crate::apply::apply_must_not(e, &goal)
            );
        }
        let xi = Channel(9);
        assert_eq!(
            sync_in(&mut memo, sym("b"), sym("c"), xi, &goal),
            sync_in(&mut Scratch, sym("b"), sym("c"), xi, &goal)
        );
        // Replaying an op answers from the table at the root.
        let before = memo.stats();
        assert_eq!(
            apply_must_in(&mut memo, sym("b"), &goal),
            crate::apply::apply_must(sym("b"), &goal)
        );
        let after = memo.stats();
        assert!(after.hits > before.hits, "replay hits the table");
        assert_eq!(after.entries, before.entries, "replay adds no entries");
    }

    #[test]
    fn tabled_compile_matches_untabled() {
        let (goal, constraints) = demo();
        let mut memo = Memo::default();
        let tabled = compile_through(&mut memo, &goal, &constraints);
        let untabled = analysis::compile(&goal, &constraints).unwrap();
        assert_eq!(tabled.goal, untabled.goal);
        assert_eq!(tabled.knots, untabled.knots);
        assert_eq!(tabled.applied_size, untabled.applied_size);
        assert_eq!(tabled.guaranteed_knot_free, untabled.guaranteed_knot_free);
        assert_eq!(tabled.has_conditions, untabled.has_conditions);
        // A verbatim replay is pure table hits at the top level.
        let before = memo.stats();
        let replay = compile_through(&mut memo, &goal, &constraints);
        assert_eq!(replay.goal, untabled.goal);
        let after = memo.stats();
        assert!(after.hits > before.hits);
        assert_eq!(
            after.entries, before.entries,
            "replay creates no new entries"
        );
    }

    #[test]
    fn analyzer_queries_match_one_shot_functions() {
        let (goal, constraints) = demo();
        let mut an = Analyzer::new(&goal, &constraints).unwrap();
        let properties = [
            Constraint::klein_order("b", "c"),
            Constraint::klein_order("c", "b"),
            Constraint::must("e"),
            Constraint::must("d"),
        ];
        for p in &properties {
            assert_eq!(
                an.verify(p),
                analysis::verify(&goal, &constraints, p).unwrap(),
                "property {p}"
            );
        }
        assert_eq!(
            an.verify_all(&properties),
            properties
                .iter()
                .map(|p| analysis::verify(&goal, &constraints, p).unwrap())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            an.activity_report(),
            analysis::activity_report(&goal, &constraints).unwrap()
        );
        for (x, y) in [("a", "e"), ("b", "c"), ("c", "d")] {
            assert_eq!(
                an.ordering(sym(x), sym(y)),
                analysis::ordering(&goal, &constraints, sym(x), sym(y)).unwrap(),
                "ordering({x}, {y})"
            );
        }
        assert!(an.stats().hits > 0);
    }

    #[test]
    fn analyzer_minimize_matches_one_shot() {
        let goal = conc(vec![g("a"), g("b"), g("c")]);
        let constraints = vec![
            Constraint::order("a", "b"),
            Constraint::order("b", "c"),
            Constraint::order("a", "c"),
        ];
        let mut an = Analyzer::new(&goal, &constraints).unwrap();
        assert_eq!(
            an.minimize_constraints(),
            analysis::minimize_constraints(&goal, &constraints).unwrap()
        );
        assert_eq!(an.constraints(), &constraints[..], "set left unchanged");
    }

    #[test]
    fn analyzer_incremental_edit_matches_recompile() {
        let (goal, constraints) = demo();
        let mut an = Analyzer::new(&goal, &constraints).unwrap();
        assert!(an.is_consistent());

        // Replace: demanding e before a contradicts the `⊗` backbone, so
        // the edited spec is inconsistent.
        let old = an.replace_constraint(0, Constraint::order("e", "a"));
        assert_eq!(old, constraints[0]);
        let edited = vec![Constraint::order("e", "a"), constraints[1].clone()];
        assert_eq!(
            an.compiled().goal,
            analysis::compile(&goal, &edited).unwrap().goal
        );
        assert!(!an.is_consistent());

        // Remove it again: back to the single must-not constraint.
        an.remove_constraint(0);
        assert_eq!(
            an.compiled().goal,
            analysis::compile(&goal, &constraints[1..]).unwrap().goal
        );

        // Add a fresh property and verify against the from-scratch path.
        let idx = an.add_constraint(Constraint::must("c"));
        assert_eq!(idx, 1);
        let now = vec![constraints[1].clone(), Constraint::must("c")];
        assert_eq!(
            an.compiled().goal,
            analysis::compile(&goal, &now).unwrap().goal
        );
        let p = Constraint::klein_order("b", "c");
        assert_eq!(an.verify(&p), analysis::verify(&goal, &now, &p).unwrap());
    }

    #[test]
    fn analyzer_rejects_non_unique_goals_once() {
        let bad = seq(vec![g("a"), g("a")]);
        assert!(matches!(
            Analyzer::new(&bad, &[]),
            Err(CompileError::NotUniqueEvent(_))
        ));
    }

    #[test]
    fn excise_diagnostics_are_cached_verbatim() {
        // A knotted compile (paper Example 4): receive ⊗ β ⊗ α ⊗ send.
        let t = or(vec![g("gamma"), seq(vec![g("beta"), g("alpha")])]);
        let constraints = vec![Constraint::order("alpha", "beta")];
        let mut memo = Memo::default();
        let first = compile_through(&mut memo, &t, &constraints);
        let reference = analysis::compile(&t, &constraints).unwrap();
        assert_eq!(first.goal, reference.goal);
        assert_eq!(first.knots, reference.knots);
        assert!(!first.knots.is_empty(), "the knot is reported");
        let replay = compile_through(&mut memo, &t, &constraints);
        assert_eq!(replay.knots, reference.knots, "cached reports replay");
    }

    #[test]
    fn a_replayed_run_draws_its_channels_again() {
        let goal = conc(vec![g("a"), g("b"), g("c")]);
        let run = vec![
            Basic::Order(sym("a"), sym("b")),
            Basic::Order(sym("b"), sym("c")),
        ];
        let mut memo = Memo::default();
        let mut cold_channels = ChannelAlloc::new();
        let cold = apply_run_in(&mut memo, &run, &goal, &mut cold_channels);
        assert_eq!(
            cold,
            crate::apply::apply_conjunct(&run, &goal, &mut ChannelAlloc::new())
        );
        // The answer comes from the table; the allocator moves on as if
        // it had been computed.
        let before = memo.stats();
        let mut warm_channels = ChannelAlloc::new();
        let warm = apply_run_in(&mut memo, &run, &goal, &mut warm_channels);
        assert_eq!(warm, cold);
        assert_eq!(memo.stats().misses, before.misses, "one probe, no walk");
        assert_eq!(warm_channels.fresh(), Channel(2));
        assert_eq!(cold_channels.fresh(), Channel(2));
        // The first channel is part of the key: drawn from elsewhere, the
        // same run is another answer.
        let mut later = ChannelAlloc::new();
        later.fresh();
        let shifted = apply_run_in(&mut memo, &run, &goal, &mut later);
        assert_eq!(
            shifted.channels(),
            [Channel(1), Channel(2)].into_iter().collect()
        );
        assert_eq!(later.fresh(), Channel(3));
    }

    #[test]
    fn channel_numbering_is_a_function_of_the_constraint_list() {
        // Every disjunct's range is set aside whether the disjunct drew
        // from it, came to ¬path, was never asked because its alternative
        // was absorbed, or the whole normal form was one hit at the root:
        // otherwise a warm session and a cold compile would number the
        // orders that follow differently.
        let goal = seq(vec![
            g("a"),
            conc(vec![or(vec![g("b"), g("c")]), or(vec![g("d"), g("e")])]),
            g("f"),
            conc(vec![g("h"), g("i")]),
        ]);
        // The run goes first, then the wide ones by their last event.
        let constraints = vec![
            // ¬∇b ∨ ¬∇d ∨ (b < d): the third disjunct draws ξ2.
            Constraint::klein_order("b", "d"),
            // ¬∇zzz holds on every alternative: absorbed whole, ξ3 unused.
            Constraint::klein_order("zzz", "d"),
            // ∇zzz comes to ¬path; the order draws ξ5, last (i is).
            Constraint::or(vec![Constraint::must("zzz"), Constraint::order("h", "i")]),
            // ξ4.
            Constraint::klein_order("c", "e"),
            // One run of two plain orders: ξ0, ξ1.
            Constraint::order("a", "f"),
            Constraint::order("a", "i"),
        ];
        let mut channels = ChannelAlloc::new();
        let untabled = crate::apply::apply_all(&constraints, &goal, &mut channels);
        assert_eq!(channels.fresh(), Channel(6));
        let xis: Vec<Channel> = untabled.channels().into_iter().collect();
        assert_eq!(xis, [0, 1, 2, 4, 5].map(Channel));
        let mut memo = Memo::default();
        for pass in ["cold", "warm"] {
            let mut channels = ChannelAlloc::new();
            let tabled = apply_all_in(&mut memo, &constraints, &goal, &mut channels);
            assert_eq!(tabled, untabled, "{pass}");
            assert_eq!(channels.fresh(), Channel(6), "{pass}");
        }
        // A head edit and its undo, through one warm session.
        let mut an = Analyzer::new(&goal, &constraints).unwrap();
        let original = analysis::compile(&goal, &constraints).unwrap().goal;
        assert_eq!(an.compiled().goal, original);
        let mut edited = constraints.clone();
        edited[0] = Constraint::klein_order("c", "d");
        let old = an.replace_constraint(0, edited[0].clone());
        assert_eq!(
            an.compiled().goal,
            analysis::compile(&goal, &edited).unwrap().goal
        );
        an.replace_constraint(0, old);
        assert_eq!(an.compiled().goal, original);
        // An unsatisfiable tail: ¬path either way, the allocator alike.
        let mut dead = constraints;
        dead.push(Constraint::or(vec![
            Constraint::must("zzz"),
            Constraint::order("f", "a"),
        ]));
        dead.push(Constraint::and(vec![
            Constraint::must("b"),
            Constraint::must("c"),
        ]));
        let mut channels = ChannelAlloc::new();
        assert!(crate::apply::apply_all(&dead, &goal, &mut channels).is_nopath());
        let mut tabled_channels = ChannelAlloc::new();
        assert!(apply_all_in(&mut memo, &dead, &goal, &mut tabled_channels).is_nopath());
        assert_eq!(channels.fresh(), tabled_channels.fresh());
    }

    #[test]
    fn an_alternative_recorded_earlier_is_absorbed_like_a_fresh_one() {
        // After an edit the goal reaches a clause as new allocations of
        // alternatives the table has already answered about; the recorded
        // answer to "does this literal hold" is then an *equal* goal, not
        // the same one, and has to count all the same.
        let inst = crate::gen::random_3sat(7, 10, 43);
        let (goal, clauses) = crate::gen::sat_to_workflow(&inst);
        let mut an = Analyzer::new(&goal, &clauses).unwrap();
        assert_eq!(
            an.compiled().goal,
            analysis::compile(&goal, &clauses).unwrap().goal
        );
        let last = an.remove_constraint(clauses.len() - 1);
        let head = &clauses[..clauses.len() - 1];
        assert_eq!(
            an.compiled().goal,
            analysis::compile(&goal, head).unwrap().goal
        );
        an.replace_constraint(0, last);
        let mut edited = head.to_vec();
        edited[0] = clauses[clauses.len() - 1].clone();
        assert_eq!(
            an.compiled().goal,
            analysis::compile(&goal, &edited).unwrap().goal
        );
    }

    /// The script's nine event names, drawn so that no name's bloom mask is
    /// covered by the union of the others' and `may_mention` never answers
    /// "maybe" for an absent one. A mask is a function of the id the
    /// interner happened to hand out, which depends on what the test binary
    /// interned before; drawing until the names are collision-free takes
    /// that out of the counts pinned below.
    fn collision_free_events() -> [String; 9] {
        let mask = |name: &str| g(name).events_fingerprint();
        let collision_free = |names: &[String]| {
            (0..names.len()).all(|i| {
                let others = (names.iter().enumerate())
                    .filter(|&(j, _)| j != i)
                    .fold(0, |union, (_, other)| union | mask(other));
                mask(&names[i]) & !others != 0
            })
        };
        let mut names: Vec<String> = Vec::new();
        for letter in "abcdefhij".chars() {
            names.push(String::new());
            for k in 0.. {
                *names.last_mut().expect("just pushed") = format!("{letter}{k}");
                if collision_free(&names) {
                    break;
                }
            }
        }
        names.try_into().expect("nine letters")
    }

    /// *What* is tabled is part of the contract: the counters of a fixed
    /// session script. A change to which subgoals are interned, probed or
    /// recorded moves these numbers — as the run key did (cold compile
    /// 40 → 16 misses): a run of two or more basics, or of one order, is
    /// one answer keyed at its root subgoal by (interned basics, first
    /// channel), where every `∇`, `¬∇` and `sync` stage used to be an
    /// answer at every connective below it. A run of one `∇` or `¬∇` is
    /// still that primitive, tabled per subgoal. A normal form of two or
    /// more disjuncts is keyed at two levels (cold compile 16 → 18 misses,
    /// the replays 14 → 10 and 28 → 20 hits): whole, at the root subgoal,
    /// by (interned disjuncts, first channel set aside) — a replayed
    /// constraint is that one probe, where it was one per disjunct — and
    /// below it per alternative of the goal, through its disjuncts' keys.
    #[test]
    fn table_granularity_is_pinned() {
        let [a, b, c, d, e, f, h, i, j] = collision_free_events();
        let ev = |name: &String| sym(name);
        let goal = seq(vec![
            g(&a),
            conc(vec![
                or(vec![g(&b), seq(vec![g(&c), g(&d)])]),
                isolated(seq(vec![g(&e), or(vec![g(&f), g(&h)])])),
                g(&i),
            ]),
            g(&j),
        ]);
        let constraints = vec![
            Constraint::klein_order(ev(&b), ev(&e)),
            Constraint::order(ev(&c), ev(&i)),
            Constraint::must_not(ev(&h)),
        ];
        let stats = |hits, misses, entries, interned| MemoStats {
            hits,
            misses,
            entries,
            interned,
        };
        // The run goes first, at the root. Its `order(c, i)` prunes `b`, so
        // the Klein order's own scope, `e`, satisfies it and it is not
        // applied (cold 9 → 7 misses, the replays 8 → 6 and 19 → 15
        // hits); after the edit `b` stays, and the Klein order, scoped,
        // meets the `|` of its two lanes alone, not the whole goal.
        let mut an = Analyzer::new(&goal, &constraints).unwrap();
        an.compiled();
        assert_eq!(an.stats(), stats(0, 7, 7, 2), "cold compile");
        an.verify(&Constraint::klein_order(ev(&a), ev(&j)));
        an.verify(&Constraint::must(ev(&f)));
        assert_eq!(an.stats(), stats(6, 14, 14, 3), "two verifications");
        an.replace_constraint(1, Constraint::order(ev(&e), ev(&i)));
        an.minimize_constraints();
        assert_eq!(an.stats(), stats(15, 59, 59, 22), "edit, then minimize");
    }

    #[test]
    fn stats_display_is_compact() {
        let s = MemoStats {
            hits: 3,
            misses: 2,
            entries: 4,
            interned: 5,
        };
        assert_eq!(
            s.to_string(),
            "3 hits, 2 misses, 4 entries, 5 interned subgoals"
        );
    }
}
