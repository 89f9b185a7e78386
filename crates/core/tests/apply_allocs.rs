//! Allocation budgets of the `∇α` kernel, of a run of orders, of
//! `Excise` and of the analysis session's selection search, counted rather
//! than timed.
//!
//! The counts are a function of the input alone, so they repeat exactly
//! on any host: a rewrite that starts copying child vectors it does not
//! return, or a `∨` that goes back to one bucket per alternative, fails
//! here whatever the clock does. Integration tests are their own binary,
//! which is what lets this one install a counting allocator; the counter
//! is per thread because the harness runs tests side by side.

use ctr::analysis::compile;
use ctr::apply::{apply, apply_conjunct, apply_must, apply_normal_form, ChannelAlloc};
use ctr::constraints::{Basic, Constraint, NormalForm};
use ctr::excise::excise;
use ctr::gen::{
    independent_kleins, layered_events, layered_workflow, order_chain, pipeline_workflow,
    random_3sat, sat_to_workflow,
};
use ctr::goal::{or, seq, Goal};
use ctr::memo::Analyzer;
use ctr::sym;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Books one allocator call asking for `size` bytes.
fn count(size: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + size as u64));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a bump of two thread-local
// `Cell<u64>`s that are const-initialized and have no destructor, so
// touching them can neither allocate nor run during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls (`alloc` + `realloc`) this thread makes inside `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Bytes this thread asks the allocator for inside `f` (every `alloc`'s
/// size and every `realloc`'s new size; nothing is taken off for frees).
fn bytes_requested<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// The `|`-terms of a DNF (a goal that is a single term is its own).
fn dnf_terms(goal: &Goal) -> &[Goal] {
    match goal {
        Goal::Or(gs) => gs,
        single => std::slice::from_ref(single),
    }
}

/// Number of `|`-terms of a DNF.
fn terms(goal: &Goal) -> u64 {
    dnf_terms(goal).len() as u64
}

#[test]
fn must_of_a_forced_event_allocates_nothing() {
    let (goal, clauses) = sat_to_workflow(&random_3sat(5, 8, 12));
    let dnf = apply(&clauses[..4], &goal);
    let alpha = sym("x0_t");
    let forced = apply_must(alpha, &dnf);
    assert!(terms(&forced) > 16, "want a DNF past the inline dedup scan");
    let (again, count) = allocations(|| apply_must(alpha, &forced));
    assert!(again.ptr_eq(&forced));
    assert_eq!(count, 0, "re-forcing α walked {} terms", terms(&forced));
}

/// The (term, literal) pairs of `clause` on `dnf` that build something:
/// per term, the literals whose lane is still open in it, up to the first
/// literal the term already forces.
fn building_pairs(clause: &NormalForm, dnf: &Goal) -> u64 {
    let mut pairs = 0;
    for term in dnf_terms(dnf) {
        for literal in &clause.disjuncts {
            let [Basic::Must(literal)] = literal[..] else {
                panic!("a clause is a disjunction of ∇-literals");
            };
            let forced = apply_must(literal, term);
            if forced.ptr_eq(term) {
                break;
            }
            pairs += u64::from(!forced.is_nopath());
        }
    }
    pairs
}

#[test]
fn a_clause_costs_a_fixed_count_per_term_and_literal() {
    // A clause meets the terms one at a time. Per (term, literal): the
    // spliced child vector and its `Arc`, when the literal's lane is still
    // open; nothing when it is forced either way. A literal the term
    // already forces ends the term: it stays as it is, the literals after
    // it are not asked — a term its first literal forces costs the whole
    // clause nothing, where rewriting the whole `∨` per literal paid 2 per
    // open lane of every term — and what the literals before it built is
    // dropped, not kept. Per clause on top: the vector a term's variants
    // are gathered in, the output vector and its doublings, the dedup's
    // two flat arrays and the new `∨` node.
    const PER_TERM_AND_LITERAL: u64 = 2;
    const PER_CLAUSE: u64 = 16;
    for (seed, vars) in [(1, 6), (2, 8), (3, 10)] {
        let (goal, clauses) = sat_to_workflow(&random_3sat(seed, vars, 4 * vars));
        let mut channels = ChannelAlloc::new();
        let mut current = goal;
        let mut ended_early = 0;
        for clause in &clauses {
            let nf = clause.normalize();
            let pairs = building_pairs(&nf, &current);
            ended_early += terms(&current) * nf.disjunct_count() as u64 - pairs;
            let (next, count) = allocations(|| apply_normal_form(&nf, &current, &mut channels));
            assert!(
                count <= PER_TERM_AND_LITERAL * pairs + PER_CLAUSE,
                "seed {seed}: {count} allocations for {pairs} building (term, literal) pairs"
            );
            current = next;
        }
        assert!(ended_early > 0, "seed {seed}: no term forced a literal");
    }
}

#[test]
fn a_clause_every_term_satisfies_allocates_nothing_per_term() {
    // Every term of a clause's own output forces one of its literals: the
    // second application hands the `∨` back. Where the forcing literal is
    // each term's first, all it asks the allocator for is the vector the
    // clause's disjuncts are made ready in.
    let (goal, clauses) = sat_to_workflow(&random_3sat(5, 8, 12));
    let dnf = apply(&clauses[..4], &goal);
    let nf = clauses[4].normalize();
    let once = apply_normal_form(&nf, &dnf, &mut ChannelAlloc::new());
    assert!(terms(&once) > 16, "want a DNF past the inline dedup scan");
    let twice = apply_normal_form(&nf, &once, &mut ChannelAlloc::new());
    assert!(twice.ptr_eq(&once));
    let forced = apply_conjunct(&nf.disjuncts[0], &once, &mut ChannelAlloc::new());
    assert!(terms(&forced) > 16);
    let (again, count) = allocations(|| apply_normal_form(&nf, &forced, &mut ChannelAlloc::new()));
    assert!(again.ptr_eq(&forced));
    assert_eq!(
        count,
        1,
        "{} terms, each forcing the first literal",
        terms(&forced)
    );
}

/// The literal rule on `constraints`, `Apply(C₁, T) ∨ … ∨ Apply(C_d, T)`
/// with `T` the whole goal built so far, numbered like `apply`.
fn apply_literal(constraints: &[Constraint], goal: &Goal) -> Goal {
    let mut channels = ChannelAlloc::new();
    constraints.iter().fold(goal.clone(), |current, c| {
        let orders = |conj: &[Basic]| {
            conj.iter()
                .filter(|b| matches!(b, Basic::Order(..)))
                .count()
        };
        let nf = c.normalize();
        let mut ranges: Vec<ChannelAlloc> = (nf.disjuncts.iter())
            .map(|conj| channels.reserve(orders(conj) as u32))
            .collect();
        or((nf.disjuncts.iter().zip(&mut ranges))
            .map(|(conj, range)| apply_conjunct(conj, &current, range))
            .collect())
    })
}

/// The constraints one at a time over the whole goal built so far: the
/// per-alternative loop alone, without `apply`'s Scope and Order.
fn apply_unscoped(constraints: &[Constraint], goal: &Goal) -> Goal {
    let mut channels = ChannelAlloc::new();
    constraints.iter().fold(goal.clone(), |current, c| {
        apply_normal_form(&c.normalize(), &current, &mut channels)
    })
}

#[test]
fn a_clause_no_term_satisfies_costs_no_more_than_the_literal_rule() {
    // Where nothing is absorbed the per-alternative loop must not be the
    // slower path: it makes the same rewrites of the same alternatives,
    // and one `∨` per constraint where the literal rule builds one per
    // disjunct and another around them. Scoped, each constraint meets its
    // own two lanes: `k` choices of three instead of `3^k` alternatives.
    for k in [6, 8] {
        let (goal, constraints) = independent_kleins(k);
        let ((literal, literal_count), literal_bytes) =
            bytes_requested(|| allocations(|| apply_literal(&constraints, &goal)));
        let ((absorbed, count), bytes) =
            bytes_requested(|| allocations(|| apply_unscoped(&constraints, &goal)));
        assert_eq!(terms(&absorbed), 3u64.pow(k as u32));
        assert_eq!(absorbed.size(), literal.size());
        assert!(
            count <= literal_count && bytes <= literal_bytes,
            "k = {k}: {count} allocations and {bytes} bytes, the literal rule \
             {literal_count} and {literal_bytes}"
        );
        let ((scoped, scoped_count), scoped_bytes) =
            bytes_requested(|| allocations(|| apply(&constraints, &goal)));
        let Goal::Conc(lanes) = &scoped else {
            panic!("k = {k}: want a `|` of scopes, got {scoped}");
        };
        assert_eq!(lanes.len(), k);
        assert!(lanes.iter().all(|lane| terms(lane) == 3));
        assert!(
            10 * scoped_count < count && 10 * scoped_bytes < bytes,
            "k = {k}: {scoped_count} allocations and {scoped_bytes} bytes scoped, \
             {count} and {bytes} unscoped"
        );
    }
}

/// Bytes `Apply(order_chain(n), pipeline(2n + 2))` asks for: `n` order
/// constraints, one run, a compiled goal of `4n + 3` nodes.
fn apply_of_the_order_chain(n: usize) -> u64 {
    let (goal, constraints) = (pipeline_workflow(2 * n + 2), order_chain(n));
    let (applied, bytes) = bytes_requested(|| apply(&constraints, &goal));
    assert_eq!(applied.size(), 4 * n + 3);
    bytes
}

#[test]
fn apply_of_the_order_chain_allocates_linear_bytes() {
    // The order-only fragment is polynomial (Prop 4.1) and its compiled
    // size linear (Thm 5.11 at d = 1); so is the work. A run is two walks
    // whatever its length: the restriction finds every event where it
    // stands and hands the goal back, the sync walk builds the one new
    // child list. Folding the orders one at a time rebuilt a list that
    // grows with n once per order — 256× the bytes for 16× the orders.
    let small = apply_of_the_order_chain(64);
    let large = apply_of_the_order_chain(1024);
    assert!(
        large <= 20 * small,
        "{small} bytes at n = 64, {large} at n = 1024"
    );
}

/// `Excise(Apply(order_chain(n), pipeline(2n + 2)))`: one region, `2n`
/// channel operations, no knot.
fn excise_of_the_order_chain(n: usize) -> u64 {
    let applied = apply(&order_chain(n), &pipeline_workflow(2 * n + 2));
    assert_eq!(applied.channels().len(), n);
    let (excised, count) = allocations(|| excise(&applied));
    assert!(excised.ptr_eq(&applied));
    count
}

#[test]
fn excise_allocates_per_call_not_per_occurrence() {
    // A call works in one fixed set of flat vectors — the arena, the edges,
    // the channel operations, the rows of the graph, Tarjan's arrays —
    // whatever the number of regions. The three that are pushed into
    // double as they fill; the rest are sized once per region. (One vector
    // per occurrence, or per vertex, would be thousands.)
    const VECTORS: u64 = 32;
    const GROWING: u64 = 4;
    let small = excise_of_the_order_chain(64);
    let large = excise_of_the_order_chain(1024);
    assert!(small <= VECTORS, "{small} allocations at n = 64");
    // 16 times the occurrences: four doublings of each growing vector.
    assert!(
        large <= small + 4 * GROWING,
        "{small} allocations at n = 64, {large} at n = 1024"
    );
}

#[test]
fn excise_of_a_channel_free_goal_allocates_nothing_of_its_own() {
    // A 3-SAT DNF holds no channel: every term answers from its cached
    // flag and the `∨` comes back as it is. What is left is the final
    // canonicity check, which `simplify` alone costs as well (the dedup
    // arrays of an `∨` past the inline scan).
    let (goal, clauses) = sat_to_workflow(&random_3sat(5, 8, 12));
    let dnf = apply(&clauses[..4], &goal);
    assert!(terms(&dnf) > 16 && dnf.channels().is_empty());
    let (_, canonicity_check) = allocations(|| dnf.simplify());
    let (excised, count) = allocations(|| excise(&dnf));
    assert!(excised.ptr_eq(&dnf));
    assert_eq!(count, canonicity_check);
}

#[test]
fn a_warm_selection_search_allocates_nothing() {
    // A 3-SAT session is decided by the selection search alone, which is
    // exact at its first complete choice. Once the first query has sized
    // the search's vectors, the next one asks the allocator for nothing,
    // whether the instance is satisfiable or not, nor does one with a
    // clause's negation (a `verify`).
    let inst = (0..)
        .map(|seed| random_3sat(seed, 8, 20))
        .find(|inst| inst.brute_force_sat())
        .expect("a satisfiable instance");
    let (goal, clauses) = sat_to_workflow(&inst);
    let mut session = Analyzer::new(&goal, &clauses).unwrap();
    assert!(session.is_consistent());
    let (consistent, count) = allocations(|| session.is_consistent());
    assert!(consistent);
    assert_eq!(count, 0);

    // A run list that disturbs the goal (`∇b` prunes the `c`-branch) goes
    // to the search as well.
    let goal = seq(vec![
        Goal::atom("a"),
        or(vec![Goal::atom("b"), Goal::atom("c")]),
        Goal::atom("d"),
    ]);
    let runs = [Constraint::must("b"), Constraint::order("a", "b")];
    let mut session = Analyzer::new(&goal, &runs).unwrap();
    assert!(session.is_consistent());
    let (consistent, count) = allocations(|| session.is_consistent());
    assert!(consistent);
    assert_eq!(count, 0);

    let inst = (0..)
        .map(|seed| random_3sat(seed, 8, 40))
        .find(|inst| !inst.brute_force_sat())
        .expect("an unsatisfiable instance");
    let (goal, clauses) = sat_to_workflow(&inst);
    let mut session = Analyzer::new(&goal, &clauses).unwrap();
    assert!(!session.is_consistent());
    let (consistent, count) = allocations(|| session.is_consistent());
    assert!(!consistent);
    assert_eq!(count, 0);
    let property = &clauses[0];
    assert!(session.verify(property).holds());
    let (verdict, count) = allocations(|| session.verify(property));
    assert!(verdict.holds());
    // Building the negation allocates; its normal form is a table hit,
    // and the search adds nothing.
    let (_, negation) = allocations(|| Constraint::not(property.clone()));
    assert_eq!(count, negation);
}

#[test]
fn simplify_of_a_compiled_goal_allocates_nothing() {
    // What `Excise` returns was built by the smart constructors, so
    // `Program::compile`'s `simplify` reads the root's canonical flag and
    // hands back the same goal; the check walk it replaces visited every
    // node, and its `∨` dedup arrays allocated past sixteen alternatives.
    let orders: Vec<Constraint> = (0..63)
        .map(|i| Constraint::order(layered_events(i, 0).0, layered_events(i + 1, 0).0))
        .collect();
    let compiled = compile(&layered_workflow(64, 3), &orders).unwrap();
    assert!(compiled.is_consistent() && compiled.goal.size() > 500);
    assert!(compiled.goal.is_canonical());
    let (simplified, count) = allocations(|| compiled.goal.simplify());
    assert!(simplified.ptr_eq(&compiled.goal));
    assert_eq!(count, 0);
}

#[test]
fn the_unique_event_check_allocates_per_goal_not_per_subgoal() {
    // One pre-order walk: a map of each event's latest occurrence and a
    // stack of the open connectives, each doubling as it fills. The set
    // walk it replaced built a set per subgoal and copied each into its
    // parent: 1 195 allocator calls on the pipeline, 3 668 on the layers.
    for (name, goal) in [
        ("pipeline_workflow(1024)", pipeline_workflow(1024)),
        ("layered_workflow(256, 4)", layered_workflow(256, 4)),
    ] {
        let (verdict, count) = allocations(|| ctr::unique::ensure_unique_events(&goal));
        assert!(verdict.is_ok());
        assert!(count <= 40, "{name}: {count} allocator calls");
    }
}

#[test]
fn an_implied_constraint_is_left_out_and_a_kept_one_costs_only_its_question() {
    // A forward Klein chain over the layers: each stage runs before the
    // next, so every order holds on its two stages and `apply` hands the
    // goal back.
    let goal = layered_workflow(4, 2);
    let chain: Vec<Constraint> = (0..3)
        .map(|i| Constraint::klein_order(layered_events(i, 0).0, layered_events(i + 1, 0).0))
        .collect();
    assert!(apply(&chain, &goal).ptr_eq(&goal));
    // Independent Klein orders are all kept. The first compile on a thread
    // lays its goal out in some forty vectors; after that the question
    // allocates nothing, and a compile takes no more calls than it took
    // without one (303 at k = 6 and 397 at k = 8, measured), one fewer
    // since the targets share the order's vector.
    for (k, without) in [(6, 303), (8, 397)] {
        let (goal, constraints) = independent_kleins(k);
        let (_, cold) = allocations(|| apply(&constraints, &goal));
        let (_, warm) = allocations(|| apply(&constraints, &goal));
        assert!(
            warm < without && cold <= warm + 64,
            "k = {k}: {cold} allocator calls cold, {warm} warm"
        );
    }
}
