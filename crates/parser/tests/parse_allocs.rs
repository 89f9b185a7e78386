//! The parser's allocation budget, counted rather than timed.
//!
//! A parse should allocate about what it builds: the goal's nodes and the
//! constraints' event lists, plus a token vector per call. Tokens that
//! own their text, cloned tokens or a vector per grammar level each cost
//! a few allocations per token, which this budget catches whatever the
//! clock does. Integration tests are their own binary, which is what lets
//! this one install a counting allocator; the counter is per thread
//! because the harness runs tests side by side.

use ctr::constraints::Constraint;
use ctr::gen::{layered_events, layered_workflow};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a bump of a thread-local
// `Cell<u64>` that is const-initialized and has no destructor, so touching
// it can neither allocate nor run during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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

/// A 64-layer, 3-lane layered workflow with 63 orders chaining the
/// layers' first lanes, as specification text.
fn layered_spec() -> String {
    let orders: String = (0..63)
        .map(|i| {
            let order = Constraint::order(layered_events(i, 0).0, layered_events(i + 1, 0).0);
            format!("    constraint {order};\n")
        })
        .collect();
    format!(
        "workflow layered {{\n    graph {};\n{orders}}}\n",
        layered_workflow(64, 3)
    )
}

#[test]
fn a_parse_allocates_at_most_two_calls_per_five_tokens() {
    let source = layered_spec();
    let tokens = ctr_parser::lex(&source).unwrap();
    // The first parse interns the names process-wide; the budget is what
    // every later parse of the text costs.
    let first = ctr_parser::parse_spec(&source).unwrap();
    let (again, count) = allocations(|| ctr_parser::parse_spec(&source).unwrap());
    assert_eq!(again.graph, first.graph);
    assert_eq!(again.constraints, first.constraints);
    assert_eq!(again.graph, layered_workflow(64, 3));
    let per_token = count as f64 / tokens as f64;
    assert!(
        per_token <= 0.4,
        "{count} allocations for {tokens} tokens: {per_token:.2} per token"
    );
}
