//! Allocation budgets of the lowering, counted rather than timed.
//!
//! Triggers and timers go into the goal in one substitution walk, so a
//! rule costs a bounded number of allocator calls and bytes however many
//! rules there are. A fold that rewrites the whole goal once per rule
//! pays a rebuild of the goal per rule: on E8's pipeline family its bytes
//! per trigger grow with the trigger count (1 984 at 16 triggers, 25 024
//! at 256), and an `every` over a family pays one rebuild per member, so
//! it fails here whatever the clock does. The counts are a
//! function of the input alone; integration tests are their own binary,
//! which is what lets this one install a counting allocator, and the
//! counter is per thread because the harness runs tests side by side.

use ctr::apply::ChannelAlloc;
use ctr::gen::pipeline_workflow;
use ctr::goal::Goal;
use ctr::sym;
use ctr_workflow::{compile_timer, compile_triggers, unroll, TimerSpec, Trigger};
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

/// What this thread asks the allocator for inside `f`, after one
/// uncounted call that interns every name `f` mints: a budget per rule.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cost {
    /// Allocator calls (`alloc` + `realloc`) per rule.
    calls: f64,
    /// Bytes requested per rule (every `alloc`'s size and every
    /// `realloc`'s new size; nothing is taken off for frees).
    bytes: f64,
}

fn cost_per_rule<R>(rules: usize, mut f: impl FnMut() -> R) -> Cost {
    drop(f());
    let (calls, bytes) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    drop(f());
    Cost {
        calls: (ALLOCATIONS.with(Cell::get) - calls) as f64 / rules as f64,
        bytes: (BYTES.with(Cell::get) - bytes) as f64 / rules as f64,
    }
}

/// The cost per trigger of E8's family: `t` immediate triggers
/// `t{i} → audit{i}` over the pipeline `t0 ⊗ … ⊗ t{t+3}`.
fn per_trigger(t: usize) -> Cost {
    let goal = pipeline_workflow(t + 4);
    let triggers: Vec<Trigger> = (0..t)
        .map(|i| Trigger::immediate(sym(&format!("t{i}")), Goal::atom(format!("audit{i}"))))
        .collect();
    cost_per_rule(t, || {
        compile_triggers(&goal, &triggers, &mut ChannelAlloc::new())
    })
}

/// The cost per member of an `every` timer over a `repeat` family of `n`
/// members.
fn per_member(n: usize) -> Cost {
    let goal = unroll(&Goal::atom("poll"), n, n).goal;
    let timer = TimerSpec::every("poll", 5_000);
    cost_per_rule(n, || {
        compile_timer(&goal, &timer, &mut ChannelAlloc::fresh_for(&goal))
    })
}

/// Neither count per rule at the larger size exceeds twice the smaller's.
fn assert_linear(few: Cost, many: Cost) {
    assert!(
        many.calls <= 2.0 * few.calls && many.bytes <= 2.0 * few.bytes,
        "per rule, {many:?} at the larger size against {few:?} at the smaller"
    );
}

/// At 16 and 256 triggers.
#[test]
fn a_trigger_list_allocates_per_trigger() {
    assert_linear(per_trigger(16), per_trigger(256));
}

/// At 8 and 64 members.
#[test]
fn an_every_timer_allocates_per_member() {
    assert_linear(per_member(8), per_member(64));
}

/// The walk hands back every node whose children come back as they were,
/// and collects no child vector until one changes: at 256 triggers a
/// trigger costs 2.2 calls and 374 bytes (rebuilding every node the walk
/// entered, it cost 4.2 and 502).
#[test]
fn a_trigger_costs_its_own_rewrite_alone() {
    let cost = per_trigger(256);
    assert!(
        cost.calls <= 2.25 && cost.bytes <= 400.0,
        "per trigger at 256 triggers: {cost:?}"
    );
}
