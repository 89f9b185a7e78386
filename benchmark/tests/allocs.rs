//! The ladder's allocation counts are exact: this test binary installs
//! the counting allocator (as `ctr-bench-traced` does) and runs the
//! probes twice on one seed.

use ctr_benchmark::alloc::{self, Counting};
use ctr_benchmark::layers::probe_all;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn single_thread_rungs_allocate_the_same_every_run() {
    alloc::mark_installed();
    let allocs = |seed: u64| -> Vec<(String, f64)> {
        probe_all(seed, true)
            .expect("probes run")
            .into_iter()
            .filter(|m| {
                m.name.ends_with(".allocs_per_fire") || m.name.ends_with("bytes_per_instance")
            })
            .map(|m| (m.name.clone(), m.value()))
            .collect()
    };
    let (first, second) = (allocs(4), allocs(4));
    for rung in [
        "scheduler",
        "runtime_single",
        "runtime_shared",
        "runtime_shared_runs",
        "store_mem",
    ] {
        let name = format!("ladder.{rung}.allocs_per_fire");
        let value = |set: &[(String, f64)]| set.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert_eq!(value(&first), value(&second), "{name}");
        assert!(value(&first).is_some_and(|v| v > 0.0), "{name} is counted");
    }
    let bytes = |set: &[(String, f64)]| {
        set.iter()
            .find(|(n, _)| n.ends_with("bytes_per_instance"))
            .map(|(_, v)| *v)
    };
    assert_eq!(bytes(&first), bytes(&second));
    assert!(bytes(&first).is_some_and(|b| b > 1000.0));
}
