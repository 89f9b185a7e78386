//! The interner under real threads. These live here and not beside the
//! interner because `crates/core` spawns no thread, tests included — CI
//! greps for it.

use ctr::symbol::Symbol;

#[test]
fn interning_is_thread_safe() {
    let handles: Vec<_> = (0..8)
        .map(|i| std::thread::spawn(move || Symbol::intern(&format!("t{}", i % 3))))
        .collect();
    let syms: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (i, s) in syms.iter().enumerate() {
        assert_eq!(s.as_str(), format!("t{}", i % 3));
    }
}

#[test]
fn concurrent_reads_race_concurrent_interns() {
    // The lock-free read path: reader threads hammer `as_str` on a
    // growing set of symbols while writer threads keep interning new
    // names (forcing chunk allocations past the first boundary).
    // Every resolve must return exactly the interned string.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let stop = Arc::new(AtomicBool::new(false));
    let seed: Vec<(Symbol, String)> = (0..300)
        .map(|i| {
            let name = format!("stress_seed_{i}");
            (Symbol::intern(&name), name)
        })
        .collect();
    let seed = Arc::new(seed);

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let stop = Arc::clone(&stop);
            let seed = Arc::clone(&seed);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for (s, name) in seed.iter() {
                        assert_eq!(s.as_str(), name.as_str());
                    }
                }
            });
        }
        for w in 0..2 {
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let name = format!("stress_new_{w}_{i}");
                    let s = Symbol::intern(&name);
                    assert_eq!(s.as_str(), name);
                    i += 1;
                    if i >= 2_000 {
                        break;
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);
    });
}
