//! The §6 model-checking baseline on what `compile` emits: its states are
//! a program's futures, so a compiled goal with `∨`s — a layered spec
//! under an order chain or a Klein chain — has a marking graph of a few
//! hundred to a few thousand states, and the walk finishes.
//!
//! The specs are the benchmark's `compile_scratch` inputs at seed 1,
//! generated here by the benchmark's own generator.

use ctr::analysis::compile;
use ctr_baselines::explore;

#[allow(dead_code)]
#[path = "../benchmark/src/rng.rs"]
mod rng;

#[allow(dead_code)]
#[path = "../benchmark/src/inputs.rs"]
mod inputs;

/// States the walk may visit per spec; a walk that counted histories
/// reached it on every spec below.
const CAP: usize = 200_000;

#[test]
fn explore_finishes_on_compiled_specs_with_choices() {
    let specs = inputs::compile_specs(1, false);
    for name in [
        "layered8x3_orders",
        "layered32x3_orders",
        "layered8x3_klein5a",
    ] {
        let spec = (specs.iter().find(|s| s.name == name)).expect("a compile_scratch spec");
        let parsed = ctr_parser::parse_spec(&spec.source).expect("generated specs parse");
        let compiled = compile(&parsed.to_goal(), &parsed.constraints)
            .expect("unique-event")
            .goal;
        let e = explore(&compiled, CAP).expect("knot-free after Excise");
        assert!(!e.truncated, "{name}: truncated at {} states", e.states);
        assert!(e.states < 3_000, "{name}: {} states", e.states);
    }
}
