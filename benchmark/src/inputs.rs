//! Seeded input generation shared by the workloads.
//!
//! Everything a workload feeds the program is a pure function of
//! `--seed`, rendered to the concrete `.ctr` syntax the designer would
//! write, and saved under `benchmark/out/inputs/` so a run can be
//! inspected and replayed. The program under test only ever sees these
//! rendered inputs.
//!
//! The seed chooses *which* events are constrained, the lane and side
//! of every constrained stage, random goals, SAT instances and orders —
//! but never the size class of a spec: constraint count and disjunct
//! width decide compile cost (`O(d^N·|G|)`), so they stay on a fixed
//! grid and runs on different seeds stay comparable.

use crate::rng::Rng;
use ctr::constraints::Constraint;
use ctr::gen::{self, GoalShape, SatInstance};
use ctr::goal::Goal;
use ctr::symbol::Symbol;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// `benchmark/out/`: inputs, traces, WAL directories and result files.
/// Untracked (the root `.gitignore`).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Bytes of every file under `dir`, recursively (0 if unreadable).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|entry| match entry.metadata() {
                Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
                Ok(meta) => meta.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// One generated specification.
#[derive(Clone, Debug)]
pub struct SpecInput {
    /// Unique name; also the workflow name inside `source`.
    pub name: String,
    /// Which generator family produced it.
    pub family: &'static str,
    /// The `.ctr` source the program parses.
    pub source: String,
    /// For the SAT family: the instance, so brute force can referee.
    pub sat: Option<SatInstance>,
}

/// Renders a goal and constraints as a `workflow name { … }` source.
pub fn render_spec(name: &str, goal: &Goal, constraints: &[Constraint]) -> String {
    let mut src = format!("workflow {name} {{\n    graph {goal};\n");
    for c in constraints {
        let _ = writeln!(src, "    constraint {c};");
    }
    src.push_str("}\n");
    src
}

/// One event per stage of a layered workflow, lane and side drawn from
/// `rng`, for `stages` consecutive stages starting at a drawn offset.
fn stage_events(rng: &mut Rng, layers: usize, lanes: usize, stages: usize) -> Vec<Symbol> {
    let first = rng.below(layers - stages + 1);
    (first..first + stages)
        .map(|stage| {
            let (left, right) = gen::layered_events(stage, rng.below(lanes));
            if rng.percent(50) {
                left
            } else {
                right
            }
        })
        .collect()
}

/// A Klein-order chain (`d = 3` each) over `k + 1` consecutive stages.
fn klein_chain(rng: &mut Rng, layers: usize, lanes: usize, k: usize) -> Vec<Constraint> {
    stage_events(rng, layers, lanes, k + 1)
        .windows(2)
        .map(|w| Constraint::klein_order(w[0], w[1]))
        .collect()
}

/// Plain order constraints (`d = 1`) chaining every stage.
pub fn stage_orders(rng: &mut Rng, layers: usize, lanes: usize) -> Vec<Constraint> {
    stage_events(rng, layers, lanes, layers)
        .windows(2)
        .map(|w| Constraint::order(w[0], w[1]))
        .collect()
}

/// `(variables, generator seed)` of the base 3-SAT instances. Compile
/// time on this family swings 3× between random instances of one size,
/// which would drown every other spec in seed-to-seed noise, so the
/// instances are fixed and the run seed only relabels them (variable
/// permutation and polarity flips — an isomorphic instance, the same
/// `Apply` blow-up). Chosen to mix satisfiable (6, 8, 9) with
/// unsatisfiable (7, 10) and to cost about as much as the layered grid.
const SAT_BASES: [(usize, u64); 5] = [(6, 2), (7, 2), (8, 5), (9, 3), (10, 3)];

/// An isomorphic copy of `base`: variables permuted, some polarities
/// flipped; clause and literal order untouched.
fn relabel_sat(base: &SatInstance, rng: &mut Rng) -> SatInstance {
    let mut rename: Vec<usize> = (0..base.vars).collect();
    rng.shuffle(&mut rename);
    let flip: Vec<bool> = (0..base.vars).map(|_| rng.percent(50)).collect();
    SatInstance {
        vars: base.vars,
        clauses: base
            .clauses
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|&(v, polarity)| (rename[v], polarity ^ flip[v]))
                    .collect()
            })
            .collect(),
    }
}

/// A relabelled copy of the base instance with `vars` variables (6–10).
pub fn sat_instance(vars: usize, rng: &mut Rng) -> SatInstance {
    sat_instance_with_spares(vars, 0, rng).0
}

/// [`sat_instance`] plus `spares` further clauses from the same
/// generator stream under the same relabelling — replacement clauses
/// for an edit script, as fixed in structure as the instance itself.
pub fn sat_instance_with_spares(
    vars: usize,
    spares: usize,
    rng: &mut Rng,
) -> (SatInstance, Vec<Vec<(usize, bool)>>) {
    let &(_, base_seed) = SAT_BASES
        .iter()
        .find(|(v, _)| *v == vars)
        .expect("a base instance exists for 6..=10 variables");
    let clauses = (vars as f64 * 4.3) as usize;
    // The generator draws clause after clause, so the longer instance
    // starts with exactly the clauses of the shorter one.
    let base = gen::random_3sat(base_seed, vars, clauses + spares);
    let mut relabelled = relabel_sat(&base, rng);
    let spare_clauses = relabelled.clauses.split_off(clauses);
    (relabelled, spare_clauses)
}

/// The five checked-in example specifications.
const EXAMPLES: [(&str, &str); 5] = [
    ("knot", include_str!("../../examples/specs/knot.ctr")),
    (
        "order_fulfilment",
        include_str!("../../examples/specs/order_fulfilment.ctr"),
    ),
    (
        "payment_saga",
        include_str!("../../examples/specs/payment_saga.ctr"),
    ),
    (
        "retry_polling",
        include_str!("../../examples/specs/retry_polling.ctr"),
    ),
    ("trip", include_str!("../../examples/specs/trip.ctr")),
];

/// Source of one checked-in example by name.
pub fn example_source(name: &str) -> &'static str {
    EXAMPLES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, src)| *src)
        .expect("a checked-in example name")
}

/// The spec set of `compile_scratch`: the layered grid with Klein and
/// order chains, pipelines with order chains, random goals with random
/// constraints, the 3-SAT reduction, and the checked-in examples.
pub fn compile_specs(seed: u64, smoke: bool) -> Vec<SpecInput> {
    let root = Rng::new(seed);
    let mut specs = Vec::new();

    // Layered grid. The Klein count falls as the graph grows so that
    // d^N·|G| stays within one order of magnitude across the grid.
    let grid: &[(usize, usize)] = if smoke {
        &[(8, 3), (16, 2)]
    } else {
        &[(8, 5), (16, 4), (32, 3), (64, 2)]
    };
    let mut rng = root.fork("layered");
    for &(layers, klein) in grid {
        for lanes in [2usize, 3] {
            let goal = gen::layered_workflow(layers, lanes);
            // Two draws per cell: the Klein family is the one Theorem
            // 5.11 is about, and with half the set in one cost class the
            // median op sits inside it rather than between classes.
            for draw in ["a", "b"] {
                let name = format!("layered{layers}x{lanes}_klein{klein}{draw}");
                let constraints = klein_chain(&mut rng, layers, lanes, klein);
                specs.push(SpecInput {
                    source: render_spec(&name, &goal, &constraints),
                    name,
                    family: "layered_klein",
                    sat: None,
                });
            }
            let name = format!("layered{layers}x{lanes}_orders");
            let constraints = stage_orders(&mut rng, layers, lanes);
            specs.push(SpecInput {
                source: render_spec(&name, &goal, &constraints),
                name,
                family: "layered_orders",
                sat: None,
            });
        }
    }

    // Pipelines with order chains: the serial-only corollary (d = 1).
    let chains: &[usize] = if smoke { &[8] } else { &[16, 32, 64] };
    for &n in chains {
        let name = format!("pipeline_orders{n}");
        specs.push(SpecInput {
            source: render_spec(
                &name,
                &gen::pipeline_workflow(2 * n + 2),
                &gen::order_chain(n),
            ),
            name,
            family: "pipeline_orders",
            sat: None,
        });
    }

    // Random goals with a random mix of the §3 constraint catalogue.
    let mut rng = root.fork("random");
    for i in 0..if smoke { 2 } else { 6 } {
        let prefix = format!("g{i}e");
        // Always the same number of specs: redraw a goal too small to
        // constrain.
        let (goal, events) = loop {
            let (goal, events) = gen::random_goal(rng.next_u64(), GoalShape::default(), &prefix);
            if events.len() >= 2 {
                break (goal, events);
            }
        };
        let constraints = gen::random_constraints(rng.next_u64(), &events, 3);
        let name = format!("random{i}");
        specs.push(SpecInput {
            source: render_spec(&name, &goal, &constraints),
            name,
            family: "random",
            sat: None,
        });
    }

    // The 3-SAT reduction of Prop. 4.1 at the hard clause ratio.
    let mut rng = root.fork("sat");
    let bases: &[(usize, u64)] = if smoke { &SAT_BASES[..1] } else { &SAT_BASES };
    for &(vars, _) in bases {
        let inst = sat_instance(vars, &mut rng);
        let (goal, constraints) = gen::sat_to_workflow(&inst);
        let name = format!("sat{vars}");
        specs.push(SpecInput {
            source: render_spec(&name, &goal, &constraints),
            name,
            family: "sat",
            sat: Some(inst),
        });
    }

    for (name, source) in EXAMPLES {
        specs.push(SpecInput {
            name: format!("example_{name}"),
            family: "example",
            source: source.to_owned(),
            sat: None,
        });
    }

    // The seed also fixes the order specs are compiled in.
    root.fork("order").shuffle(&mut specs);
    specs
}

/// Writes generated inputs under `out/inputs/<workload>/`, one file per
/// `(name, contents)`, overwriting what an earlier run left under the
/// same names.
pub fn save_inputs(workload: &str, files: &[(String, String)]) -> std::io::Result<PathBuf> {
    let dir = out_dir().join("inputs").join(workload);
    std::fs::create_dir_all(&dir)?;
    for (name, contents) in files {
        // A set-up sample regenerates the same bytes; rewriting them
        // would only leave dirty pages behind for the next fsync to pay.
        let path = dir.join(name);
        if std::fs::read(&path).is_ok_and(|old| old == contents.as_bytes()) {
            continue;
        }
        std::fs::write(path, contents)?;
    }
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_yields_byte_identical_specs() {
        let a = compile_specs(11, false);
        let b = compile_specs(11, false);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.source, y.source);
        }
        let c = compile_specs(12, false);
        assert!(a.iter().zip(&c).any(|(x, y)| x.source != y.source));
    }

    #[test]
    fn every_generated_spec_parses_back_to_what_was_rendered() {
        for spec in compile_specs(5, false) {
            let parsed = ctr_parser::parse_spec(&spec.source)
                .unwrap_or_else(|e| panic!("{}: {e:?}\n{}", spec.name, spec.source));
            if spec.family != "example" {
                assert_eq!(parsed.name, spec.name);
                // Rendering the parsed spec again is a fixed point.
                assert_eq!(
                    render_spec(&parsed.name, &parsed.graph, &parsed.constraints),
                    spec.source
                );
            }
        }
    }
}
