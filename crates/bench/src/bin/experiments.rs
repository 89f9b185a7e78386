//! Regenerates every experiment table of EXPERIMENTS.md (one section per
//! experiment in DESIGN.md's index) with deterministic workloads.
//!
//! Run with: `cargo run --release -p ctr-bench --bin experiments`
//!
//! `--smoke` skips the (slow) tables and regenerates only the
//! machine-readable `BENCH_*.json` records on tiny workloads — CI runs
//! this so the JSON generation paths cannot silently rot.

use ctr::analysis::compile;
use ctr::apply::{apply, apply_with, Parallelism};
use ctr::constraints::Constraint;
use ctr::excise::{excise, excise_with_diagnostics_par};
use ctr::gen;
use ctr::goal::Goal;
use ctr::sym;
use ctr_baselines::{explore, PassiveValidator, ProductScheduler};
use ctr_bench::{fmt_ns, log_growth_factor, power_law_exponent, time_mean, Table};
use ctr_engine::scheduler::{Program, Scheduler};
use ctr_runtime::{InstanceId, InstanceStatus, Runtime, RuntimeError, SharedRuntime};
use ctr_workflow::{compile_modular, compile_triggers, Trigger, WorkflowSpec};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// The host-facts row every `BENCH_*.json` table leads with: core
/// count, hostname hash, build flags. A number without the box it was
/// measured on is not a benchmark result.
fn host_row(smoke: bool) -> String {
    ctr_serve::host_json_row(if smoke { &["smoke"] } else { &[] })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let store_only = std::env::args().any(|a| a == "--store-only");
    let exec_only = std::env::args().any(|a| a == "--exec-only");
    let t0 = Instant::now();
    if store_only {
        // Regenerate only BENCH_store.json at full size — the store
        // bench depends on real fsync latency, so it is the one table
        // worth re-measuring in isolation on a quiet machine.
        bench_store_json(smoke);
        eprintln!("\n(total {:.1?})", t0.elapsed());
        return;
    }
    if exec_only {
        // Regenerate only BENCH_exec.json at full size — handy when a
        // runtime hot-path change needs a before/after on the batch and
        // fleet families without re-running the whole suite.
        bench_exec_json(smoke);
        eprintln!("\n(total {:.1?})", t0.elapsed());
        return;
    }
    if std::env::args().any(|a| a == "--timer-only") {
        // Regenerate only BENCH_timer.json at full size (a million
        // pending timers) without re-running the whole suite.
        bench_timer_json(smoke);
        eprintln!("\n(total {:.1?})", t0.elapsed());
        return;
    }
    if !smoke {
        e1_apply_size();
        e2_excise_linear();
        e3_serial_linear();
        e4_np_hardness();
        e5_scheduling();
        e6_vs_modelcheck();
        e7_subworkflows();
        e8_triggers();
        x2_automata();
        a1_ablation();
    }
    bench_compile_json(smoke);
    bench_exec_json(smoke);
    bench_verify_json(smoke);
    bench_store_json(smoke);
    bench_timer_json(smoke);
    eprintln!("\n(total {:.1?})", t0.elapsed());
}

/// `BENCH_timer.json` — the hierarchical timer wheel in isolation plus
/// one fleet advance through the shared runtime.
///
/// `timer_wheel/churn_{small,medium,large}` arm N timers with
/// pseudo-random dues across a 24h horizon, then drain them through
/// `advance_to` in 1024 clock steps; per-op nanoseconds staying flat as
/// N grows by 100x is the O(1) claim, measured rather than asserted.
/// `timer_wheel/arm_cancel_1m` holds one million pending timers at once
/// and cancels every token (`pending_peak` records the high-water
/// mark). `timer_wheel/fleet_advance` fires one `after` timer per
/// instance through `SharedRuntime::advance` — wheel pop, journal
/// append, and frontier dispatch on the same row.
fn bench_timer_json(smoke: bool) {
    use ctr_runtime::TimerWheel;

    struct Record {
        name: String,
        timers: u64,
        pending_peak: u64,
        arm_ns_per_op: f64,
        drain_ns_per_op: f64,
        cancel_ns_per_op: f64,
    }
    let mut records: Vec<Record> = Vec::new();

    const HORIZON_MS: u64 = 86_400_000;
    let mut rng: u64 = 0x7137_BEEF;
    let mut next_due = |now: u64| -> u64 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        now + 1 + (rng >> 33) % HORIZON_MS
    };

    // Churn: arm N, then drain the full horizon in 1024 advances.
    let churn_sizes: &[(&str, usize)] = if smoke {
        &[("small", 1_000), ("medium", 10_000), ("large", 50_000)]
    } else {
        &[("small", 10_000), ("medium", 100_000), ("large", 1_000_000)]
    };
    for &(label, n) in churn_sizes {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let now = wheel.now();
        let t0 = Instant::now();
        for i in 0..n {
            wheel.arm(next_due(now), i as u32);
        }
        let arm_ns = t0.elapsed().as_nanos() as f64 / n as f64;
        let pending_peak = wheel.len() as u64;
        let t0 = Instant::now();
        let mut fired = 0usize;
        for step in 1..=1024u64 {
            fired += wheel.advance_to(now + step * (HORIZON_MS / 1024 + 1)).len();
        }
        assert_eq!(fired, n, "every armed timer fires exactly once");
        records.push(Record {
            name: format!("timer_wheel/churn_{label}"),
            timers: n as u64,
            pending_peak,
            arm_ns_per_op: arm_ns,
            drain_ns_per_op: t0.elapsed().as_nanos() as f64 / n as f64,
            cancel_ns_per_op: 0.0,
        });
    }

    // A million timers pending at once, then every token cancelled.
    let n = if smoke { 50_000 } else { 1_000_000 };
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let now = wheel.now();
    let t0 = Instant::now();
    let tokens: Vec<_> = (0..n).map(|i| wheel.arm(next_due(now), i as u32)).collect();
    let arm_ns = t0.elapsed().as_nanos() as f64 / n as f64;
    let pending_peak = wheel.len() as u64;
    let t0 = Instant::now();
    for token in tokens {
        wheel.cancel(token).expect("armed and never fired");
    }
    assert_eq!(wheel.len(), 0, "every pending timer cancelled");
    records.push(Record {
        name: "timer_wheel/arm_cancel_1m".to_owned(),
        timers: n as u64,
        pending_peak,
        arm_ns_per_op: arm_ns,
        drain_ns_per_op: 0.0,
        cancel_ns_per_op: t0.elapsed().as_nanos() as f64 / n as f64,
    });

    // Fleet advance: one `after` gate per instance, fired through the
    // shared runtime (wheel pop + journal + frontier dispatch).
    let fleet = if smoke { 64 } else { 4_096 };
    let rt = SharedRuntime::new();
    rt.deploy_source("workflow timed { graph a * b; after(b, 30s); }")
        .expect("deploy timed");
    for _ in 0..fleet {
        rt.start("timed").expect("start");
    }
    let pending_peak = rt.pending_timer_count() as u64;
    let t0 = Instant::now();
    let fired = rt.advance(30_000).expect("advance fires every gate");
    let drain_ns = t0.elapsed().as_nanos() as f64 / fleet as f64;
    assert_eq!(fired.len(), fleet, "one firing per instance");
    records.push(Record {
        name: "timer_wheel/fleet_advance".to_owned(),
        timers: fleet as u64,
        pending_peak,
        arm_ns_per_op: 0.0,
        drain_ns_per_op: drain_ns,
        cancel_ns_per_op: 0.0,
    });

    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "  {{\"name\": \"{}\", \"timers\": {}, \"pending_peak\": {}, \
                 \"arm_ns_per_op\": {:.1}, \"drain_ns_per_op\": {:.1}, \
                 \"cancel_ns_per_op\": {:.1}}}",
                r.name,
                r.timers,
                r.pending_peak,
                r.arm_ns_per_op,
                r.drain_ns_per_op,
                r.cancel_ns_per_op
            )
        })
        .collect();
    let json = format!("[\n{},\n{}\n]\n", host_row(smoke), rows.join(",\n"));
    std::fs::write("BENCH_timer.json", &json).expect("write BENCH_timer.json");
    eprintln!("wrote BENCH_timer.json ({} workloads)", records.len());
}

/// Order-constraint chain over stage leaders of a layered workflow (d=1).
fn stage_orders(n: usize) -> Vec<Constraint> {
    (0..n)
        .map(|i| Constraint::order(sym(&format!("l{i}_0")), sym(&format!("l{}_0", i + 1))))
        .collect()
}

/// `causes_later` chain (d = 2 in normal form).
fn causes_chain(n: usize) -> Vec<Constraint> {
    (0..n)
        .map(|i| Constraint::causes_later(sym(&format!("l{i}_0")), sym(&format!("l{}_0", i + 1))))
        .collect()
}

// ---------------------------------------------------------------------------

fn e1_apply_size() {
    println!("## E1 — Theorem 5.11: |Apply(C, G)| = O(d^N · |G|)\n");

    // Growth in N for each d.
    let goal = gen::layered_workflow(8, 2);
    println!("Workload: layered workflow, |G| = {} nodes.\n", goal.size());
    let mut table = Table::new(&["N", "d=1 size", "d=2 size", "d=3 size"]);
    let mut pts_by_d: [Vec<(f64, f64)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for n in 1..=6usize {
        let sizes: Vec<usize> = [stage_orders(n), causes_chain(n), gen::klein_chain(n)]
            .iter()
            .map(|cs| compile(&goal, cs).unwrap().applied_size)
            .collect();
        for (d, &s) in sizes.iter().enumerate() {
            pts_by_d[d].push((n as f64, s as f64));
        }
        table.row(vec![
            n.to_string(),
            sizes[0].to_string(),
            sizes[1].to_string(),
            sizes[2].to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nFitted growth factor per added constraint: d=1 → {:.2}, d=2 → {:.2}, d=3 → {:.2}",
        log_growth_factor(&pts_by_d[0]),
        log_growth_factor(&pts_by_d[1]),
        log_growth_factor(&pts_by_d[2]),
    );

    // Linearity in |G| at fixed constraints.
    let constraints = gen::klein_chain(3);
    let mut table = Table::new(&["|G|", "|Apply| (N=3, d=3)", "ratio"]);
    let mut pts = Vec::new();
    for layers in [4usize, 8, 16, 32, 64] {
        let goal = gen::layered_workflow(layers, 2);
        let size = compile(&goal, &constraints).unwrap().applied_size;
        pts.push((goal.size() as f64, size as f64));
        table.row(vec![
            goal.size().to_string(),
            size.to_string(),
            format!("{:.1}", size as f64 / goal.size() as f64),
        ]);
    }
    print!("\n{}", table.render());
    println!(
        "\nPower-law exponent of |Apply| vs |G|: {:.2} (paper: 1.0 — linear in the graph)\n",
        power_law_exponent(&pts)
    );
}

fn e2_excise_linear() {
    println!("## E2 — Theorem 5.11: Excise runs in time linear in |Apply(C, G)|\n");
    let mut table = Table::new(&["|Apply|", "Excise time"]);
    let mut pts = Vec::new();
    for (layers, n) in [
        (4usize, 2usize),
        (8, 2),
        (8, 3),
        (16, 3),
        (16, 4),
        (32, 4),
        (32, 5),
    ] {
        let goal = gen::layered_workflow(layers, 2);
        let applied = apply(&gen::klein_chain(n), &goal);
        let size = applied.size();
        let t = time_mean(5, || excise(&applied));
        pts.push((size as f64, t.as_nanos() as f64));
        table.row(vec![size.to_string(), fmt_ns(t)]);
    }
    print!("{}", table.render());
    println!(
        "\nPower-law exponent of Excise time vs |Apply|: {:.2} (paper: 1.0 — proportional)\n",
        power_law_exponent(&pts)
    );
}

fn e3_serial_linear() {
    println!("## E3 — Corollary of 5.11: serial constraints only (d = 1) ⇒ |Apply| ∝ |G|\n");
    let mut table = Table::new(&[
        "N (order constraints)",
        "|G|",
        "|Apply|",
        "overhead/constraint",
    ]);
    for n in [1usize, 2, 4, 8, 16, 32] {
        let goal = gen::pipeline_workflow(2 * n + 4);
        let constraints = gen::order_chain(n);
        let compiled = compile(&goal, &constraints).unwrap();
        let overhead = compiled.applied_size.saturating_sub(goal.size());
        table.row(vec![
            n.to_string(),
            goal.size().to_string(),
            compiled.applied_size.to_string(),
            format!("{:.1}", overhead as f64 / n as f64),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nOverhead is a constant ~2 nodes (send+receive) per order constraint: no blow-up.\n"
    );
}

fn e4_np_hardness() {
    println!(
        "## E4 — Proposition 4.1: NP-hard with existence constraints, polynomial for orders\n"
    );

    println!("3-SAT encoded as workflow consistency (clause ratio 4.3, mean of 3 seeds):\n");
    let mut table = Table::new(&["vars", "clauses", "consistency time"]);
    let mut pts = Vec::new();
    for vars in [4usize, 6, 8, 10, 12] {
        let clauses = (vars as f64 * 4.3) as usize;
        let mut total = std::time::Duration::ZERO;
        for seed in 0..3u64 {
            let inst = gen::random_3sat(seed, vars, clauses);
            let (goal, constraints) = gen::sat_to_workflow(&inst);
            total += time_mean(1, || compile(&goal, &constraints).unwrap().is_consistent());
        }
        let mean = total / 3;
        pts.push((vars as f64, mean.as_nanos() as f64));
        table.row(vec![vars.to_string(), clauses.to_string(), fmt_ns(mean)]);
    }
    print!("{}", table.render());
    println!(
        "\nGrowth factor per added variable: {:.2}× (exponential family)\n",
        log_growth_factor(&pts)
    );

    println!("Order constraints only (the polynomial fragment):\n");
    let mut table = Table::new(&["N (order constraints)", "|G|", "consistency time"]);
    let mut pts = Vec::new();
    for n in [4usize, 8, 16, 32, 64] {
        let goal = gen::pipeline_workflow(2 * n + 2);
        let constraints = gen::order_chain(n);
        let t = time_mean(5, || compile(&goal, &constraints).unwrap().is_consistent());
        pts.push((n as f64, t.as_nanos() as f64));
        table.row(vec![n.to_string(), goal.size().to_string(), fmt_ns(t)]);
    }
    print!("{}", table.render());
    println!(
        "\nPower-law exponent vs N: {:.2} (low-degree polynomial, no blow-up)\n",
        power_law_exponent(&pts)
    );
}

fn e5_scheduling() {
    println!(
        "## E5 — §4: compiled scheduling is linear per path; passive validation is quadratic\n"
    );

    let mut table = Table::new(&[
        "events/path",
        "pro-active schedule",
        "passive validate (Singh)",
        "passive validate (Attie product)",
    ]);
    let mut active_pts = Vec::new();
    let mut singh_pts = Vec::new();
    let mut attie_pts = Vec::new();
    for layers in [8usize, 16, 32, 64, 128] {
        // Constraint count grows with the workflow, as it does in practice.
        let goal = gen::layered_workflow(layers, 2);
        let constraints = stage_orders(layers - 1);
        let compiled = compile(&goal, &constraints).unwrap();
        let program = Program::compile(&compiled.goal).unwrap();

        let t_active = time_mean(5, || Scheduler::new(&program).run_first().unwrap());
        let trace: Vec<ctr::Symbol> = Scheduler::new(&program)
            .run_first()
            .unwrap()
            .iter()
            .filter_map(ctr::term::Atom::as_event)
            .collect();

        let validator = PassiveValidator::new(&constraints);
        let t_singh = time_mean(20, || validator.validate(&trace));
        let product = ProductScheduler::new(&constraints);
        let t_attie = time_mean(20, || product.validate(&trace));

        let n = trace.len() as f64;
        active_pts.push((n, t_active.as_nanos() as f64));
        singh_pts.push((n, t_singh.as_nanos() as f64));
        attie_pts.push((n, t_attie.as_nanos() as f64));
        table.row(vec![
            trace.len().to_string(),
            fmt_ns(t_active),
            fmt_ns(t_singh),
            fmt_ns(t_attie),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nScaling exponents vs path length: pro-active {:.2} (paper: linear), \
         Singh {:.2} (paper: ≥ quadratic), Attie {:.2}\n",
        power_law_exponent(&active_pts),
        power_law_exponent(&singh_pts),
        power_law_exponent(&attie_pts),
    );
}

fn e6_vs_modelcheck() {
    println!("## E6 — §6: Apply is linear in |G|; model checking explodes with concurrency\n");
    let property = Constraint::klein_order("t0", "t1");
    let mut table = Table::new(&[
        "width w",
        "|G|",
        "Apply time",
        "|Apply|",
        "MC states",
        "MC time",
    ]);
    let mut apply_pts = Vec::new();
    let mut mc_pts = Vec::new();
    for w in [4usize, 6, 8, 10, 12, 14] {
        let goal = gen::parallel_workflow(w);
        let t_apply = time_mean(10, || {
            compile(&goal, std::slice::from_ref(&property)).unwrap()
        });
        let size = compile(&goal, std::slice::from_ref(&property))
            .unwrap()
            .applied_size;
        let t0 = Instant::now();
        let states = explore(&goal, 10_000_000).unwrap().states;
        let t_mc = t0.elapsed();
        apply_pts.push((w as f64, t_apply.as_nanos() as f64));
        mc_pts.push((w as f64, states as f64));
        table.row(vec![
            w.to_string(),
            goal.size().to_string(),
            fmt_ns(t_apply),
            size.to_string(),
            states.to_string(),
            fmt_ns(t_mc),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nMC state growth per unit width: {:.2}× (state explosion); Apply growth: {:.2}×\n",
        log_growth_factor(&mc_pts),
        log_growth_factor(&apply_pts),
    );
}

fn e7_subworkflows() {
    println!("## E7 — §7: modular constraints keep the exponent at M (local), not N (global)\n");
    let mut table = Table::new(&[
        "K sub-workflows",
        "N = K (d=3)",
        "flat |Apply|",
        "modular |Apply|",
        "ratio",
    ]);
    for k in [2usize, 3, 4, 5, 6] {
        let mut spec = WorkflowSpec::new(
            "e7",
            ctr::goal::seq((0..k).map(|i| Goal::atom(format!("sub{i}"))).collect()),
        );
        let mut local: BTreeMap<ctr::Symbol, Vec<Constraint>> = BTreeMap::new();
        for i in 0..k {
            spec.subworkflows
                .define(
                    format!("sub{i}").as_str(),
                    ctr::goal::conc(vec![
                        ctr::goal::or(vec![
                            Goal::atom(format!("a{i}")),
                            Goal::atom(format!("x{i}")),
                        ]),
                        Goal::atom(format!("b{i}")),
                    ]),
                )
                .unwrap();
            local.insert(
                sym(&format!("sub{i}")),
                vec![Constraint::klein_order(
                    format!("a{i}").as_str(),
                    format!("b{i}").as_str(),
                )],
            );
        }
        let modular = compile_modular(&spec, &local).unwrap();
        let mut flat = spec.clone();
        flat.constraints = (0..k)
            .map(|i| Constraint::klein_order(format!("a{i}").as_str(), format!("b{i}").as_str()))
            .collect();
        let flat_compiled = flat.compile().unwrap();
        table.row(vec![
            k.to_string(),
            k.to_string(),
            flat_compiled.applied_size.to_string(),
            modular.applied_size.to_string(),
            format!(
                "{:.1}×",
                flat_compiled.applied_size as f64 / modular.applied_size as f64
            ),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nFlat grows ~3^K; modular grows linearly in K (M = 1 constraint per sub-workflow).\n"
    );
}

fn e8_triggers() {
    println!("## E8 — §1/[7]: triggers compile into the control flow graph at linear cost\n");
    let mut table = Table::new(&["triggers", "|G| before", "|G| after", "compile time"]);
    let mut pts = Vec::new();
    for t in [1usize, 2, 4, 8, 16, 32, 64] {
        let goal = gen::pipeline_workflow(t + 4);
        let triggers: Vec<Trigger> = (0..t)
            .map(|i| Trigger::immediate(sym(&format!("t{i}")), Goal::atom(format!("audit{i}"))))
            .collect();
        let mut channels = ctr::apply::ChannelAlloc::new();
        let time = time_mean(10, || compile_triggers(&goal, &triggers, &mut channels));
        let after = compile_triggers(&goal, &triggers, &mut ctr::apply::ChannelAlloc::new());
        pts.push((t as f64, time.as_nanos() as f64));
        table.row(vec![
            t.to_string(),
            goal.size().to_string(),
            after.size().to_string(),
            fmt_ns(time),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nPower-law exponent of compile time vs trigger count: {:.2} (≈ linear–quadratic \
         in the trigger list, each pass linear in |G|)\n",
        power_law_exponent(&pts)
    );
}

fn a1_ablation() {
    println!("## A1 — Ablation: eager ¬path pruning and ∨-idempotence (DESIGN.md §3)\n");

    println!("Eager vs naive `Apply(∇α, ·)` (same output, different intermediate work):\n");
    let mut table = Table::new(&["|G|", "eager", "naive (post-hoc simplify)"]);
    let mut eager_pts = Vec::new();
    let mut naive_pts = Vec::new();
    for layers in [16usize, 32, 64, 128] {
        let goal = gen::layered_workflow(layers, 2);
        let target = sym(&format!("l{}_0", layers - 1));
        let t_eager = time_mean(20, || ctr::apply::apply_must(target, &goal));
        let t_naive = time_mean(5, || ctr_bench::ablation::apply_must_naive(target, &goal));
        eager_pts.push((goal.size() as f64, t_eager.as_nanos() as f64));
        naive_pts.push((goal.size() as f64, t_naive.as_nanos() as f64));
        table.row(vec![
            goal.size().to_string(),
            fmt_ns(t_eager),
            fmt_ns(t_naive),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nScaling exponents: eager {:.2} (linear, as Theorem 5.11 needs), naive {:.2} \
         (the Θ(n²) intermediate term)\n",
        power_law_exponent(&eager_pts),
        power_law_exponent(&naive_pts),
    );

    println!("∨-idempotence on the 3-SAT family (existence constraints):\n");
    let mut table = Table::new(&["vars", "|Apply| dedup", "|Apply| no-dedup", "ratio"]);
    for vars in [3usize, 4, 5, 6] {
        let inst = gen::random_3sat(7, vars, (vars as f64 * 4.3) as usize);
        let (goal, constraints) = gen::sat_to_workflow(&inst);
        let with = apply(&constraints, &goal).size();
        let without = ctr_bench::ablation::apply_no_dedup(&constraints, &goal).size();
        table.row(vec![
            vars.to_string(),
            with.to_string(),
            without.to_string(),
            format!("{:.0}×", without as f64 / with as f64),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nWithout idempotence the term repeats identical pruned variants; with it, the \
         term is bounded by the distinct partial assignments. Both respect the d^N \
         worst case — idempotence only removes literal duplicates.\n"
    );
}

/// Machine-readable record of the hot compile path, written next to the
/// experiment tables so perf changes can be compared across commits.
///
/// One record per workload: the E1 linearity family (layered workflow,
/// klein_chain(3)) and the E2 excise family, with apply and excise wall
/// times measured separately, all sequential; then the same compile under
/// `apply_par/{never,auto}` on a chain that stays below the fan-out floor
/// and one whose last constraints cross it, so what `Parallelism::Auto`
/// buys or costs on this host (the `num_cpus` of the host row) is a pair
/// of rows.
fn bench_compile_json(smoke: bool) {
    struct Record {
        name: String,
        goal_size: usize,
        constraint_count: usize,
        apply_ns: u128,
        excise_ns: u128,
        output_size: usize,
    }

    let mut records = Vec::new();
    let mut measure = |name: String, goal: &Goal, constraints: &[Constraint], par: Parallelism| {
        let reps = if goal.size() > 2_000 { 3 } else { 10 };
        let t_apply = time_mean(reps, || apply_with(constraints, goal, par));
        let applied = apply_with(constraints, goal, par);
        let t_excise = time_mean(reps, || excise_with_diagnostics_par(&applied, par));
        records.push(Record {
            name,
            goal_size: goal.size(),
            constraint_count: constraints.len(),
            apply_ns: t_apply.as_nanos(),
            excise_ns: t_excise.as_nanos(),
            output_size: excise(&applied).size(),
        });
    };

    let e1_layers: &[usize] = if smoke { &[4] } else { &[4, 8, 16, 32, 64] };
    for &layers in e1_layers {
        let goal = gen::layered_workflow(layers, 2);
        measure(
            format!("e1_apply_size/layers{layers}_klein3"),
            &goal,
            &gen::klein_chain(3),
            Parallelism::Never,
        );
    }
    let e2_shapes: &[(usize, usize)] = if smoke {
        &[(8, 3)]
    } else {
        &[(8, 3), (16, 4), (32, 4), (32, 5)]
    };
    for &(layers, n) in e2_shapes {
        let goal = gen::layered_workflow(layers, 2);
        measure(
            format!("e2_excise_linear/layers{layers}_klein{n}"),
            &goal,
            &gen::klein_chain(n),
            Parallelism::Never,
        );
    }
    let par_shapes: &[(usize, usize)] = if smoke {
        &[(8, 3)]
    } else {
        &[(32, 3), (32, 5)]
    };
    for &(layers, n) in par_shapes {
        let goal = gen::layered_workflow(layers, 2);
        for (mode, par) in [("never", Parallelism::Never), ("auto", Parallelism::Auto)] {
            measure(
                format!("apply_par/{mode}/layers{layers}_klein{n}"),
                &goal,
                &gen::klein_chain(n),
                par,
            );
        }
    }

    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "  {{\"name\": \"{}\", \"goal_size\": {}, \"constraint_count\": {}, \
                 \"apply_ns\": {}, \"excise_ns\": {}, \"output_size\": {}}}",
                r.name, r.goal_size, r.constraint_count, r.apply_ns, r.excise_ns, r.output_size
            )
        })
        .collect();
    let json = format!("[\n{},\n{}\n]\n", host_row(smoke), rows.join(",\n"));
    std::fs::write("BENCH_compile.json", &json).expect("write BENCH_compile.json");
    eprintln!("\nwrote BENCH_compile.json ({} workloads)", records.len());
}

/// Machine-readable record of the execution hot path (`Runtime::fire` /
/// `Runtime::eligible`), written alongside `BENCH_compile.json` so the
/// run-time layer's perf can be compared across commits.
///
/// One record per workload: a long single instance (per-fire cost must be
/// flat in the journal length), an `eligible()` probe at the end of a long
/// journal, a fleet of instances sharing one deployment, the
/// `fleet_mt/<workload>x<threads>` family — the same fleet driven by
/// concurrent client threads on the sharded runtime, with
/// `fleet_mt_coarse/*` pinning the coarse-lock baseline it replaced —
/// plus the engine-level `sched_hot/{eligible,fire_event,deadlock_probe}`
/// hot paths of the incremental frontier and the `batch/<workload>xB`
/// family driving `fire_batch`/`fire_many` in chunks of B.
fn bench_exec_json(smoke: bool) {
    struct Record {
        name: String,
        instances: usize,
        total_fires: usize,
        wall_ns: u128,
        fires_per_sec: u64,
        replayed_steps: u64,
    }
    let mut records = Vec::new();

    // Drives `fires` pipeline events through one instance.
    let mut single = |name: &str, fires: usize| {
        let mut rt = Runtime::new();
        rt.deploy_compiled("pipe", gen::pipeline_workflow(fires))
            .expect("pipeline compiles");
        let id = rt.start("pipe").expect("deployed");
        let events: Vec<String> = (0..fires).map(|i| format!("t{i}")).collect();
        let t0 = Instant::now();
        for e in &events {
            rt.fire(id, e).expect("pipeline order");
        }
        let wall = t0.elapsed();
        records.push(Record {
            name: name.to_owned(),
            instances: 1,
            total_fires: fires,
            wall_ns: wall.as_nanos(),
            fires_per_sec: (fires as f64 / wall.as_secs_f64()) as u64,
            replayed_steps: rt.replayed_steps(),
        });
    };
    if smoke {
        single("single/pipeline_200", 200);
    } else {
        single("single/pipeline_1000", 1_000);
        single("single/pipeline_10000", 10_000);
    }

    // `eligible()` probes at the end of a long journal: the cursor-cache
    // case the passive replay design paid O(journal) for.
    {
        let fires = if smoke { 200 } else { 10_000 };
        let probes = if smoke { 50 } else { 1_000 };
        let mut rt = Runtime::new();
        rt.deploy_compiled("pipe", gen::pipeline_workflow(fires))
            .expect("pipeline compiles");
        let id = rt.start("pipe").expect("deployed");
        for i in 0..fires - 1 {
            rt.fire(id, &format!("t{i}")).expect("pipeline order");
        }
        let before = rt.replayed_steps();
        let t0 = Instant::now();
        for _ in 0..probes {
            assert_eq!(rt.eligible(id).expect("live instance").len(), 1);
        }
        let wall = t0.elapsed();
        records.push(Record {
            name: format!("eligible_tail/pipeline_{fires}x{probes}"),
            instances: 1,
            total_fires: probes,
            wall_ns: wall.as_nanos(),
            fires_per_sec: (probes as f64 / wall.as_secs_f64()) as u64,
            replayed_steps: rt.replayed_steps() - before,
        });
    }

    // A fleet of instances sharing one deployment (one Arc'd program).
    {
        let fleet = if smoke { 10 } else { 200 };
        let goal = gen::layered_workflow(16, 2);
        let compiled = compile(&goal, &stage_orders(15)).expect("consistent");
        let program = Program::compile(&compiled.goal).expect("knot-free");
        let trace: Vec<String> = Scheduler::new(&program)
            .run_first()
            .expect("knot-free")
            .iter()
            .filter_map(ctr::term::Atom::as_event)
            .map(|s| s.as_str().to_owned())
            .collect();
        let mut rt = Runtime::new();
        rt.deploy_compiled("layered", compiled.goal.clone())
            .expect("compiles");
        let ids: Vec<_> = (0..fleet)
            .map(|_| rt.start("layered").expect("deployed"))
            .collect();
        let t0 = Instant::now();
        for &id in &ids {
            for e in &trace {
                rt.fire(id, e).expect("trace replays");
            }
            rt.try_complete(id).expect("live instance");
        }
        let wall = t0.elapsed();
        let fires = fleet * trace.len();
        records.push(Record {
            name: format!("fleet/layered16x2_orders_{fleet}inst"),
            instances: fleet,
            total_fires: fires,
            wall_ns: wall.as_nanos(),
            fires_per_sec: (fires as f64 / wall.as_secs_f64()) as u64,
            replayed_steps: rt.replayed_steps(),
        });
    }

    // Multi-threaded fleets: T client threads fire disjoint instance
    // sets against one shared handle. `fleet_mt/*` uses the sharded
    // runtime (per-instance locks — threads should not contend);
    // `fleet_mt_coarse/*` is the same workload on the retired
    // single-mutex design, recorded as the scaling baseline.
    {
        let fleet = if smoke { 8 } else { 64 };
        let goal = gen::layered_workflow(16, 2);
        let compiled = compile(&goal, &stage_orders(15)).expect("consistent");
        let program = Program::compile(&compiled.goal).expect("knot-free");
        let trace: Vec<String> = Scheduler::new(&program)
            .run_first()
            .expect("knot-free")
            .iter()
            .filter_map(ctr::term::Atom::as_event)
            .map(|s| s.as_str().to_owned())
            .collect();
        let workload = format!("layered16x2_orders_{fleet}inst");

        let threads_list: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 8] };
        for &threads in threads_list {
            for coarse in [false, true] {
                let handle: Box<dyn FleetHandle> = if coarse {
                    let mut rt = Runtime::new();
                    rt.deploy_compiled("layered", compiled.goal.clone())
                        .expect("compiles");
                    Box::new(CoarseRuntime(Mutex::new(rt)))
                } else {
                    let rt = SharedRuntime::new();
                    rt.deploy_compiled("layered", compiled.goal.clone())
                        .expect("compiles");
                    Box::new(rt)
                };
                let family = if coarse {
                    "fleet_mt_coarse"
                } else {
                    "fleet_mt"
                };
                let (wall, fires) = run_fleet_mt(&*handle, fleet, threads, &trace);
                records.push(Record {
                    name: format!("{family}/{workload}x{threads}"),
                    instances: fleet,
                    total_fires: fires,
                    wall_ns: wall.as_nanos(),
                    fires_per_sec: (fires as f64 / wall.as_secs_f64()) as u64,
                    replayed_steps: 0,
                });
            }
        }
    }

    // Engine-level scheduler hot paths, measured without any runtime
    // wrapper: cached-frontier `eligible()` probes, indexed `fire_event`
    // dispatch, and O(1) `is_deadlocked()` — the operations the
    // incremental frontier makes walk-free.
    {
        let fires = if smoke { 200 } else { 10_000 };
        let probes = if smoke { 10_000 } else { 1_000_000 };

        // Pure fire_event dispatch down a long pipeline: one hash lookup
        // and a path-local delta per fire, no frontier walk.
        let program = Program::compile(&gen::pipeline_workflow(fires)).expect("compiles");
        let events: Vec<ctr::Symbol> = (0..fires).map(|i| sym(&format!("t{i}"))).collect();
        let mut s = Scheduler::new(&program);
        let t0 = Instant::now();
        for &e in &events {
            assert!(s.fire_event(e), "pipeline order");
        }
        let wall = t0.elapsed();
        records.push(Record {
            name: format!("sched_hot/fire_event/pipeline_{fires}"),
            instances: 1,
            total_fires: fires,
            wall_ns: wall.as_nanos(),
            fires_per_sec: (fires as f64 / wall.as_secs_f64()) as u64,
            replayed_steps: 0,
        });

        // eligible()/is_deadlocked() probes on a mid-flight layered
        // schedule (non-trivial frontier, several live branches).
        let goal = gen::layered_workflow(16, 2);
        let compiled = compile(&goal, &stage_orders(15)).expect("consistent");
        let program = Program::compile(&compiled.goal).expect("knot-free");
        let steps = Scheduler::new(&program)
            .run_first()
            .expect("knot-free")
            .len();
        let mut s = Scheduler::new(&program);
        for _ in 0..steps / 2 {
            let pick = s.eligible()[0];
            s.fire(pick.node);
        }
        // black_box the scheduler each round: both probes are O(1) field
        // reads, and without it LLVM hoists them out of the loop entirely
        // (the run then reports a meaningless ~10^13 probes/sec).
        let t0 = Instant::now();
        let mut seen = 0usize;
        for _ in 0..probes {
            seen += std::hint::black_box(&s).eligible().len();
        }
        let wall = t0.elapsed();
        assert!(seen >= probes, "mid-flight frontier is non-empty");
        records.push(Record {
            name: format!("sched_hot/eligible/layered16x2_midx{probes}"),
            instances: 1,
            total_fires: probes,
            wall_ns: wall.as_nanos(),
            fires_per_sec: (probes as f64 / wall.as_secs_f64()) as u64,
            replayed_steps: 0,
        });
        let t0 = Instant::now();
        let mut dead = 0usize;
        for _ in 0..probes {
            dead += std::hint::black_box(&s).is_deadlocked() as usize;
        }
        let wall = t0.elapsed();
        assert_eq!(dead, 0, "mid-flight schedule is live");
        records.push(Record {
            name: format!("sched_hot/deadlock_probe/layered16x2_midx{probes}"),
            instances: 1,
            total_fires: probes,
            wall_ns: wall.as_nanos(),
            fires_per_sec: (probes as f64 / wall.as_secs_f64()) as u64,
            replayed_steps: 0,
        });
    }

    // Batched firing through the runtimes: whole chunks commit under one
    // instance resolution (and, for `fire_many`, one shard-lock pass).
    {
        use ctr_runtime::FireOutcome;

        // Single-instance chunks through Runtime::fire_batch.
        let fires = if smoke { 200 } else { 10_000 };
        let chunk = if smoke { 16 } else { 64 };
        let mut rt = Runtime::new();
        rt.deploy_compiled("pipe", gen::pipeline_workflow(fires))
            .expect("pipeline compiles");
        let id = rt.start("pipe").expect("deployed");
        let events: Vec<String> = (0..fires).map(|i| format!("t{i}")).collect();
        let t0 = Instant::now();
        for c in events.chunks(chunk) {
            for outcome in rt.fire_batch(id, c).expect("live instance") {
                assert!(matches!(outcome, FireOutcome::Fired(_)), "pipeline order");
            }
        }
        let wall = t0.elapsed();
        records.push(Record {
            name: format!("batch/pipeline_{fires}x{chunk}"),
            instances: 1,
            total_fires: fires,
            wall_ns: wall.as_nanos(),
            fires_per_sec: (fires as f64 / wall.as_secs_f64()) as u64,
            replayed_steps: rt.replayed_steps(),
        });

        // Cross-instance mixed chunks through SharedRuntime::fire_many:
        // the fleet advances in lockstep, each chunk grouped by shard.
        let fleet = if smoke { 8 } else { 64 };
        let goal = gen::layered_workflow(16, 2);
        let compiled = compile(&goal, &stage_orders(15)).expect("consistent");
        let program = Program::compile(&compiled.goal).expect("knot-free");
        let trace: Vec<String> = Scheduler::new(&program)
            .run_first()
            .expect("knot-free")
            .iter()
            .filter_map(ctr::term::Atom::as_event)
            .map(|s| s.as_str().to_owned())
            .collect();
        let rt = SharedRuntime::new();
        rt.deploy_compiled("layered", compiled.goal.clone())
            .expect("compiles");
        let ids: Vec<InstanceId> = (0..fleet)
            .map(|_| rt.start("layered").expect("deployed"))
            .collect();
        let pairs: Vec<(InstanceId, &str)> = trace
            .iter()
            .flat_map(|e| ids.iter().map(move |&id| (id, e.as_str())))
            .collect();
        let t0 = Instant::now();
        for c in pairs.chunks(chunk) {
            for outcome in rt.fire_many(c) {
                assert!(matches!(outcome, FireOutcome::Fired(_)), "trace replays");
            }
        }
        for &id in &ids {
            rt.try_complete(id).expect("live instance");
        }
        let wall = t0.elapsed();
        records.push(Record {
            name: format!("batch/fleet_layered16x2_orders_{fleet}instx{chunk}"),
            instances: fleet,
            total_fires: pairs.len(),
            wall_ns: wall.as_nanos(),
            fires_per_sec: (pairs.len() as f64 / wall.as_secs_f64()) as u64,
            replayed_steps: 0,
        });
    }

    // Enactment overhead: the fault-tolerant dispatcher driving a
    // pipeline of instant activities, clean vs under an injected fault
    // plan (every 8th activity fails twice and is retried under a
    // 3-attempt budget). `total_fires` counts attempts — the work the
    // dispatcher actually performed — and `replayed_steps` counts the
    // retry attempts, so the two records separate scheduling overhead
    // from recovery overhead.
    {
        use ctr_runtime::{Enactor, FaultPlan, RetryPolicy};
        let activities = if smoke { 32 } else { 256 };
        let mut rt = Runtime::new();
        rt.deploy_compiled("pipe", gen::pipeline_workflow(activities))
            .expect("pipeline compiles");

        let mut run = |name: String, enactor: &Enactor| {
            let t0 = Instant::now();
            let report = rt.enact("pipe", enactor).expect("deployed");
            let wall = t0.elapsed();
            assert!(report.is_success(), "bench plan is recoverable");
            assert_eq!(report.completed.len(), activities);
            let attempts = report.attempts.len();
            records.push(Record {
                name,
                instances: 1,
                total_fires: attempts,
                wall_ns: wall.as_nanos(),
                fires_per_sec: (attempts as f64 / wall.as_secs_f64()) as u64,
                replayed_steps: u64::from(report.total_retries()),
            });
        };

        run(
            format!("enact/pipeline_{activities}_clean"),
            &Enactor::new(),
        );
        let mut plan = FaultPlan::new(0xFA117);
        for i in (0..activities).step_by(8) {
            plan = plan.fail(format!("t{i}").as_str(), 2);
        }
        run(
            format!("enact/pipeline_{activities}_faults"),
            &Enactor::new()
                .with_default_retry(RetryPolicy::attempts(3))
                .with_faults(plan),
        );
    }

    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "  {{\"name\": \"{}\", \"instances\": {}, \"total_fires\": {}, \
                 \"wall_ns\": {}, \"fires_per_sec\": {}, \"replayed_steps\": {}}}",
                r.name, r.instances, r.total_fires, r.wall_ns, r.fires_per_sec, r.replayed_steps
            )
        })
        .collect();
    let json = format!("[\n{},\n{}\n]\n", host_row(smoke), rows.join(",\n"));
    std::fs::write("BENCH_exec.json", &json).expect("write BENCH_exec.json");
    eprintln!("wrote BENCH_exec.json ({} workloads)", records.len());
}

/// Machine-readable record of the tabled verification path
/// (`ctr::memo::Analyzer`), written alongside the other `BENCH_*.json`
/// files.
///
/// Two families, each comparing the same queries untabled vs through a
/// warm session — results are asserted identical before timing:
///
/// * `verify_incr/<workload>` — incremental re-verification after a
///   single-constraint edit (remove the last constraint, check
///   consistency, add it back, check again) against from-scratch
///   recompiles of both edit states. The e4 NP-hardness workloads are the
///   ones where the avoided recompile matters most.
/// * `verify_repeat/<workload>` — repeated-query workloads: a batch of
///   properties answered through one session (the compiled `G ∧ C`
///   prefix replays as table hits per property), and
///   `minimize_constraints`, whose probe sets share almost all of their
///   structure across iterations.
fn bench_verify_json(smoke: bool) {
    use ctr::memo::Analyzer;

    struct Record {
        name: String,
        goal_size: usize,
        constraint_count: usize,
        queries: usize,
        scratch_ns: u128,
        tabled_ns: u128,
        speedup: f64,
        hits: u64,
        misses: u64,
    }
    let mut records = Vec::new();
    let reps = if smoke { 3 } else { 10 };
    let push = |records: &mut Vec<Record>,
                name: String,
                goal: &Goal,
                constraints: &[Constraint],
                queries: usize,
                scratch: std::time::Duration,
                tabled: std::time::Duration,
                stats: ctr::memo::MemoStats| {
        records.push(Record {
            name,
            goal_size: goal.size(),
            constraint_count: constraints.len(),
            queries,
            scratch_ns: scratch.as_nanos(),
            tabled_ns: tabled.as_nanos(),
            speedup: scratch.as_nanos() as f64 / tabled.as_nanos().max(1) as f64,
            hits: stats.hits,
            misses: stats.misses,
        });
    };

    // --- verify_incr: one-constraint edit, warm session vs recompile.
    let mut incr = |name: String, goal: &Goal, constraints: &[Constraint]| {
        assert!(!constraints.is_empty(), "need a constraint to edit");
        let head = &constraints[..constraints.len() - 1];

        // The tabled path must be bit-identical on both edit states.
        let mut check = Analyzer::new(goal, constraints).expect("unique-event");
        assert_eq!(
            check.compiled().goal,
            compile(goal, constraints).unwrap().goal
        );
        check.remove_constraint(constraints.len() - 1);
        assert_eq!(check.compiled().goal, compile(goal, head).unwrap().goal);

        let t_scratch = time_mean(reps, || {
            let without = compile(goal, head).unwrap().is_consistent();
            let with = compile(goal, constraints).unwrap().is_consistent();
            (without, with)
        });

        let mut an = Analyzer::new(goal, constraints).expect("unique-event");
        // Warm the tables on both edit states once, then measure the
        // steady-state edit loop.
        an.compiled();
        let last = an.remove_constraint(constraints.len() - 1);
        an.compiled();
        an.add_constraint(last);
        an.reset_counters();
        let t_tabled = time_mean(reps, || {
            let removed = an.remove_constraint(an.constraints().len() - 1);
            let without = an.is_consistent();
            an.add_constraint(removed);
            let with = an.is_consistent();
            (without, with)
        });
        let stats = an.stats();
        push(
            &mut records,
            name,
            goal,
            constraints,
            2 * reps,
            t_scratch,
            t_tabled,
            stats,
        );
    };

    let sat_vars: &[usize] = if smoke { &[4] } else { &[6, 10] };
    for &vars in sat_vars {
        let inst = gen::random_3sat(7, vars, (vars as f64 * 4.3) as usize);
        let (goal, constraints) = gen::sat_to_workflow(&inst);
        incr(format!("verify_incr/sat{vars}"), &goal, &constraints);
    }
    let order_ns: &[usize] = if smoke { &[8] } else { &[16, 64] };
    for &n in order_ns {
        let goal = gen::pipeline_workflow(2 * n + 2);
        let constraints = gen::order_chain(n);
        incr(format!("verify_incr/orders{n}"), &goal, &constraints);
    }

    // --- verify_repeat: property batches through one session.
    {
        let widths: &[usize] = if smoke { &[4] } else { &[8, 12] };
        for &w in widths {
            let goal = gen::parallel_workflow(w);
            let constraints = vec![Constraint::order("t0", "t1"), Constraint::order("t1", "t2")];
            let properties: Vec<Constraint> = (0..w - 1)
                .map(|i| {
                    Constraint::klein_order(
                        format!("t{i}").as_str(),
                        format!("t{}", i + 1).as_str(),
                    )
                })
                .collect();

            let one_shot: Vec<_> = properties
                .iter()
                .map(|p| ctr::analysis::verify(&goal, &constraints, p).unwrap())
                .collect();
            let mut check = Analyzer::new(&goal, &constraints).expect("unique-event");
            assert_eq!(
                check.verify_all(&properties),
                one_shot,
                "verdicts identical"
            );

            let t_scratch = time_mean(reps, || {
                properties
                    .iter()
                    .map(|p| {
                        ctr::analysis::verify(&goal, &constraints, p)
                            .unwrap()
                            .holds()
                    })
                    .collect::<Vec<bool>>()
            });
            let mut an = Analyzer::new(&goal, &constraints).expect("unique-event");
            an.verify_all(&properties); // warm
            an.reset_counters();
            let t_tabled = time_mean(reps, || an.verify_all(&properties));
            let stats = an.stats();
            push(
                &mut records,
                format!("verify_repeat/multiprop_parallel{w}"),
                &goal,
                &constraints,
                properties.len() * reps,
                t_scratch,
                t_tabled,
                stats,
            );
        }
    }
    {
        let order_ns: &[usize] = if smoke { &[6] } else { &[16, 32] };
        for &n in order_ns {
            let goal = gen::pipeline_workflow(2 * n + 2);
            let constraints = gen::order_chain(n);

            let one_shot = ctr::analysis::minimize_constraints(&goal, &constraints).unwrap();
            let mut check = Analyzer::new(&goal, &constraints).expect("unique-event");
            assert_eq!(
                check.minimize_constraints(),
                one_shot,
                "kept sets identical"
            );

            let t_scratch = time_mean(reps, || {
                ctr::analysis::minimize_constraints(&goal, &constraints).unwrap()
            });
            let mut an = Analyzer::new(&goal, &constraints).expect("unique-event");
            an.minimize_constraints(); // warm
            an.reset_counters();
            let t_tabled = time_mean(reps, || an.minimize_constraints());
            let stats = an.stats();
            push(
                &mut records,
                format!("verify_repeat/minimize_orders{n}"),
                &goal,
                &constraints,
                constraints.len() * reps,
                t_scratch,
                t_tabled,
                stats,
            );
        }
    }

    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "  {{\"name\": \"{}\", \"goal_size\": {}, \"constraint_count\": {}, \
                 \"queries\": {}, \"scratch_ns\": {}, \"tabled_ns\": {}, \
                 \"speedup\": {:.2}, \"hits\": {}, \"misses\": {}}}",
                r.name,
                r.goal_size,
                r.constraint_count,
                r.queries,
                r.scratch_ns,
                r.tabled_ns,
                r.speedup,
                r.hits,
                r.misses
            )
        })
        .collect();
    let json = format!("[\n{},\n{}\n]\n", host_row(smoke), rows.join(",\n"));
    std::fs::write("BENCH_verify.json", &json).expect("write BENCH_verify.json");
    eprintln!("wrote BENCH_verify.json ({} workloads)", records.len());
}

/// Machine-readable record of the durability cost spectrum.
///
/// Single-threaded rows, the same instance-driving loop over three
/// store configurations: `durability/mem` (in-memory journal, the
/// ceiling), `durability/wal` (write-ahead log, one fsync per fired
/// event), and `durability/wal_group` (whole trace per `fire_batch`,
/// i.e. batch-level group commit: one fsync per instance).
///
/// Multi-threaded rows, `durability_mt/{strict,coalesced}xT`: T client
/// threads fire per-event appends into a *one-stripe* WAL through a
/// `SharedRuntime` — one stripe on purpose, so every append contends on
/// the same commit pipeline and the rows measure cross-thread commit
/// coalescing itself, not stripe spreading. Under `strict` the threads
/// serialize behind each other's fsyncs (throughput stays flat as T
/// grows); under `coalesced` concurrent appends share one fsync, so
/// `fires_per_sec` scales with T while `fsyncs_per_fire` falls.
/// `commit_p50_us`/`commit_p99_us` are client-observed per-fire commit
/// latencies (single-threaded rows report the store's own fsync
/// histogram percentiles instead).
fn bench_store_json(smoke: bool) {
    use ctr_runtime::{Durability, MemStore, Store, WalOptions, WalStore};
    use std::sync::Arc;

    const EVENTS: usize = 16;
    let trace: Vec<String> = (0..EVENTS).map(|i| format!("e{i}")).collect();
    let source = format!("workflow chain {{ graph {}; }}", trace.join(" * "));
    let instances = if smoke { 16 } else { 128 };

    struct Record {
        name: String,
        instances: usize,
        threads: usize,
        events: u64,
        elapsed_ns: u128,
        appends: u64,
        fsyncs: u64,
        rotation_syncs: u64,
        commit_p50_us: u64,
        commit_p99_us: u64,
    }
    let mut records: Vec<Record> = Vec::new();

    let mut measure = |name: &str, store: Arc<dyn Store>, grouped: bool| {
        let mut rt = Runtime::with_store(store);
        rt.deploy_source(&source).expect("deploy chain");
        let t0 = Instant::now();
        for _ in 0..instances {
            let id = rt.start("chain").expect("start");
            if grouped {
                rt.fire_batch(id, &trace).expect("fire_batch");
            } else {
                for event in &trace {
                    rt.fire(id, event).expect("fire");
                }
            }
            rt.try_complete(id).expect("complete");
        }
        let elapsed_ns = t0.elapsed().as_nanos();
        let stats = rt.store_stats().expect("store attached");
        records.push(Record {
            name: name.to_owned(),
            instances,
            threads: 1,
            events: stats.events,
            elapsed_ns,
            appends: stats.appends,
            fsyncs: stats.fsyncs,
            rotation_syncs: stats.rotation_syncs,
            commit_p50_us: stats.fsync_p50_micros(),
            commit_p99_us: stats.fsync_p99_micros(),
        });
    };

    measure("durability/mem", Arc::new(MemStore::new()), false);
    let wal_dir = std::env::temp_dir().join(format!("ctr_bench_wal_{}", std::process::id()));
    for (name, grouped) in [("durability/wal", false), ("durability/wal_group", true)] {
        std::fs::remove_dir_all(&wal_dir).ok();
        measure(
            name,
            Arc::new(WalStore::open(&wal_dir).expect("open wal")),
            grouped,
        );
    }

    // Cross-thread group commit, measured on one stripe so every append
    // rides the same commit pipeline.
    let per_thread = if smoke { 2 } else { 16 };
    let warmup = if smoke { 1 } else { 2 };
    let mt_threads: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };

    /// Drives every instance of `ids[t]` through `trace` on thread `t`
    /// (one append per fire), returning each fire's client-observed
    /// commit latency in microseconds.
    fn drive_mt(rt: &SharedRuntime, ids: &[Vec<InstanceId>], trace: &[String]) -> Vec<u64> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = ids
                .iter()
                .map(|mine| {
                    scope.spawn(move || {
                        let mut lat = Vec::with_capacity(mine.len() * trace.len());
                        for &id in mine {
                            for event in trace {
                                let f0 = Instant::now();
                                rt.fire(id, event).expect("fire");
                                lat.push(f0.elapsed().as_micros() as u64);
                            }
                            rt.try_complete(id).expect("complete");
                        }
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        })
    }

    for (mode, durability) in [
        ("strict", Durability::Strict),
        ("coalesced", Durability::coalesced()),
    ] {
        for &threads in mt_threads {
            std::fs::remove_dir_all(&wal_dir).ok();
            let options = WalOptions {
                shards: 1,
                durability,
                ..WalOptions::default()
            };
            let store = Arc::new(WalStore::open_with(&wal_dir, options).expect("open wal"));
            let rt = SharedRuntime::with_store(store);
            rt.deploy_source(&source).expect("deploy chain");
            let start_fleet = |count: usize| -> Vec<Vec<InstanceId>> {
                (0..threads)
                    .map(|_| {
                        (0..count)
                            .map(|_| rt.start("chain").expect("start"))
                            .collect()
                    })
                    .collect()
            };
            // Warm the page cache, the segment files, and the
            // pipeline's concurrency estimate before the timer starts.
            let warm_ids = start_fleet(warmup);
            drive_mt(&rt, &warm_ids, &trace);
            let ids = start_fleet(per_thread);
            let before = rt.store_stats().expect("store attached");
            let t0 = Instant::now();
            let mut latencies = drive_mt(&rt, &ids, &trace);
            let elapsed_ns = t0.elapsed().as_nanos();
            let after = rt.store_stats().expect("store attached");
            latencies.sort_unstable();
            let pct = |p: usize| latencies[(latencies.len() * p / 100).min(latencies.len() - 1)];
            records.push(Record {
                name: format!("durability_mt/{mode}x{threads}"),
                instances: threads * per_thread,
                threads,
                events: after.events - before.events,
                elapsed_ns,
                appends: after.appends - before.appends,
                fsyncs: after.fsyncs - before.fsyncs,
                rotation_syncs: after.rotation_syncs,
                commit_p50_us: pct(50),
                commit_p99_us: pct(99),
            });
        }
    }
    std::fs::remove_dir_all(&wal_dir).ok();

    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            let secs = (r.elapsed_ns as f64 / 1e9).max(1e-9);
            format!(
                "  {{\"name\": \"{}\", \"instances\": {}, \"threads\": {}, \
                 \"events\": {}, \"elapsed_ns\": {}, \"appends\": {}, \"fsyncs\": {}, \
                 \"rotation_syncs\": {}, \"fires_per_sec\": {:.0}, \
                 \"fsyncs_per_fire\": {:.4}, \"commit_p50_us\": {}, \"commit_p99_us\": {}}}",
                r.name,
                r.instances,
                r.threads,
                r.events,
                r.elapsed_ns,
                r.appends,
                r.fsyncs,
                r.rotation_syncs,
                r.events as f64 / secs,
                r.fsyncs as f64 / r.events.max(1) as f64,
                r.commit_p50_us,
                r.commit_p99_us
            )
        })
        .collect();
    let json = format!("[\n{},\n{}\n]\n", host_row(smoke), rows.join(",\n"));
    std::fs::write("BENCH_store.json", &json).expect("write BENCH_store.json");
    eprintln!("wrote BENCH_store.json ({} workloads)", records.len());
}

/// The method surface the fleet benchmark drives, implemented by both the
/// sharded runtime and the coarse-lock baseline so one driver measures
/// both.
trait FleetHandle: Sync {
    fn start(&self, workflow: &str) -> Result<InstanceId, RuntimeError>;
    fn fire(&self, id: InstanceId, event: &str) -> Result<InstanceStatus, RuntimeError>;
    fn try_complete(&self, id: InstanceId) -> Result<InstanceStatus, RuntimeError>;
    fn journal(&self, id: InstanceId) -> Result<Vec<String>, RuntimeError>;
}

impl FleetHandle for SharedRuntime {
    fn start(&self, workflow: &str) -> Result<InstanceId, RuntimeError> {
        SharedRuntime::start(self, workflow)
    }
    fn fire(&self, id: InstanceId, event: &str) -> Result<InstanceStatus, RuntimeError> {
        SharedRuntime::fire(self, id, event)
    }
    fn try_complete(&self, id: InstanceId) -> Result<InstanceStatus, RuntimeError> {
        SharedRuntime::try_complete(self, id)
    }
    fn journal(&self, id: InstanceId) -> Result<Vec<String>, RuntimeError> {
        SharedRuntime::journal(self, id)
    }
}

/// The retired coarse-lock design: one `Mutex` around the whole
/// [`Runtime`], so every client serializes even across independent
/// instances. The measured baseline of the `fleet_mt_coarse/*` records
/// in `BENCH_exec.json` — the sharded [`SharedRuntime`] must beat it on
/// multi-threaded fleets, and the margin is pinned there per commit.
struct CoarseRuntime(Mutex<Runtime>);

impl CoarseRuntime {
    fn lock(&self) -> MutexGuard<'_, Runtime> {
        self.0.lock().expect("no client panics under the lock")
    }
}

impl FleetHandle for CoarseRuntime {
    fn start(&self, workflow: &str) -> Result<InstanceId, RuntimeError> {
        self.lock().start(workflow)
    }
    fn fire(&self, id: InstanceId, event: &str) -> Result<InstanceStatus, RuntimeError> {
        self.lock().fire(id, event)
    }
    fn try_complete(&self, id: InstanceId) -> Result<InstanceStatus, RuntimeError> {
        self.lock().try_complete(id)
    }
    fn journal(&self, id: InstanceId) -> Result<Vec<String>, RuntimeError> {
        self.lock().journal(id)
    }
}

/// Starts `fleet` instances, splits them over `threads` client threads,
/// and drives each through `trace`. Returns (wall time, total fires).
/// Every journal is checked against the single-threaded trace afterwards:
/// concurrency must not change per-instance executions.
fn run_fleet_mt(
    rt: &dyn FleetHandle,
    fleet: usize,
    threads: usize,
    trace: &[String],
) -> (std::time::Duration, usize) {
    let ids: Vec<InstanceId> = (0..fleet)
        .map(|_| rt.start("layered").expect("deployed"))
        .collect();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for chunk in ids.chunks(fleet.div_ceil(threads)) {
            scope.spawn(move || {
                for &id in chunk {
                    for e in trace {
                        rt.fire(id, e).expect("trace replays");
                    }
                    rt.try_complete(id).expect("live instance");
                }
            });
        }
    });
    let wall = t0.elapsed();
    for &id in &ids {
        assert_eq!(
            rt.journal(id).expect("live instance"),
            trace,
            "per-instance journal identical to single-threaded execution"
        );
    }
    (wall, fleet * trace.len())
}

fn x2_automata() {
    println!("## X2 — §6: the automata-product baseline is exponential in the constraint count\n");
    let mut table = Table::new(&["N constraints", "product states", "vs compiled |Apply|"]);
    let mut pts = Vec::new();
    for n in [1usize, 2, 3, 4, 5, 6] {
        let constraints: Vec<Constraint> = (0..n)
            .map(|i| Constraint::order(sym(&format!("p{i}")), sym(&format!("q{i}"))))
            .collect();
        let product = ProductScheduler::new(&constraints);
        let states = product.product_state_count(5_000_000);
        // The same dependencies compiled into a matching workflow stay
        // linear (d = 1).
        let goal = ctr::goal::conc(
            (0..n)
                .flat_map(|i| [Goal::atom(format!("p{i}")), Goal::atom(format!("q{i}"))])
                .collect(),
        );
        let compiled = compile(&goal, &constraints).unwrap();
        pts.push((n as f64, states as f64));
        table.row(vec![
            n.to_string(),
            states.to_string(),
            compiled.applied_size.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nProduct growth per constraint: {:.2}× (exponential); compiled form stays linear.\n",
        log_growth_factor(&pts)
    );
}
