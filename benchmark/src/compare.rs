//! `compare a.json b.json` — the two-set agreement check.
//!
//! For every `(workload, metric)` row both result files carry and that
//! has a bound (the `end_to_end` bounds of `BENCHMARK.json`, plus the
//! built-in bounds of the workload-specific metrics), the verdict is
//!
//! * `unresolved` when either side's inter-quartile spread exceeds the
//!   bound — the run cannot resolve a change that small;
//! * `worse` / `better` when the second file's median differs from the
//!   first's by more than the bound, in the bad / good direction;
//! * `same` otherwise.
//!
//! A gated row the first file has and the second lacks is `unresolved`,
//! or `worse` if it is an exact count. A bound of 0 marks an exact
//! count: any difference is a verdict. The process exits 1 on any
//! `worse` — except on the demoted rows (`report::DEMOTED`), whose
//! verdict is printed with a `*` and does not fail the comparison.

use crate::json::{self, Value};
use crate::report::{Better, Gated, DEMOTED, END_TO_END, GATED_EXTRAS};
use crate::stats::Summary;

/// The outcome of one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Improved by more than the bound.
    Better,
    /// Worsened by more than the bound.
    Worse,
    /// Spread exceeds the bound on either side.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies one metric's bound to a baseline and a candidate.
pub fn verdict(baseline: &Summary, candidate: &Summary, better: Better, bound: f64) -> Verdict {
    if baseline.spread() > bound || candidate.spread() > bound {
        return Verdict::Unresolved;
    }
    if baseline.median == candidate.median {
        return Verdict::Same;
    }
    if baseline.median == 0.0 {
        // No share of zero to measure against: any move is a verdict.
        let grew = candidate.median > 0.0;
        return match (better, grew) {
            (Better::Lower, true) | (Better::Higher, false) => Verdict::Worse,
            _ => Verdict::Better,
        };
    }
    let change = (candidate.median - baseline.median) / baseline.median.abs();
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One row of a result file.
struct Row {
    workload: String,
    metric: String,
    summary: Summary,
}

fn rows(doc: &Value) -> Result<Vec<Row>, String> {
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("result file has no `workloads` array")?;
    let mut out = Vec::new();
    for w in workloads {
        let workload = w
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("workload row without a name")?;
        let metrics = w
            .get("metrics")
            .and_then(Value::as_arr)
            .ok_or("workload row without `metrics`")?;
        for m in metrics {
            let field = |key: &str| m.get(key).and_then(Value::as_f64);
            let (Some(name), Some(n), Some(median), Some(q1), Some(q3)) = (
                m.get("name").and_then(Value::as_str),
                field("n"),
                field("median"),
                field("q1"),
                field("q3"),
            ) else {
                return Err(format!("malformed metric row under `{workload}`"));
            };
            out.push(Row {
                workload: workload.to_owned(),
                metric: name.to_owned(),
                summary: Summary {
                    n: n as usize,
                    q1,
                    median,
                    q3,
                },
            });
        }
    }
    Ok(out)
}

/// The gated metrics: the catalogue `BENCHMARK.json` is rendered from,
/// plus the workload-specific extras.
fn gates() -> impl Iterator<Item = &'static Gated> {
    END_TO_END.iter().chain(&GATED_EXTRAS)
}

/// Compares two result files; returns the report and whether any row is
/// `worse`.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let a = json::parse(a).map_err(|e| format!("first file: {e}"))?;
    let b = json::parse(b).map_err(|e| format!("second file: {e}"))?;
    let (rows_a, rows_b) = (rows(&a)?, rows(&b)?);
    let seed = |doc: &Value| doc.get("seed").and_then(Value::as_f64);
    let mut out = String::new();
    if seed(&a) != seed(&b) {
        let _ = writeln!(
            out,
            "note: seeds differ ({:?} vs {:?}); exact-count rows are not comparable",
            seed(&a),
            seed(&b)
        );
    }
    let mut counts = [0usize; 4];
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "change", "bound"
    );
    for row_a in &rows_a {
        let Some(&Gated { better, bound, .. }) = gates().find(|g| g.name == row_a.metric) else {
            continue;
        };
        let Some(row_b) = rows_b
            .iter()
            .find(|r| r.workload == row_a.workload && r.metric == row_a.metric)
        else {
            // A gated row the candidate does not report cannot be shown
            // to have held: a vanished exact count is a regression, a
            // vanished timing is unresolved.
            let v = if bound == 0.0 {
                Verdict::Worse
            } else {
                Verdict::Unresolved
            };
            counts[v as usize] += 1;
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<16} {:<22} {:>14.6} {:>14} {:>8} {:>6.1}%  {} (missing from the second file)",
                row_a.workload,
                row_a.metric,
                row_a.summary.median,
                "-",
                "-",
                bound * 100.0,
                v.as_str(),
            );
            continue;
        };
        let v = verdict(&row_a.summary, &row_b.summary, better, bound);
        let advisory = DEMOTED.contains(&(row_a.workload.as_str(), row_a.metric.as_str()));
        counts[v as usize] += 1;
        any_worse |= v == Verdict::Worse && !advisory;
        let change = if row_a.summary.median == 0.0 {
            0.0
        } else {
            (row_b.summary.median - row_a.summary.median) / row_a.summary.median.abs()
        };
        let _ = writeln!(
            out,
            "{:<16} {:<22} {:>14.6} {:>14.6} {:>+7.1}% {:>6.1}%  {}{}",
            row_a.workload,
            row_a.metric,
            row_a.summary.median,
            row_b.summary.median,
            change * 100.0,
            bound * 100.0,
            v.as_str(),
            if advisory { "*" } else { "" }
        );
    }
    let _ = writeln!(
        out,
        "same={} better={} worse={} unresolved={}",
        counts[Verdict::Same as usize],
        counts[Verdict::Better as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            n: 9,
            q1,
            median,
            q3,
        }
    }

    #[test]
    fn the_verdict_rule() {
        let base = s(98.0, 100.0, 102.0);
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(&base, &s(103.0, 105.0, 107.0), Better::Lower, 0.1),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &s(110.0, 112.0, 114.0), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &s(84.0, 85.0, 86.0), Better::Lower, 0.1),
            Verdict::Better
        );
        // Higher is better flips the direction.
        assert_eq!(
            verdict(&base, &s(110.0, 112.0, 114.0), Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &s(84.0, 85.0, 86.0), Better::Higher, 0.1),
            Verdict::Worse
        );
        // Spread beyond the bound on either side cannot resolve anything.
        assert_eq!(
            verdict(
                &s(90.0, 100.0, 111.0),
                &s(149.0, 150.0, 151.0),
                Better::Lower,
                0.1
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &s(100.0, 150.0, 180.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Exact counts: bound 0, any difference is a verdict.
        let exact = |v| s(v, v, v);
        assert_eq!(
            verdict(&exact(127.0), &exact(127.0), Better::Lower, 0.0),
            Verdict::Same
        );
        assert_eq!(
            verdict(&exact(127.0), &exact(128.0), Better::Lower, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&exact(127.0), &exact(126.0), Better::Lower, 0.0),
            Verdict::Better
        );
        assert_eq!(
            verdict(&exact(0.0), &exact(0.0), Better::Lower, 0.0),
            Verdict::Same
        );
        assert_eq!(
            verdict(&exact(0.0), &exact(0.01), Better::Lower, 0.0),
            Verdict::Worse
        );
    }

    fn file(ops: f64, nodes: f64) -> String {
        format!(
            r#"{{"host": {{}}, "seed": 1, "workloads": [{{"workload": "compile_scratch", "metrics": [
                {{"name": "ops_per_s", "unit": "1/s", "n": 9, "median": {ops}, "q1": {ops}, "q3": {ops}}},
                {{"name": "output_nodes", "unit": "count", "n": 9, "median": {nodes}, "q1": {nodes}, "q3": {nodes}}},
                {{"name": "core.apply.us", "unit": "us", "n": 9, "median": 5, "q1": 5, "q3": 5}}]}}]}}"#
        )
    }

    #[test]
    fn files_compare_row_by_row_and_ungated_metrics_are_skipped() {
        let (report, worse) = compare(&file(600.0, 35000.0), &file(610.0, 35000.0)).unwrap();
        assert!(!worse, "{report}");
        assert!(
            report.contains("same=2 better=0 worse=0 unresolved=0"),
            "{report}"
        );
        assert!(!report.contains("core.apply.us"));
        let (report, worse) = compare(&file(600.0, 35000.0), &file(300.0, 35001.0)).unwrap();
        assert!(worse);
        assert!(report.contains("worse=2"), "{report}");
        // A demoted row never fails the comparison.
        let bistable = |p99: f64| {
            file(600.0, 1.0).replace("compile_scratch", "serve_durable").replace(
            r#"{"name": "core.apply.us""#,
            &format!(r#"{{"name": "op_p99_us", "unit": "us", "n": 9, "median": {p99}, "q1": {p99}, "q3": {p99}}}, {{"name": "core.apply.us""#),
        )
        };
        let (report, worse) = compare(&bistable(200.0), &bistable(300.0)).unwrap();
        assert!(!worse && report.contains("worse*"), "{report}");
        assert!(compare("{", "{}").is_err());
        assert!(compare("{}", "{}").is_err());
    }

    #[test]
    fn a_gated_row_missing_from_the_candidate_is_never_silently_passed() {
        let base = file(600.0, 35000.0);
        // The candidate stops reporting a timing: nothing was shown.
        let no_timing = base.replace("ops_per_s", "renamed_per_s");
        let (report, worse) = compare(&base, &no_timing).unwrap();
        assert!(!worse, "{report}");
        assert!(
            report.contains("same=1 better=0 worse=0 unresolved=1"),
            "{report}"
        );
        assert!(report.contains("missing from the second file"), "{report}");
        // The candidate stops reporting an exact count: that is a regression.
        let no_count = base.replace("output_nodes", "renamed_nodes");
        let (report, worse) = compare(&base, &no_count).unwrap();
        assert!(worse && report.contains("worse=1"), "{report}");
        // A whole workload gone (e.g. the candidate ran with --workload).
        let other = base.replace("compile_scratch", "fleet_mem");
        let (report, worse) = compare(&base, &other).unwrap();
        assert!(worse && report.contains("worse=1 unresolved=1"), "{report}");
    }
}
