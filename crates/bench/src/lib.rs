//! # ctr-bench — the paper's claims as printed tables
//!
//! Measurement and table utilities for the `experiments` binary
//! (`cargo run --release -p ctr-bench --bin experiments`), which prints
//! every table of EXPERIMENTS.md, and the deliberately naive rewrite
//! rules of the A1 ablation ([`ablation`]).

pub mod ablation;

use std::time::{Duration, Instant};

/// Times `f` over `iters` runs and returns the mean duration.
pub fn time_mean<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(iters > 0);
    // One warmup.
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed() / iters as u32
}

/// Nanoseconds as a human-readable string.
pub fn fmt_ns(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// A printed markdown table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        assert!(!header.is_empty());
        Table {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
        self
    }

    /// Renders the table as markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let sep: Vec<String> = widths
            .iter()
            .map(|w| format!("{:->w$}", "", w = w))
            .collect();
        out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Least-squares slope of `y` against `x`.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    assert!(n >= 2.0);
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Least-squares growth factor of `y` per unit of `x`, from a log-linear
/// fit. Used to confirm exponential families (`≈ d` for Theorem 5.11).
pub fn log_growth_factor(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(_, y)| *y > 0.0)
        .map(|&(x, y)| (x, y.ln()))
        .collect();
    slope(&pts).exp()
}

/// The exponent `k` in a power-law fit `y = c · x^k` — slope of log-log.
/// ≈1 confirms linear scaling, ≈2 quadratic.
pub fn power_law_exponent(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    slope(&pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["n", "size"]);
        t.row(vec!["1".into(), "10".into()]);
        t.row(vec!["2".into(), "100".into()]);
        let text = t.render();
        assert!(text.starts_with('|'));
        assert!(text.contains("size"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn growth_factor_recovers_base() {
        let pts: Vec<(f64, f64)> = (1..8).map(|i| (f64::from(i), 3f64.powi(i))).collect();
        let factor = log_growth_factor(&pts);
        assert!((factor - 3.0).abs() < 1e-9, "{factor}");
    }

    #[test]
    fn power_law_recovers_exponent() {
        let pts: Vec<(f64, f64)> = (1..10)
            .map(|i| (f64::from(i), f64::from(i * i) * 7.0))
            .collect();
        let k = power_law_exponent(&pts);
        assert!((k - 2.0).abs() < 1e-9, "{k}");
    }

    #[test]
    fn fmt_ns_ranges() {
        assert_eq!(fmt_ns(Duration::from_nanos(500)), "500 ns");
        assert!(fmt_ns(Duration::from_micros(50)).ends_with("µs"));
        assert!(fmt_ns(Duration::from_millis(50)).ends_with("ms"));
        assert!(fmt_ns(Duration::from_secs(50)).ends_with("s"));
    }

    #[test]
    fn time_mean_is_positive() {
        let d = time_mean(3, || (0..1000).sum::<u64>());
        assert!(d.as_nanos() > 0);
    }
}
