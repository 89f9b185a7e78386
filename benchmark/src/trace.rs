//! Spans recorded from outside the program, around calls into it.
//!
//! The traced run wraps each call into a public function of a layer in
//! a span `(layer, op id, parent, start, end)` and keeps counts at the
//! same boundary. A layer's **self time** is its span minus the part
//! its child spans cover. Spans stay in memory; [`Tracer::to_json`]
//! renders them when the run ends. End-to-end metrics never come from a
//! traced run: a switched-off [`Tracer`] costs one predictable branch
//! per span.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Raw spans kept per tracer for the trace file; aggregates cover every
/// span regardless.
const RAW_SPAN_CAP: usize = 20_000;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer called into (`core.apply`, `store.wal`, …) or the
    /// workload's `op` root.
    pub layer: &'static str,
    /// The operation this span belongs to; spans of one op share it.
    pub op: u32,
    /// Index of the enclosing span in the raw list, if it was kept.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Totals of one layer over a traced run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub spans: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus time covered by child spans.
    pub self_ns: u64,
}

struct Frame {
    layer: &'static str,
    start_ns: u64,
    children_ns: u64,
    raw_index: Option<u32>,
}

/// A per-thread span recorder. Threads each own one and the harness
/// [`merge`](Tracer::merge)s them after joining.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Frame>,
    layers: BTreeMap<&'static str, LayerTotals>,
    counts: BTreeMap<&'static str, u64>,
    raw: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing (the untraced run).
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    /// A recording tracer; every tracer of one run shares `epoch`.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer::new(true, epoch)
    }

    fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            stack: Vec::new(),
            layers: BTreeMap::new(),
            counts: BTreeMap::new(),
            raw: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A tracer of the same kind (on/off, same epoch) for another
    /// thread.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Runs `f` inside a span of `layer` belonging to operation `op`.
    #[inline]
    pub fn span<T>(&mut self, layer: &'static str, op: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.enter_at(layer, op, start);
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.exit_at(end);
        out
    }

    /// Adds `n` to a named count (work done at a boundary: bytes
    /// parsed, nodes produced, frames sent). No-op when off.
    #[inline]
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Opens a span at an explicit timestamp ([`Tracer::span`] and the
    /// unit tests drive this).
    pub fn enter_at(&mut self, layer: &'static str, op: u32, start_ns: u64) {
        let raw_index = if self.raw.len() < RAW_SPAN_CAP {
            let parent = self.stack.last().and_then(|frame| frame.raw_index);
            self.raw.push(Span {
                layer,
                op,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            Some((self.raw.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Frame {
            layer,
            start_ns,
            children_ns: 0,
            raw_index,
        });
    }

    /// Closes the innermost open span at an explicit timestamp.
    pub fn exit_at(&mut self, end_ns: u64) {
        let frame = self
            .stack
            .pop()
            .expect("exit_at without a matching enter_at");
        let duration = end_ns.saturating_sub(frame.start_ns);
        let totals = self.layers.entry(frame.layer).or_default();
        totals.spans += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(frame.children_ns);
        if let Some(index) = frame.raw_index {
            self.raw[index as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += duration;
        }
    }

    /// Folds another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "merging a tracer with open spans");
        for (layer, totals) in other.layers {
            let mine = self.layers.entry(layer).or_default();
            mine.spans += totals.spans;
            mine.total_ns += totals.total_ns;
            mine.self_ns += totals.self_ns;
        }
        for (name, n) in other.counts {
            *self.counts.entry(name).or_insert(0) += n;
        }
        self.dropped += other.dropped;
        let offset = self.raw.len() as u32;
        for mut span in other.raw {
            if self.raw.len() >= RAW_SPAN_CAP {
                self.dropped += 1;
                continue;
            }
            span.parent = span.parent.map(|p| p + offset);
            self.raw.push(span);
        }
    }

    /// Per-layer totals so far.
    pub fn layers(&self) -> &BTreeMap<&'static str, LayerTotals> {
        &self.layers
    }

    /// Totals of one layer (zeros if it recorded no span).
    pub fn layer(&self, layer: &str) -> LayerTotals {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// A named count (0 if never bumped).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Self time of every layer summed.
    pub fn total_self_ns(&self) -> u64 {
        self.layers.values().map(|t| t.self_ns).sum()
    }

    /// The share of all traced self time spent in layers whose name
    /// starts with one of `prefixes`.
    pub fn self_share(&self, prefixes: &[&str]) -> f64 {
        let total = self.total_self_ns();
        if total == 0 {
            return 0.0;
        }
        let matching: u64 = self
            .layers
            .iter()
            .filter(|(layer, _)| prefixes.iter().any(|p| layer.starts_with(p)))
            .map(|(_, t)| t.self_ns)
            .sum();
        matching as f64 / total as f64
    }

    /// The trace file: per-layer totals with self shares, counts, and
    /// the first [`RAW_SPAN_CAP`] raw spans.
    pub fn to_json(&self, workload: &str) -> Value {
        let total_self = self.total_self_ns().max(1) as f64;
        let layers: Vec<Value> = self
            .layers
            .iter()
            .map(|(layer, t)| {
                Value::obj()
                    .with("layer", *layer)
                    .with("spans", t.spans)
                    .with("total_us", t.total_ns as f64 / 1e3)
                    .with("self_us", t.self_ns as f64 / 1e3)
                    .with("self_share", t.self_ns as f64 / total_self)
            })
            .collect();
        let counts = Value::Obj(
            self.counts
                .iter()
                .map(|(name, n)| ((*name).to_owned(), Value::from(*n)))
                .collect(),
        );
        let spans: Vec<Value> = self
            .raw
            .iter()
            .map(|s| {
                Value::obj()
                    .with("layer", s.layer)
                    .with("workload", workload)
                    .with("op", u64::from(s.op))
                    .with(
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(u64::from(p))),
                    )
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
            })
            .collect();
        Value::obj()
            .with("workload", workload)
            .with("layers", layers)
            .with("counts", counts)
            .with("spans_kept", self.raw.len())
            .with("spans_dropped", self.dropped)
            .with("spans", spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::on(Instant::now());
        // op [0, 100) ⊃ apply [10, 60) ⊃ normalize [20, 30); op ⊃ excise [60, 90).
        t.enter_at("op", 1, 0);
        t.enter_at("core.apply", 1, 10);
        t.enter_at("core.constraints", 1, 20);
        t.exit_at(30);
        t.exit_at(60);
        t.enter_at("core.excise", 1, 60);
        t.exit_at(90);
        t.exit_at(100);
        assert_eq!(t.layer("op").total_ns, 100);
        assert_eq!(t.layer("op").self_ns, 20);
        assert_eq!(t.layer("core.apply").total_ns, 50);
        assert_eq!(t.layer("core.apply").self_ns, 40);
        assert_eq!(t.layer("core.constraints").self_ns, 10);
        assert_eq!(t.layer("core.excise").self_ns, 30);
        assert_eq!(t.total_self_ns(), 100);
        assert!((t.self_share(&["core."]) - 0.8).abs() < 1e-12);
        // Raw spans carry the causal parent.
        let json = t.to_json("w");
        let spans = json.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].get("parent").and_then(Value::as_f64), Some(1.0));
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
    }

    #[test]
    fn repeated_spans_accumulate_and_merge() {
        let epoch = Instant::now();
        let mut a = Tracer::on(epoch);
        let mut b = a.sibling();
        for (t, base) in [(&mut a, 0u64), (&mut b, 1000)] {
            t.enter_at("op", 0, base);
            t.enter_at("runtime.shared", 0, base + 5);
            t.exit_at(base + 25);
            t.exit_at(base + 30);
            t.count("fires", 3);
        }
        a.merge(b);
        assert_eq!(a.layer("runtime.shared").spans, 2);
        assert_eq!(a.layer("runtime.shared").self_ns, 40);
        assert_eq!(a.layer("op").self_ns, 20);
        assert_eq!(a.counted("fires"), 6);
        assert_eq!(a.layer("never").spans, 0);
    }

    #[test]
    fn an_off_tracer_records_nothing_and_still_runs_the_closure() {
        let mut t = Tracer::off();
        let out = t.span("op", 0, |t| t.span("core.apply", 0, |_| 7));
        t.count("x", 1);
        assert_eq!(out, 7);
        assert!(t.layers().is_empty());
        assert_eq!(t.counted("x"), 0);
    }

    #[test]
    fn raw_spans_are_capped_but_totals_are_not() {
        let mut t = Tracer::on(Instant::now());
        for i in 0..(RAW_SPAN_CAP as u64 + 10) {
            t.enter_at("op", i as u32, i * 10);
            t.exit_at(i * 10 + 4);
        }
        assert_eq!(t.layer("op").spans, RAW_SPAN_CAP as u64 + 10);
        assert_eq!(t.layer("op").self_ns, (RAW_SPAN_CAP as u64 + 10) * 4);
        let json = t.to_json("w");
        assert_eq!(
            json.get("spans_dropped").and_then(Value::as_f64),
            Some(10.0)
        );
    }
}
