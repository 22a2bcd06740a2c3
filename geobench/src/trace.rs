//! Spans recorded by the benchmark around its own calls into the library.
//!
//! A span has a name, a start, an end and the span that caused it; spans
//! of one request or training step share a group id. Spans are kept in
//! memory and written out once the run ends. Disabled tracing records
//! nothing and costs one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `engine.prepare`.
    pub name: &'static str,
    /// The span this one ran inside, if any.
    pub parent: Option<SpanId>,
    /// Request or step id shared by the spans of one operation.
    pub group: u64,
    /// When the span started.
    pub start: Instant,
    /// When the span ended.
    pub end: Instant,
}

impl Span {
    fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Number of spans.
    pub count: usize,
    /// Summed durations, in ms.
    pub total_ms: f64,
    /// Summed self times (duration minus the part covered by children), in ms.
    pub self_ms: f64,
}

/// A span recorder shared by the benchmark's threads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span whose interval is already known (e.g. a server-side
    /// latency) and returns its id; `None` when disabled.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("no thread panics while tracing");
        spans.push(Span {
            name,
            parent,
            group,
            start,
            end,
        });
        Some(spans.len() - 1)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// that calls it makes can record child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let start = Instant::now();
        let id = self.record(name, parent, group, start, start);
        let out = f(id);
        let end = Instant::now();
        if let Some(id) = id {
            self.spans.lock().expect("no thread panics while tracing")[id].end = end;
        }
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while tracing")
            .clone()
    }

    /// Writes every span, with its self time, as a JSON array.
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let selfs = self_times_ms(&spans);
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = String::from("[\n");
        for (i, (s, self_ms)) in spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"group\": {}, \
                 \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}}}",
                geo_bench::json::quote(s.name),
                s.group,
                us(s.start),
                us(s.end),
                self_ms * 1e3
            );
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

/// Each span's self time: its duration minus the union of its children's
/// intervals, clipped to the span.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(Instant, Instant)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort();
            let mut covered = 0.0;
            let mut cur: Option<(Instant, Instant)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb.duration_since(ca).as_secs_f64() * 1e3;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb.duration_since(ca).as_secs_f64() * 1e3;
            }
            s.ms() - covered
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times_ms(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_ms) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ms += s.ms();
        t.self_ms += self_ms;
    }
    out
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// The closure check: how far the self times of everything below the
/// `root`-named spans fall from those spans' own end-to-end time, as a
/// percentage of it. Nested, non-overlapping layer spans that cover the
/// root give 0; time no layer accounts for, or layers double-counted by
/// overlapping, both raise it.
pub fn closure_gap_pct(spans: &[Span], root: &str) -> Option<f64> {
    let selfs = self_times_ms(spans);
    let mut under_root = vec![false; spans.len()];
    let mut root_ms = 0.0;
    let mut below_ms = 0.0;
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children, so one pass in
        // order marks whole subtrees.
        let parent_in = s.parent.is_some_and(|p| under_root[p]);
        if s.name == root && !parent_in {
            under_root[i] = true;
            root_ms += s.ms();
        } else if parent_in {
            under_root[i] = true;
            below_ms += selfs[i];
        }
    }
    (root_ms > 0.0).then(|| 100.0 * (root_ms - below_ms).abs() / root_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, ms: u64) -> Instant {
        origin + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        let o = Instant::now();
        let root = t.record("root", None, 0, at(o, 0), at(o, 100));
        t.record("a", root, 0, at(o, 10), at(o, 40));
        // Overlaps `a`: the union, not the sum, is covered.
        t.record("b", root, 0, at(o, 30), at(o, 50));
        // Sticks out past the root: only the part inside counts.
        t.record("c", root, 0, at(o, 90), at(o, 120));
        let selfs = self_times_ms(&t.spans());
        assert!((selfs[0] - 50.0).abs() < 1e-9, "{selfs:?}");
        assert!((selfs[1] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn closure_gap_is_unattributed_or_double_counted_time() {
        let t = Tracer::new(true);
        let o = Instant::now();
        let root = t.record("step", None, 1, at(o, 0), at(o, 100));
        let fwd = t.record("fwd", root, 1, at(o, 0), at(o, 60));
        t.record("kernel", fwd, 1, at(o, 10), at(o, 50));
        t.record("bwd", root, 1, at(o, 60), at(o, 95));
        let spans = t.spans();
        let gap = closure_gap_pct(&spans, "step").expect("root present");
        assert!((gap - 5.0).abs() < 1e-9, "5 ms of 100 unattributed: {gap}");
        let totals = layer_totals(&spans);
        assert_eq!(totals["fwd"].count, 1);
        assert!((totals["fwd"].self_ms - 20.0).abs() < 1e-9);
        assert_eq!(closure_gap_pct(&spans, "missing"), None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn span_nests_children_under_its_id() {
        let t = Tracer::new(true);
        t.span("outer", None, 3, |id| {
            t.span("inner", id, 3, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
        assert!(t.to_json().contains("\"name\": \"inner\", \"parent\": 0"));
    }
}
