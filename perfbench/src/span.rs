//! In-memory span recorder for the traced run.
//!
//! Spans go around the benchmark's own calls into the simulator's
//! public API; nothing inside the program is instrumented. Every call
//! is timed whether or not tracing is on (the end-to-end metrics need
//! the durations), but spans are only kept when it is on. They are
//! written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `frontend.build`.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that made this call.
    pub parent: SpanId,
    /// Benchmark job id shared by every span of one served job.
    pub job: Option<u64>,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the call's wall time. `f` receives the span's id so its own calls
    /// can name it as their parent.
    pub fn time<R>(
        &self,
        name: &str,
        parent: SpanId,
        job: Option<u64>,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let id = if self.on {
            let mut spans = self.spans.lock().expect("span list lock");
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: self.ns(start),
                parent,
                job,
            });
            Some(spans.len() - 1)
        } else {
            None
        };
        let out = f(id);
        let end = Instant::now();
        if let Some(i) = id {
            self.spans.lock().expect("span list lock")[i].end_ns = self.ns(end);
        }
        (out, end - start)
    }

    /// Records a span whose bounds were observed rather than wrapped
    /// around one call (a served job's queue wait, seen by polling).
    pub fn record(
        &self,
        name: &str,
        parent: SpanId,
        job: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let span = Span {
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent,
                job,
            };
            self.spans.lock().expect("span list lock").push(span);
        }
    }

    /// Every span kept so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (children on parallel threads may
/// overlap; their union counts once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(list) = children.get_mut(p) {
                list.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time, in milliseconds, of every span named exactly `name`.
pub fn self_ms(spans: &[Span], selfs: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect()
}

/// Total self time per layer, in milliseconds.
pub fn layer_self_ms(spans: &[Span], selfs: &[u64]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(selfs) {
        *out.entry(s.layer().to_string()).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// The span dump: one JSON object per line after a per-layer summary.
pub fn dump_json(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut s = String::from("{\n  \"layer_self_ms\": {");
    let layers = layer_self_ms(spans, &selfs);
    for (i, (layer, ms)) in layers.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        s.push_str(&format!("{sep}\"{layer}\": {ms}"));
    }
    s.push_str("},\n  \"spans\": [\n");
    for (i, (span, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let job = span.job.map_or("null".to_string(), |j| j.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"self_ns\": {self_ns}, \"parent\": {parent}, \"job\": {job}}}{sep}\n",
            span.name, span.start_ns, span.end_ns
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            job: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("frontend.build", 10, 40, Some(0)),
            span("frontend.build", 30, 50, Some(0)),
            span("harness.precompute", 90, 120, Some(0)),
        ];
        let selfs = self_times_ns(&spans);
        // Children cover 10..50 and 90..100 of the parent.
        assert_eq!(selfs, vec![50, 30, 20, 30]);
        let layers = layer_self_ms(&spans, &selfs);
        assert_eq!(layers["frontend"], 50.0 / 1e6);
    }

    #[test]
    fn tracer_off_keeps_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, d) = t.time("x.y", None, None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn tracer_on_links_parents() {
        let t = Tracer::new(true);
        t.time("bench.pass", None, Some(3), |root| {
            t.time("harness.precompute", root, Some(3), |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].job, Some(3));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
