//! In-memory spans of the traced run, written out when the run ends.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public entry points (the program itself carries no tracing yet).  Each
//! span has a name, a start and an end, the span that caused it and the op
//! it belongs to.  The run writes them as Chrome trace-event JSON, which
//! Perfetto (<https://ui.perfetto.dev>) opens directly.

use stc_pipeline::Json;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let index = self.open.pop().expect("end() matches a begin()");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Records a closed span with explicit times (offsets from the origin),
    /// for intervals timed elsewhere, such as a request's wait on the wire.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let offset = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            start_ns: offset(start),
            end_ns: offset(end),
            parent: self.open.last().copied(),
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, op);
        let value = f();
        self.end();
        value
    }

    /// Self time per span name in milliseconds: each span's duration minus
    /// the part its child spans cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *totals.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
        }
        totals
    }

    /// The spans as Chrome trace-event JSON ("X" complete events, times in
    /// microseconds).
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                let mut args = vec![
                    ("op".to_string(), Json::from_u64(span.op)),
                    ("span".to_string(), Json::from_usize(index)),
                ];
                if let Some(parent) = span.parent {
                    args.push(("parent".to_string(), Json::from_usize(parent)));
                }
                Json::Object(vec![
                    ("name".into(), Json::String(span.name.to_string())),
                    ("cat".into(), Json::String("stc".into())),
                    ("ph".into(), Json::String("X".into())),
                    ("ts".into(), Json::Number(span.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::Number((span.end_ns - span.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), Json::from_u64(1)),
                    ("tid".into(), Json::from_u64(1)),
                    ("args".into(), Json::Object(args)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("traceEvents".into(), Json::Array(events)),
            ("displayTimeUnit".into(), Json::String("ms".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.begin("op", 0);
        tracer.span("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tracer.end();
        let totals = tracer.self_ms();
        assert!(totals["child"] >= 5.0);
        assert!(totals["op"] < totals["child"]);
        let json = tracer.chrome_json().to_compact();
        assert!(json.contains("\"parent\":0"));
    }
}
