//! In-memory span recorder for traced runs.
//!
//! A span covers one call from the benchmark into a layer: its name is
//! `<layer>.<operation>`, it carries the request id of the job it serves
//! and the id of the span that caused it. Spans stay in memory until
//! the run ends, when they are written out as JSON lines and folded into
//! per-layer self times. With tracing off nothing is recorded.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The id handed out when tracing is off.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    request: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// The span recorder. Shared by reference between client threads.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_request: AtomicU64,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_request: AtomicU64::new(1),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// A fresh request id for one job's spans.
    pub fn request(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span.
    pub fn begin(&self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking client");
        spans.push(Span {
            name,
            request,
            parent: parent.filter(|p| *p != SpanId::NONE),
            start_ns,
            end_ns: None,
        });
        SpanId(spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if !self.on || id == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking client");
        spans[id.0].end_ns = Some(end_ns);
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Self time per layer in seconds: each closed span's duration minus
    /// the part of its interval that its child spans cover, summed by
    /// the layer prefix of the span name.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let (Some(p), Some(end)) = (s.parent, s.end_ns) {
                children[p.0].push((s.start_ns, end));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let Some(end) = s.end_ns else { continue };
            let covered = covered_ns(&mut children[i], s.start_ns, end);
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *out.entry(layer).or_insert(0.0) += (end - s.start_ns - covered) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.request,
                s.parent.map_or("null".to_string(), |p| p.0.to_string()),
                s.start_ns,
                s.end_ns.map_or("null".to_string(), |e| e.to_string()),
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_children_is_not_double_counted() {
        let mut v = vec![(10, 20), (15, 30), (40, 50), (95, 120)];
        assert_eq!(covered_ns(&mut v, 0, 100), 20 + 10 + 5);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        let req = t.request();
        let parent = t.begin("bench.job", req, None);
        t.time("graph.parse", req, Some(parent), || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.end(parent);
        let self_times = t.self_times();
        assert!(self_times["graph"] >= 0.019);
        assert!(self_times["bench"] < self_times["graph"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.time("graph.parse", 1, None, || ());
        assert!(t.is_empty());
        assert!(t.self_times().is_empty());
    }
}
