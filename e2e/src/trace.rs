//! In-memory spans around the calls the benchmark makes into a layer.
//!
//! Nothing inside the program is instrumented: a span brackets one call
//! from this benchmark into a layer's public function. Spans carry a
//! name, start and end (ns since the tracer's origin), the span that
//! caused them and, where one exists, the id of the batch they handled.
//! They stay in memory and are written out once, at the end of the run.
//! A layer's self time is its spans' duration minus the part of each
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    batch: Option<u64>,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus child coverage, ns.
    pub self_ns: u64,
}

/// A span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a tracing thread panicked")
    }

    /// Opens a span; close it with [`Self::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, batch: Option<u64>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, batch });
        SpanId(spans.len() as u32 - 1)
    }

    /// Closes a span opened with [`Self::open`].
    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.lock()[id.0 as usize].end_ns = end_ns;
    }

    /// Records a span around `f`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        batch: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, batch);
        let out = f();
        self.close(id);
        out
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.lock();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(SpanId(p)) = s.parent {
                let parent = &spans[p as usize];
                let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if lo < hi {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(&mut children) {
            let total = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total - covered(kids);
        }
        out
    }

    /// Writes every span and the per-name totals as one JSON document.
    ///
    /// # Errors
    /// Any I/O failure creating or writing the file.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let totals = self.totals();
        let spans = self.lock();
        let mut doc = String::with_capacity(64 + spans.len() * 72);
        let _ = write!(doc, "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"totals\":{{");
        for (i, (name, t)) in totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                doc,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        doc.push_str("},\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            let batch = s.batch.map_or("null".to_string(), |b| b.to_string());
            let _ = write!(
                doc,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"batch\":{batch}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        doc.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc)
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut sum, mut reach) = (0u64, 0u64);
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(reach);
        if hi > lo {
            sum += hi - lo;
            reach = hi;
        }
    }
    sum
}

/// A tracer handle plus the span new spans hang under; `None` in the
/// untraced pass, where every helper is a plain call.
pub type Ctx<'a> = Option<(&'a Tracer, SpanId)>;

/// Runs `f` under a child span of `ctx` (or bare, untraced).
pub fn in_span<R>(
    ctx: Ctx<'_>,
    name: &'static str,
    batch: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    match ctx {
        Some((tracer, parent)) => tracer.span(name, Some(parent), batch, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_coverage_ignores_overlap() {
        assert_eq!(covered(&mut [(0, 10), (5, 12), (20, 25)]), 17);
        assert_eq!(covered(&mut []), 0);
        assert_eq!(covered(&mut [(3, 4), (3, 4)]), 1);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = Tracer::default();
        {
            let mut spans = t.lock();
            spans.push(Span { name: "outer", start_ns: 0, end_ns: 100, parent: None, batch: None });
            for (lo, hi) in [(10, 30), (20, 40), (90, 120)] {
                spans.push(Span {
                    name: "inner",
                    start_ns: lo,
                    end_ns: hi,
                    parent: Some(SpanId(0)),
                    batch: Some(7),
                });
            }
        }
        let totals = t.totals();
        // Children cover [10,40) and [90,100) of the parent: 40 ns.
        assert_eq!(totals["outer"], NameTotals { count: 1, total_ns: 100, self_ns: 60 });
        assert_eq!(totals["inner"], NameTotals { count: 3, total_ns: 70, self_ns: 70 });
    }

    #[test]
    fn written_trace_parses_and_keeps_parent_and_batch() {
        let t = Tracer::default();
        let root = t.open("root", None, None);
        t.span("child", Some(root), Some(3), || ());
        t.close(root);
        let dir = std::env::temp_dir().join(format!("e2e-trace-test-{}", std::process::id()));
        let path = dir.join("trace_x.json");
        t.write(&path, "x").unwrap();
        let doc =
            stardust_telemetry::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(spans[1].get("batch").unwrap().as_u64(), Some(3));
        assert!(doc.get("totals").unwrap().get("child").is_some());
    }
}
