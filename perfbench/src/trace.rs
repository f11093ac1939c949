//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only in a traced run. Each thread appends to its
//! own [`SpanBuf`], which hands its spans to the shared [`Tracer`] when
//! dropped, so recording takes no lock on the request path. The spans
//! are written out once the run ends, and self times (a span's duration
//! minus the part of it its children cover) are derived from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one request (a read, or a commit with its fresh read)
    /// share this id.
    pub request: u64,
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The run-wide span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A buffer for one thread's spans.
    pub fn buffer(&self) -> SpanBuf<'_> {
        SpanBuf {
            tracer: self,
            spans: Vec::new(),
        }
    }

    /// A fresh span id, for a parent whose span is recorded after its
    /// children (a span is recorded when it ends).
    pub fn reserve_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// One thread's span buffer.
pub struct SpanBuf<'a> {
    tracer: &'a Tracer,
    spans: Vec<Span>,
}

impl SpanBuf<'_> {
    /// Records a span with a new id and returns the id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.tracer.reserve_id();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    /// Records a span under an id taken from [`Tracer::reserve_id`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.tracer.offset_ns(start),
            end_ns: self.tracer.offset_ns(end),
        });
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        // A poisoned store means another thread panicked while tracing;
        // that panic is reported by its join, so drop the spans quietly.
        if let Ok(mut store) = self.tracer.spans.lock() {
            store.append(&mut self.spans);
        }
    }
}

/// Self time of every span, in nanoseconds, grouped by span name: its
/// duration minus the union of its children's intervals within it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for span in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&span.id) {
            kids.sort_unstable();
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let duration = span.end_ns.saturating_sub(span.start_ns);
        out.entry(span.name)
            .or_default()
            .push(duration.saturating_sub(covered));
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 40),
            // Overlaps `a`: only 40..60 is newly covered.
            span(3, Some(1), "b", 30, 60),
            // Sticks out past the root: clipped at 100.
            span(4, Some(1), "c", 90, 120),
        ];
        let times = self_times(&spans);
        assert_eq!(times["root"], vec![100 - 50 - 10]);
        assert_eq!(times["a"], vec![30]);
        assert_eq!(times["c"], vec![30]);
    }
}
