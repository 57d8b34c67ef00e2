//! In-memory spans, self times, and the span file written at the end of a
//! traced run.
//!
//! A span is a name, a start and an end, the span that caused it, and the
//! request it belongs to. Spans are recorded around calls into the
//! program's public functions from the benchmark's side; nothing inside
//! the program is instrumented.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval. `parent` is 0 for a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Spans of one run, in recording order.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, next_id: 1, spans: Vec::new() }
    }

    /// Allocates a span id, for a span recorded after its children.
    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Records a span under an id from [`SpanLog::id`].
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Records a span and returns its id (for its children's `parent`).
    pub fn record(
        &mut self,
        parent: u64,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.push(Span { id, parent, name, req, start, end });
        id
    }

    /// Writes one JSON object per line: id, parent, name, request id,
    /// and start/end in microseconds since the run began.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.parent,
                s.name,
                s.req,
                us(s.start),
                us(s.end)
            )?;
        }
        w.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, Duration> {
    let mut children: HashMap<u64, Vec<(Instant, Instant)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = Duration::ZERO;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort();
                let mut reach = s.start;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(reach, s.end);
                    let b = b.clamp(reach, s.end);
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut log = SpanLog::new(t0);
        let root = log.record(0, "forward", 1, at(0), at(100));
        // Two overlapping children (10..40 and 30..50 cover 40 ms) and
        // one running past the parent's end (90..120 counts 10 ms).
        let a = log.record(root, "encode", 1, at(10), at(40));
        log.record(root, "gemm", 1, at(30), at(50));
        log.record(root, "snap", 1, at(90), at(120));
        // A grandchild is its child's business, not the root's.
        log.record(a, "inner", 1, at(15), at(20));
        let st = self_times(&log.spans);
        assert_eq!(st[&root], Duration::from_millis(50));
        assert_eq!(st[&a], Duration::from_millis(25));
        let leaf = log.spans.iter().find(|s| s.name == "gemm").unwrap().id;
        assert_eq!(st[&leaf], Duration::from_millis(20));
    }
}
