//! Spans: (request, id, parent, name, start, end), kept in memory during the traced
//! pass and written out as JSON lines at its end.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the request in the replayed stream; spans of one request share it.
    pub request: u32,
    /// Position of this span in the trace.
    pub id: u32,
    /// The span that caused this one; `None` for a request's root and for the
    /// stand-alone re-measurements taken outside it.
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off every call reduces to running the closure, so the
/// same replay code gives the untraced reference that the tracing overhead is
/// measured against.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; [`Tracer::close`] ends it. Returns its id (0 when off).
    pub fn open(&mut self, request: u32, parent: Option<u32>, name: &'static str) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        if self.on {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn timed<T>(
        &mut self,
        request: u32,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(request, parent, name);
        let value = f();
        self.close(id);
        value
    }
}

/// A span's self time: its duration minus the part of its interval that its child
/// spans cover. Children are clipped to the parent; they do not overlap each other
/// because one request is replayed on one thread.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            covered[parent as usize] += end - start;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

/// One JSON object per line: `request`, `span`, `parent` (or null), `name`,
/// `start_ns`, `end_ns`, `self_ns`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"request\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\
             \"end_ns\":{},\"self_ns\":{}}}",
            span.request, span.id, parent, span.name, span.start_ns, span.end_ns, self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 0,
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_clipped_to_the_parent() {
        let spans = [
            span(0, None, 100, 1000),    // root: 900 long
            span(1, Some(0), 150, 350),  // child: 200
            span(2, Some(0), 400, 900),  // child: 500, itself a parent
            span(3, Some(2), 450, 650),  // grandchild: 200, charged to span 2 only
            span(4, Some(0), 950, 1200), // overruns the root: only 50 of it counts
            span(5, None, 2000, 2300),   // stand-alone, no parent
        ];
        assert_eq!(self_times(&spans), vec![150, 200, 300, 200, 250, 300]);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing_and_still_runs_the_work() {
        let mut off = Tracer::new(false);
        let root = off.open(0, None, "request");
        assert_eq!(off.timed(0, Some(root), "work", || 41 + 1), 42);
        off.close(root);
        assert!(off.spans.is_empty());

        let mut on = Tracer::new(true);
        let root = on.open(7, None, "request");
        on.timed(7, Some(root), "work", || std::hint::black_box(0));
        on.close(root);
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[1].parent, Some(0));
        assert!(on.spans[0].start_ns <= on.spans[1].start_ns);
        assert!(on.spans[1].end_ns <= on.spans[0].end_ns);
    }
}
