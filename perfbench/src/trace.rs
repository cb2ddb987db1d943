//! In-memory spans recorded around the benchmark's calls into the library.
//!
//! A span is `(name, start, end, parent, request)`: `parent` is the id of
//! the span that caused it (0 = none) and `request` groups the spans of one
//! micro-batch or one HTTP request. Spans are kept in memory while the run
//! measures and written out as JSON lines when it ends. A disabled tracer
//! records nothing, so untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open span; close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    name: &'static str,
    start_ns: u64,
    parent: u32,
    request: u64,
}

impl Open {
    /// The span id, for children to name as their parent (0 when disabled).
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// A per-thread span recorder. Threads that trace concurrently each own
/// one (sharing an origin and disjoint id ranges) and are merged at the end.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span ids start above `id_base`.
    pub fn new(enabled: bool, origin: Instant, id_base: u32) -> Self {
        Tracer {
            enabled,
            origin,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (spans already recorded are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span.
    pub fn start(&mut self, name: &'static str, parent: u32, request: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                name,
                start_ns: 0,
                parent,
                request,
            };
        }
        self.next_id += 1;
        Open {
            id: self.next_id,
            name,
            start_ns: self.now_ns(),
            parent,
            request,
        }
    }

    /// Closes a span, returning its duration in seconds (0 when disabled).
    pub fn end(&mut self, open: Open) -> f64 {
        if open.id == 0 {
            return 0.0;
        }
        let span = Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            parent: open.parent,
            request: open.request,
        };
        self.spans.push(span);
        span.secs()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another tracer's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Total duration and total self time (duration minus the time covered
    /// by direct children) per span name, and the span count.
    pub fn self_times(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_secs: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_secs.entry(s.parent).or_default() += s.secs();
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = totals.entry(s.name).or_default();
            t.count += 1;
            t.total_secs += s.secs();
            t.self_secs += s.secs() - child_secs.get(&s.id).copied().unwrap_or(0.0);
        }
        totals
    }

    /// Writes every span as one JSON line, then one summary line per span
    /// name with its count, total and self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"span\": \"{}\", \"id\": {}, \"parent\": {}, \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        for (name, t) in self.self_times() {
            writeln!(
                out,
                "{{\"summary\": \"{name}\", \"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                t.count, t.total_secs, t.self_secs
            )?;
        }
        out.flush()
    }
}

/// Per-name aggregate of [`Tracer::self_times`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_secs: f64,
    pub self_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let parent = t.start("outer", 0, 1);
        let child = t.start("inner", parent.id(), 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner = t.end(child);
        let outer = t.end(parent);
        let totals = t.self_times();
        assert_eq!(totals["inner"].count, 1);
        let self_outer = totals["outer"].self_secs;
        assert!((self_outer - (outer - inner)).abs() < 1e-9);
        assert!(self_outer < outer);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let s = t.start("x", 0, 0);
        assert_eq!(s.id(), 0);
        assert_eq!(t.end(s), 0.0);
        assert!(t.spans().is_empty());
    }
}
