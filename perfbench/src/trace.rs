//! In-memory spans recorded around calls into the program's layers.
//!
//! Every span is timed by the benchmark around one public call; nothing
//! inside the program is instrumented. Spans are kept in memory (up to a
//! fixed capacity, after which only per-name totals grow) and written out
//! once when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later spans only update the per-name totals.
pub const SPAN_CAPACITY: usize = 1 << 17;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, as `module.function`.
    pub name: &'static str,
    /// 1-based span id.
    pub id: u32,
    /// Id of the span that caused this one (0 = none).
    pub parent: u32,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// Span store plus per-name busy totals. A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    next_id: u32,
    dropped: u64,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 0,
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span over `start..end`; returns its id (0 when disabled).
    pub fn record(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) -> u32 {
        if !self.enabled {
            return 0;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        let total = self.totals.entry(name).or_insert((0, 0));
        total.0 += end_ns - start_ns;
        total.1 += 1;
        self.next_id += 1;
        if self.spans.len() < SPAN_CAPACITY {
            self.spans.push(Span {
                name,
                id: self.next_id,
                parent,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
        self.next_id
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// Total ns recorded under `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.0)
    }

    /// Number of spans recorded under `name` (kept or dropped).
    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.1)
    }

    /// Write the kept spans as a JSON object (`spans`, `dropped`, and the
    /// per-name `totals`).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("{\"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "  {{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                sp.name, sp.id, sp.parent, sp.start_ns, sp.end_ns
            );
        }
        let _ = write!(s, "], \"dropped\": {}, \"totals\": {{", self.dropped);
        for (i, (name, (ns, n))) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"ns\": {ns}, \"count\": {n}}}");
        }
        s.push_str("}}\n");
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a.b", 0, || 7), 7);
        assert_eq!(t.count("a.b"), 0);
    }

    #[test]
    fn totals_accumulate_per_name() {
        let mut t = Tracer::new(true);
        let now = Instant::now();
        let id = t.record("a.b", 0, now, now + std::time::Duration::from_nanos(40));
        t.record("a.c", id, now, now + std::time::Duration::from_nanos(10));
        t.record("a.b", 0, now, now + std::time::Duration::from_nanos(2));
        assert_eq!(t.total_ns("a.b"), 42);
        assert_eq!(t.count("a.b"), 2);
        assert_eq!(t.spans[1].parent, id);
    }
}
