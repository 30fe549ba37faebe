//! The benchmark's own span recorder: spans around each call the harness
//! makes into a layer, kept in memory and written out when the run ends.
//!
//! A span has a name, a start and end (nanoseconds since the recorder was
//! created), the index of its parent span, and the id of the job it
//! belongs to, so every span of one job can be grouped. A disabled
//! recorder records nothing; each call on it costs one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder; one per thread, merged at the end.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's clock origin.
    pub fn fork(&self) -> Self {
        Tracer::new(self.enabled, self.origin)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, job: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, job);
        let out = f();
        self.close();
        out
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Total and self time per span name, in nanoseconds. A span's self
    /// time is its duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(child);
        }
        out
    }

    /// The spans as one JSON document: the span list plus the self-time
    /// table.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!("{{{header},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\"self_time\":{");
        for (i, (name, (count, total, own))) in self.self_times().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.open("job", 1);
        t.span("a", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        let times = t.self_times();
        let (_, job_total, job_self) = times["job"];
        let (_, a_total, a_self) = times["a"];
        assert_eq!(a_total, a_self);
        assert_eq!(job_self, job_total - a_total);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.span("a", 1, || ());
        assert!(t.spans.is_empty());
    }
}
