//! In-memory wall-clock spans recorded around the calls the benchmark
//! makes into each layer. Nothing inside the program is instrumented: a
//! span covers one call from the benchmark's own code.
//!
//! Spans stay in memory while the run goes and are written once, at the
//! end, as a Chrome trace that Perfetto opens. A layer's *self* time is
//! its span's duration minus the part covered by its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder. Recorders that share an origin merge into
/// one timeline.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u32) -> Self {
        Tracer {
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; every span opened after it and before its
    /// [`Tracer::end`] is its child.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            thread: self.thread,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self seconds and span count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(covered) {
            let entry = out.entry(s.name).or_default();
            entry.0 += (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e9;
            entry.1 += 1;
        }
        out
    }

    /// Self seconds of every span named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |t| t.0)
    }

    /// Total (not self) seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The timeline as a Chrome trace (`traceEvents` of complete events).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        let outer = t.begin("outer");
        t.time("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.end(outer);
        let times = t.self_times();
        assert!(times["inner"].0 >= 0.005);
        assert!(times["outer"].0 < times["inner"].0);
        assert!(t.total_s("outer") >= t.total_s("inner"));
    }
}
