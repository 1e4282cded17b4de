//! The per-run recorder: counters, fixed-bucket histograms, per-link
//! transport statistics, and a bounded timeline of events.
//!
//! One [`Recorder`] captures one unit of work — a sweep cell, a soak
//! cell, one hotpath benchmark iteration group. Recorders are plain data
//! (`Send`, no interior mutability): the executor installs one per worker
//! thread via [`crate::ctx::with_recorder`], collects it afterwards, and
//! merges cell recorders **in spec order**, so every sink below is
//! byte-identical regardless of thread count.
//!
//! All timestamps are *virtual* (simulated) microseconds. Wall-clock time
//! never enters a recorder: it would break the byte-identity the golden
//! tests and CI `cmp` gates pin.

use std::collections::BTreeMap;

use crate::json::JsonWriter;

/// Number of power-of-two histogram buckets: bucket `i` counts values
/// `v` with `2^(i-1) < v <= 2^i` (bucket 0 counts zero).
pub const HIST_BUCKETS: usize = 40;

/// A fixed-bucket power-of-two histogram over `u64` samples.
///
/// Forty log2 buckets cover the full range this workspace produces
/// (virtual microseconds up to ~12 days, byte counts, set sizes); the
/// exact `count/sum/min/max` ride along so means stay precise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Log2 buckets; see [`HIST_BUCKETS`].
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Hist {
    /// Bucket index for a sample: 0 for zero, else `ceil(log2(v)) + 1`
    /// clamped to the last bucket.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - (value - 1).leading_zeros()) as usize + 1).min(HIST_BUCKETS - 1)
        }
    }

    /// Upper bound (inclusive) of bucket `i`, for labeling.
    pub fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64.checked_shl((i - 1) as u32).unwrap_or(u64::MAX)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Mean sample, or zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another histogram into this one.
    pub fn absorb(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Writes the histogram as one JSON object (count/sum/min/max/mean
    /// plus the non-empty buckets keyed by their inclusive upper bound).
    pub fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("count").uint(self.count);
        w.key("sum").uint(self.sum);
        w.key("min")
            .uint(if self.count == 0 { 0 } else { self.min });
        w.key("max").uint(self.max);
        w.key("mean").float(self.mean(), 3);
        w.key("buckets").begin_object();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                w.key(&format!("le_{}", Self::bucket_bound(i))).uint(n);
            }
        }
        w.end_object();
        w.end_object();
    }
}

/// Transport statistics for one directed link (`src → dst` node ids).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkStat {
    /// Messages that completed transit on this link.
    pub messages: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Transit latency distribution (virtual µs).
    pub latency: Hist,
}

/// One timeline entry: an instant event (`dur_us == 0`) or a completed
/// span, stamped with *virtual* time.
///
/// The three trace fields are all zero on untraced events; a nonzero
/// `trace_id` makes the entry part of a causal request tree (see
/// [`crate::trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Site name (static, so recording never allocates for names).
    pub name: &'static str,
    /// Category (layer): `net`, `proto`, `mw`, `lts`, `app`, `trace`.
    pub cat: &'static str,
    /// Track id — the node/entity the event belongs to.
    pub tid: u64,
    /// Second track for cross-node spans (the *source* node of a link
    /// transit, powering Chrome flow arrows); 0 otherwise.
    pub tid2: u64,
    /// Virtual start time, microseconds.
    pub ts_us: u64,
    /// Virtual duration, microseconds (0 = instant event).
    pub dur_us: u64,
    /// Causal trace this event belongs to (0 = untraced).
    pub trace_id: u64,
    /// This span's id (0 for instants, which have no identity).
    pub span_id: u64,
    /// Parent span id (0 on root markers and untraced events).
    pub parent_id: u64,
}

/// Default timeline capacity per recorder; excess events are counted in
/// [`Recorder::events_dropped`] instead of growing without bound.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// Captures one unit of work's observations. See the module docs.
#[derive(Debug, Clone)]
pub struct Recorder {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Hist>,
    links: BTreeMap<(u64, u64), LinkStat>,
    events: Vec<Event>,
    events_dropped: u64,
    capacity: usize,
}

impl Default for Recorder {
    /// [`Recorder::new`]: the default timeline capacity, not zero.
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the default timeline capacity.
    pub fn new() -> Self {
        Recorder::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A recorder holding at most `capacity` timeline events; further
    /// events are dropped (and counted), counters/histograms are not
    /// affected by the bound.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            links: BTreeMap::new(),
            events: Vec::new(),
            events_dropped: 0,
            capacity,
        }
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Records `value` into histogram `name`.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.hists.entry(name).or_default().record(value);
    }

    /// Records one completed message transit on link `src → dst`.
    pub fn link(&mut self, src: u64, dst: u64, bytes: u64, latency_us: u64) {
        let stat = self.links.entry((src, dst)).or_default();
        stat.messages += 1;
        stat.bytes += bytes;
        stat.latency.record(latency_us);
    }

    /// Appends an untraced timeline event (bounded; see
    /// [`Recorder::with_capacity`]).
    pub fn event(
        &mut self,
        name: &'static str,
        cat: &'static str,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
    ) {
        self.event_traced(name, cat, tid, 0, ts_us, dur_us, 0, 0, 0);
    }

    /// Appends a timeline event carrying causal-trace identity (bounded
    /// like [`Recorder::event`]).
    #[allow(clippy::too_many_arguments)]
    pub fn event_traced(
        &mut self,
        name: &'static str,
        cat: &'static str,
        tid: u64,
        tid2: u64,
        ts_us: u64,
        dur_us: u64,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
    ) {
        if self.events.len() < self.capacity {
            self.events.push(Event {
                name,
                cat,
                tid,
                tid2,
                ts_us,
                dur_us,
                trace_id,
                span_id,
                parent_id,
            });
        } else {
            self.events_dropped += 1;
        }
    }

    /// Counter value, zero when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Histogram by name, if any sample was recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Per-link statistics, `(src, dst)`-ordered.
    pub fn links(&self) -> &BTreeMap<(u64, u64), LinkStat> {
        &self.links
    }

    /// The captured timeline, in recording order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Timeline events lost to the capacity bound.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.hists.is_empty()
            && self.links.is_empty()
            && self.events.is_empty()
            && self.events_dropped == 0
    }

    /// Merges `other` into `self`: counters/histograms/links add up,
    /// timelines concatenate (still bounded by `self`'s capacity).
    pub fn absorb(&mut self, other: &Recorder) {
        for (&name, &n) in &other.counters {
            self.count(name, n);
        }
        for (&name, hist) in &other.hists {
            self.hists.entry(name).or_default().absorb(hist);
        }
        for (&key, stat) in &other.links {
            let mine = self.links.entry(key).or_default();
            mine.messages += stat.messages;
            mine.bytes += stat.bytes;
            mine.latency.absorb(&stat.latency);
        }
        for event in &other.events {
            if self.events.len() < self.capacity {
                self.events.push(event.clone());
            } else {
                self.events_dropped += 1;
            }
        }
        self.events_dropped += other.events_dropped;
    }

    /// Renders the recorder as JSONL: one compact JSON object per line —
    /// first every timeline event (in virtual-time recording order), then
    /// counters, histograms, and links. `scope` labels the originating
    /// cell/run on every line.
    pub fn jsonl(&self, scope: &str) -> String {
        let mut out = String::new();
        for e in &self.events {
            let mut w = JsonWriter::compact();
            w.begin_object();
            w.key("type").string("event");
            w.key("scope").string(scope);
            w.key("name").string(e.name);
            w.key("cat").string(e.cat);
            w.key("tid").uint(e.tid);
            w.key("ts_us").uint(e.ts_us);
            w.key("dur_us").uint(e.dur_us);
            if e.trace_id != 0 {
                w.key("trace").uint(e.trace_id);
                w.key("span").uint(e.span_id);
                w.key("parent").uint(e.parent_id);
                if e.tid2 != 0 {
                    w.key("src").uint(e.tid2);
                }
            }
            w.end_object();
            out.push_str(&w.finish());
        }
        for (name, n) in &self.counters {
            let mut w = JsonWriter::compact();
            w.begin_object();
            w.key("type").string("counter");
            w.key("scope").string(scope);
            w.key("name").string(name);
            w.key("value").uint(*n);
            w.end_object();
            out.push_str(&w.finish());
        }
        for (name, hist) in &self.hists {
            let mut w = JsonWriter::compact();
            w.begin_object();
            w.key("type").string("hist");
            w.key("scope").string(scope);
            w.key("name").string(name);
            w.key("hist");
            hist.write(&mut w);
            w.end_object();
            out.push_str(&w.finish());
        }
        for ((src, dst), stat) in &self.links {
            let mut w = JsonWriter::compact();
            w.begin_object();
            w.key("type").string("link");
            w.key("scope").string(scope);
            w.key("src").uint(*src);
            w.key("dst").uint(*dst);
            w.key("messages").uint(stat.messages);
            w.key("bytes").uint(stat.bytes);
            w.key("latency_mean_us").float(stat.latency.mean(), 3);
            w.end_object();
            out.push_str(&w.finish());
        }
        if self.events_dropped > 0 {
            let mut w = JsonWriter::compact();
            w.begin_object();
            w.key("type").string("dropped");
            w.key("scope").string(scope);
            w.key("events").uint(self.events_dropped);
            w.end_object();
            out.push_str(&w.finish());
        }
        out
    }

    /// Appends this recorder's timeline to an open Chrome `traceEvents`
    /// array: a `process_name` metadata record, one complete (`ph: "X"`)
    /// or instant (`ph: "i"`) event per timeline entry, and one final
    /// counter (`ph: "C"`) sample per counter. `pid` identifies the
    /// cell/run; `tid` is the originating node. Loadable in Perfetto /
    /// `chrome://tracing`.
    ///
    /// Traced events additionally carry their `trace/span/parent` ids in
    /// `args`, and every traced *cross-node* span (a link transit, where
    /// `tid2` names the source node) emits a flow-event pair (`ph: "s"`
    /// on the source track, `ph: "f"` on the destination track, bound by
    /// the span id) so Perfetto draws the causal arrows between nodes.
    /// Name and category strings both pass through [`JsonWriter::string`]
    /// escaping, like every other string this sink writes.
    ///
    /// The timeline is written in canonical `(ts, tid, trace, span, …)`
    /// order, not recording order. The sharded engine absorbs per-shard
    /// recorders in *shard* order, so the raw interleaving differs
    /// between `--shards` values even when the event multiset is
    /// identical; sorting erases exactly that, which is what makes the
    /// Chrome goldens byte-identical across shard counts.
    pub fn write_chrome_events(&self, w: &mut JsonWriter, pid: u64, process_name: &str) {
        let mut order: Vec<&Event> = self.events.iter().collect();
        order.sort_by_key(|e| {
            (
                e.ts_us,
                e.tid,
                e.trace_id,
                e.span_id,
                e.parent_id,
                e.name,
                e.cat,
                e.dur_us,
                e.tid2,
            )
        });
        w.begin_object();
        w.key("name").string("process_name");
        w.key("ph").string("M");
        w.key("pid").uint(pid);
        w.key("tid").uint(0);
        w.key("args").begin_object();
        w.key("name").string(process_name);
        w.end_object();
        w.end_object();
        let mut end_ts = 0u64;
        for e in &order {
            end_ts = end_ts.max(e.ts_us + e.dur_us);
            w.begin_object();
            w.key("name").string(e.name);
            w.key("cat").string(e.cat);
            if e.dur_us > 0 {
                w.key("ph").string("X");
            } else {
                w.key("ph").string("i");
                w.key("s").string("t");
            }
            w.key("pid").uint(pid);
            w.key("tid").uint(e.tid);
            w.key("ts").uint(e.ts_us);
            if e.dur_us > 0 {
                w.key("dur").uint(e.dur_us);
            }
            if e.trace_id != 0 {
                w.key("args").begin_object();
                w.key("trace").uint(e.trace_id);
                w.key("span").uint(e.span_id);
                w.key("parent").uint(e.parent_id);
                w.end_object();
            }
            w.end_object();
            // Cross-node causality: a flow arrow from the sender's track
            // at departure to the receiver's track at arrival.
            if e.trace_id != 0 && e.dur_us > 0 && e.tid2 != 0 && e.tid2 != e.tid {
                w.begin_object();
                w.key("name").string(e.name);
                w.key("cat").string(e.cat);
                w.key("ph").string("s");
                w.key("id").uint(e.span_id);
                w.key("pid").uint(pid);
                w.key("tid").uint(e.tid2);
                w.key("ts").uint(e.ts_us);
                w.end_object();
                w.begin_object();
                w.key("name").string(e.name);
                w.key("cat").string(e.cat);
                w.key("ph").string("f");
                w.key("bp").string("e");
                w.key("id").uint(e.span_id);
                w.key("pid").uint(pid);
                w.key("tid").uint(e.tid);
                w.key("ts").uint(e.ts_us + e.dur_us);
                w.end_object();
            }
        }
        for (name, n) in &self.counters {
            w.begin_object();
            w.key("name").string(name);
            w.key("ph").string("C");
            w.key("pid").uint(pid);
            w.key("tid").uint(0);
            w.key("ts").uint(end_ts);
            w.key("args").begin_object();
            w.key("value").uint(*n);
            w.end_object();
            w.end_object();
        }
    }
}

/// Writes a full Chrome trace document from `(pid, process_name,
/// recorder)` triples — the shape Perfetto's JSON importer expects.
/// Each timeline is in canonical order (see
/// [`Recorder::write_chrome_events`]), so the document depends on the
/// event multiset only: byte-identical across `--threads` *and*
/// `--shards`.
pub fn chrome_trace<'a>(parts: impl IntoIterator<Item = (u64, &'a str, &'a Recorder)>) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.key("displayTimeUnit").string("ms");
    w.key("traceEvents").begin_array();
    for (pid, name, recorder) in parts {
        recorder.write_chrome_events(&mut w, pid, name);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_are_log2() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 3);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(5), 4);
        assert_eq!(Hist::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(Hist::bucket_bound(0), 0);
        assert_eq!(Hist::bucket_bound(1), 1);
        assert_eq!(Hist::bucket_bound(3), 4);
    }

    #[test]
    fn hist_tracks_count_sum_min_max() {
        let mut h = Hist::default();
        for v in [5, 1, 9] {
            h.record(v);
        }
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 15);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 9);
        assert!((h.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_counts_and_merges() {
        let mut a = Recorder::new();
        a.count("pdus", 2);
        a.record("lat", 10);
        a.link(1, 2, 100, 250);
        a.event("transit", "net", 2, 0, 250);
        let mut b = Recorder::new();
        b.count("pdus", 3);
        b.record("lat", 30);
        b.link(1, 2, 50, 150);
        a.absorb(&b);
        assert_eq!(a.counter("pdus"), 5);
        assert_eq!(a.hist("lat").unwrap().count, 2);
        let link = &a.links()[&(1, 2)];
        assert_eq!(link.messages, 2);
        assert_eq!(link.bytes, 150);
        assert_eq!(a.events().len(), 1);
        assert!(!a.is_empty());
        assert!(Recorder::new().is_empty());
    }

    #[test]
    fn chrome_sink_escapes_malformed_names_and_categories() {
        // Round-trip: a hostile name/category/scope must come out fully
        // escaped in both sinks — no raw quote, backslash, or control
        // byte may survive into the JSON text.
        let name: &'static str = "bad\"name\\with\ncontrol";
        let cat: &'static str = "cat\"egory\t";
        let mut r = Recorder::new();
        r.event(name, cat, 1, 10, 5);
        let chrome = chrome_trace([(1, "cell \"x\"\\", &r)]);
        let jsonl = r.jsonl("scope\"s\\");
        for text in [chrome.as_str(), jsonl.as_str()] {
            assert!(text.contains("bad\\\"name\\\\with\\ncontrol"), "{text}");
            assert!(text.contains("cat\\\"egory\\t"), "{text}");
            assert!(!text.contains('\t'), "raw tab leaked");
            // Structural check: outside escapes, quotes must balance.
            let mut in_string = false;
            let mut escaped = false;
            for c in text.chars() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = !in_string;
                } else if (c == '\n' || c == '\t') && in_string {
                    panic!("raw control character inside a JSON string");
                }
            }
            assert!(!in_string, "unbalanced quotes in {text}");
        }
    }

    #[test]
    fn traced_spans_emit_flow_event_pairs() {
        let mut r = Recorder::new();
        r.event_traced("net.transit", "net", 2, 1, 100, 50, 7, 11, 10);
        r.event_traced("mw.dispatch", "mw", 2, 0, 150, 0, 7, 0, 11);
        let text = chrome_trace([(3, "cell", &r)]);
        assert!(text.contains("\"ph\": \"s\""), "{text}");
        assert!(text.contains("\"ph\": \"f\""), "{text}");
        assert!(text.contains("\"bp\": \"e\""), "{text}");
        assert!(text.contains("\"id\": 11"), "{text}");
        assert!(text.contains("\"trace\": 7"), "{text}");
        // The instant has no second track, so exactly one s/f pair.
        assert_eq!(text.matches("\"ph\": \"s\"").count(), 1);
        assert_eq!(text.matches("\"ph\": \"f\"").count(), 1);
    }

    #[test]
    fn chrome_trace_is_order_independent() {
        let mut a = Recorder::new();
        a.event_traced("net.transit", "net", 2, 1, 100, 50, 7, 11, 10);
        a.event_traced("net.transit", "net", 3, 1, 90, 50, 7, 12, 10);
        let mut b = Recorder::new();
        b.event_traced("net.transit", "net", 3, 1, 90, 50, 7, 12, 10);
        b.event_traced("net.transit", "net", 2, 1, 100, 50, 7, 11, 10);
        assert_ne!(a.events(), b.events(), "raw order differs by construction");
        assert_eq!(chrome_trace([(1, "c", &a)]), chrome_trace([(1, "c", &b)]));
    }

    #[test]
    fn default_recorder_keeps_events() {
        let mut r = Recorder::default();
        r.event("e", "net", 0, 1, 0);
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.events_dropped(), 0);
    }

    #[test]
    fn event_capacity_is_bounded() {
        let mut r = Recorder::with_capacity(2);
        for i in 0..5 {
            r.event("e", "net", 0, i, 0);
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events_dropped(), 3);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut r = Recorder::new();
        r.event("transit", "net", 3, 10, 5);
        r.count("msgs", 1);
        let text = r.jsonl("cell-0");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"event\""));
        assert!(lines[0].contains("\"ts_us\":10"));
        assert!(lines[1].starts_with("{\"type\":\"counter\""));
        assert!(lines.iter().all(|l| l.contains("\"scope\":\"cell-0\"")));
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let mut r = Recorder::new();
        r.event("span", "net", 1, 100, 50);
        r.event("mark", "proto", 2, 160, 0);
        r.count("pdus", 4);
        let text = chrome_trace([(7, "cell cell-7", &r)]);
        assert!(text.contains("\"traceEvents\": ["));
        assert!(text.contains("\"ph\": \"M\""));
        assert!(text.contains("\"ph\": \"X\""));
        assert!(text.contains("\"ph\": \"i\""));
        assert!(text.contains("\"ph\": \"C\""));
        assert!(text.contains("\"dur\": 50"));
        assert!(text.contains("\"pid\": 7"));
    }
}
