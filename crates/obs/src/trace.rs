//! Causal request tracing: trace contexts, deterministic span-id
//! minting, span-tree reconstruction, and the critical-path walker
//! behind `TRACE_summary.json`.
//!
//! A *trace* is the causal closure of one service primitive issued by a
//! user part: the request `request`/`free` indication, every PDU and
//! platform message it triggers, the retransmissions of those messages,
//! and the terminating indication delivered back to a user part. The
//! simulator mints a [`TraceCtx`] at the issuing node ([`mint_id`]),
//! carries it *side-band* on simulator events — never inside wire
//! payloads, so codec goldens stay byte-identical — and stamps every
//! traced timeline [`Event`] with `(trace_id, span_id, parent_id)`.
//!
//! ## Span-tree shape
//!
//! - `trace.begin` / `trace.end` instant markers carry the root span id;
//!   the walker synthesizes the root interval from them (extended to
//!   cover stragglers such as post-completion ACK transits).
//! - Segment spans — `net.queue_wait`, `net.transit`, `net.retransmit`
//!   — parent directly under the root, so the tree is depth two and the
//!   critical-path arithmetic is a flat interval sweep.
//! - Instant events (handler marks, drops, broker deliveries) parent
//!   under the span that delivered them (a transit span or the root).
//!
//! All ids are minted from per-node sequence counters, and a node's
//! dispatch order is independent of how nodes are partitioned into
//! shards, so the same run produces the same ids for every `--shards`
//! value — the property the trace goldens pin.

use std::collections::BTreeMap;

use crate::recorder::Event;

/// Marker name stamped when a user part opens a trace.
pub const TRACE_BEGIN: &str = "trace.begin";
/// Marker name stamped when the terminating indication reaches a user.
pub const TRACE_END: &str = "trace.end";
/// Span name for time a message waits for (and occupies) a
/// bandwidth-limited link before departing.
pub const SPAN_QUEUE_WAIT: &str = "net.queue_wait";
/// Span name for first-transmission link transit.
pub const SPAN_TRANSIT: &str = "net.transit";
/// Span name for link transit of a retransmitted frame.
pub const SPAN_RETRANSMIT: &str = "net.retransmit";

/// The causal context piggybacked side-band on simulator messages and
/// timers.
///
/// `span_id` is the span the receiver is being delivered *under* (a
/// transit span, or the root right after minting); `parent_id` is the
/// trace's root span, which every segment span parents to. The struct
/// is `Copy` and three words — cheap enough to ride on every event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Identity of the whole request tree.
    pub trace_id: u64,
    /// The span this hop is nested under.
    pub span_id: u64,
    /// The root span of the trace (segment spans parent here).
    pub parent_id: u64,
}

impl TraceCtx {
    /// The context minted at the issuing node: the root span is both the
    /// current span and the parent for everything below it.
    pub fn root(trace_id: u64, root_span: u64) -> Self {
        TraceCtx {
            trace_id,
            span_id: root_span,
            parent_id: root_span,
        }
    }

    /// The continuation carried by a transit hop: same trace and root,
    /// but the delivered span becomes the nesting target for handler
    /// instants on the receiving node.
    pub fn hop(self, span_id: u64) -> Self {
        TraceCtx { span_id, ..self }
    }

    /// The context captured by a timer: the firing handler runs long
    /// after the delivering span closed, so instants re-parent to the
    /// root, which always covers them.
    pub fn timer_carry(self) -> Self {
        TraceCtx {
            span_id: self.parent_id,
            ..self
        }
    }
}

/// Mints a trace/span id from a node id and that node's private
/// sequence counter (splitmix64-style finalizer). `| 1` keeps every
/// minted id nonzero — id 0 universally means "untraced".
pub fn mint_id(node: u64, seq: u64) -> u64 {
    let mut z = node
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// One reconstructed span-tree node (a copy of the fields the walker
/// needs from a traced [`Event`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Site name.
    pub name: &'static str,
    /// Category.
    pub cat: &'static str,
    /// Owning track (destination node for transits).
    pub tid: u64,
    /// Source node for cross-node spans, 0 otherwise.
    pub tid2: u64,
    /// Start, virtual µs.
    pub ts_us: u64,
    /// Duration, virtual µs (0 = instant).
    pub dur_us: u64,
    /// This span's id (0 for instants, which have no identity).
    pub span_id: u64,
    /// The parent span id (0 only on root markers).
    pub parent_id: u64,
}

/// One request's reconstructed span tree.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace identity.
    pub trace_id: u64,
    /// Root span id (from the `trace.begin` marker; 0 when the begin
    /// marker is missing, which makes the tree incomplete).
    pub root_span_id: u64,
    /// Node that issued the primitive.
    pub root_tid: u64,
    /// When the user part issued the primitive.
    pub begin_us: u64,
    /// When the terminating indication was delivered, if it was.
    pub end_us: Option<u64>,
    /// Whether a `trace.begin` marker was seen.
    pub has_begin: bool,
    /// Segment spans (`dur_us > 0`), canonically sorted.
    pub spans: Vec<SpanNode>,
    /// Instant events excluding the begin/end markers, canonically
    /// sorted.
    pub instants: Vec<SpanNode>,
}

/// Latency attribution for one *completed* request: the four segment
/// classes sum exactly to the end-to-end latency (handlers execute in
/// zero virtual time, so `handler_us` counts occurrences via
/// `handler_events` and contributes 0 µs by construction; time not on
/// the wire is queueing — at the link or waiting for the resource).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestBreakdown {
    /// The trace identity.
    pub trace_id: u64,
    /// Node that issued the primitive.
    pub root_tid: u64,
    /// Issue time, virtual µs.
    pub begin_us: u64,
    /// End-to-end latency (issue → terminating indication), µs.
    pub end_to_end_us: u64,
    /// Handler execution time (always 0 in virtual time).
    pub handler_us: u64,
    /// Time neither on the wire nor retransmitting: link serialization
    /// queueing plus application-level waiting (resource contention).
    pub queue_us: u64,
    /// First-transmission link transit time on the critical path.
    pub link_us: u64,
    /// Link transit time attributable to retransmitted frames.
    pub retransmit_us: u64,
    /// Number of segment spans in the tree.
    pub spans: u64,
    /// Number of handler/instant events in the tree.
    pub handler_events: u64,
    /// Number of retransmit segments.
    pub retransmits: u64,
}

fn canonical_span_key(s: &SpanNode) -> (u64, u64, u64, u64, u64, &'static str, &'static str) {
    (
        s.ts_us,
        s.dur_us,
        s.span_id,
        s.parent_id,
        s.tid,
        s.name,
        s.cat,
    )
}

/// Groups a recorder's traced events by trace id and reconstructs one
/// [`TraceTree`] per trace, in ascending trace-id order.
///
/// The grouping map and the per-tree canonical sorts make the output a
/// pure function of the event *multiset*: the sharded engine absorbs
/// per-shard recorders in shard order, not global time order, and this
/// walk erases that difference — which is what keeps `TRACE_summary`
/// and the sorted Chrome trace byte-identical across `--shards`.
pub fn trace_trees(events: &[Event]) -> Vec<TraceTree> {
    let mut trees: BTreeMap<u64, TraceTree> = BTreeMap::new();
    for e in events {
        if e.trace_id == 0 {
            continue;
        }
        let tree = trees.entry(e.trace_id).or_insert_with(|| TraceTree {
            trace_id: e.trace_id,
            root_span_id: 0,
            root_tid: 0,
            begin_us: 0,
            end_us: None,
            has_begin: false,
            spans: Vec::new(),
            instants: Vec::new(),
        });
        let node = SpanNode {
            name: e.name,
            cat: e.cat,
            tid: e.tid,
            tid2: e.tid2,
            ts_us: e.ts_us,
            dur_us: e.dur_us,
            span_id: e.span_id,
            parent_id: e.parent_id,
        };
        match e.name {
            TRACE_BEGIN => {
                tree.has_begin = true;
                tree.root_span_id = e.span_id;
                tree.root_tid = e.tid;
                tree.begin_us = e.ts_us;
            }
            TRACE_END => {
                tree.end_us = Some(e.ts_us);
            }
            _ if e.dur_us > 0 => tree.spans.push(node),
            _ => tree.instants.push(node),
        }
    }
    let mut out: Vec<TraceTree> = trees.into_values().collect();
    for tree in &mut out {
        tree.spans.sort_by_key(canonical_span_key);
        tree.instants.sort_by_key(canonical_span_key);
    }
    out
}

impl TraceTree {
    /// The root interval's effective end: the end marker, extended to
    /// cover stragglers (duplicate deliveries, window-refill and ACK
    /// transits that land after the terminating indication).
    pub fn extended_end_us(&self) -> u64 {
        let mut end = self.end_us.unwrap_or(self.begin_us);
        for s in &self.spans {
            end = end.max(s.ts_us + s.dur_us);
        }
        for i in &self.instants {
            end = end.max(i.ts_us);
        }
        end
    }

    /// Walks the tree of a *completed* request (begin and end markers
    /// both present) and attributes its end-to-end latency. Returns
    /// `None` for incomplete trees — `free` indications open traces
    /// that terminate nowhere, and a time-capped run can cut a request
    /// short; both count as incomplete, never as zero-latency.
    ///
    /// Attribution is an elementary interval sweep over the segment
    /// spans clamped to `[begin, end]`, with the priority `retransmit >
    /// transit > queue_wait` where segments overlap; the uncovered
    /// remainder — time the request spent waiting at the application
    /// layer — lands in `queue_us`. The four classes therefore sum to
    /// `end_to_end_us` exactly.
    pub fn breakdown(&self) -> Option<RequestBreakdown> {
        let end = self.end_us?;
        if !self.has_begin {
            return None;
        }
        let begin = self.begin_us;
        let total = end.saturating_sub(begin);
        let mut cuts: Vec<u64> = Vec::with_capacity(self.spans.len() * 2 + 2);
        let mut segments: Vec<(u64, u64, u8)> = Vec::with_capacity(self.spans.len());
        let mut retransmits = 0u64;
        for s in &self.spans {
            let priority = match s.name {
                SPAN_RETRANSMIT => 3,
                SPAN_TRANSIT => 2,
                SPAN_QUEUE_WAIT => 1,
                _ => 0,
            };
            if s.name == SPAN_RETRANSMIT {
                retransmits += 1;
            }
            if priority == 0 {
                continue;
            }
            let a = s.ts_us.max(begin);
            let b = (s.ts_us + s.dur_us).min(end);
            if a >= b {
                continue;
            }
            cuts.push(a);
            cuts.push(b);
            segments.push((a, b, priority));
        }
        cuts.sort_unstable();
        cuts.dedup();
        let (mut retransmit_us, mut link_us, mut queue_wait_us) = (0u64, 0u64, 0u64);
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let priority = segments
                .iter()
                .filter(|(x, y, _)| *x <= a && b <= *y)
                .map(|(_, _, p)| *p)
                .max()
                .unwrap_or(0);
            let len = b - a;
            match priority {
                3 => retransmit_us += len,
                2 => link_us += len,
                1 => queue_wait_us += len,
                _ => {}
            }
        }
        let covered = retransmit_us + link_us + queue_wait_us;
        Some(RequestBreakdown {
            trace_id: self.trace_id,
            root_tid: self.root_tid,
            begin_us: begin,
            end_to_end_us: total,
            handler_us: 0,
            queue_us: queue_wait_us + total.saturating_sub(covered),
            link_us,
            retransmit_us,
            spans: self.spans.len() as u64,
            handler_events: self.instants.len() as u64,
            retransmits,
        })
    }

    /// Structural invariants the proptest suite drives against real
    /// runs: every span/instant's parent exists in the tree, and every
    /// interval nests inside its parent's (the root interval extended
    /// per [`TraceTree::extended_end_us`]).
    pub fn check_nesting(&self) -> Result<(), String> {
        if !self.has_begin {
            // Without a root there is nothing to nest under; events of a
            // beginless tree are only possible if the begin marker was
            // dropped by the capacity bound — report that.
            return Err(format!("trace {:#x} has no begin marker", self.trace_id));
        }
        let root_end = self.extended_end_us();
        let mut intervals: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        intervals.insert(self.root_span_id, (self.begin_us, root_end));
        for s in &self.spans {
            if s.span_id == 0 {
                return Err(format!(
                    "span {:?} in trace {:#x} has id 0",
                    s.name, self.trace_id
                ));
            }
            intervals.insert(s.span_id, (s.ts_us, s.ts_us + s.dur_us));
        }
        for s in &self.spans {
            let Some(&(pa, pb)) = intervals.get(&s.parent_id) else {
                return Err(format!(
                    "span {:?}@{} in trace {:#x}: parent {:#x} does not exist",
                    s.name, s.ts_us, self.trace_id, s.parent_id
                ));
            };
            if s.ts_us < pa || s.ts_us + s.dur_us > pb {
                return Err(format!(
                    "span {:?} [{}, {}] escapes parent [{pa}, {pb}] in trace {:#x}",
                    s.name,
                    s.ts_us,
                    s.ts_us + s.dur_us,
                    self.trace_id
                ));
            }
        }
        for i in &self.instants {
            let Some(&(pa, pb)) = intervals.get(&i.parent_id) else {
                return Err(format!(
                    "instant {:?}@{} in trace {:#x}: parent {:#x} does not exist",
                    i.name, i.ts_us, self.trace_id, i.parent_id
                ));
            };
            if i.ts_us < pa || i.ts_us > pb {
                return Err(format!(
                    "instant {:?}@{} outside parent [{pa}, {pb}] in trace {:#x}",
                    i.name, i.ts_us, self.trace_id
                ));
            }
        }
        Ok(())
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (the same
/// convention `FloorMetrics` uses for grant latencies, so the summary's
/// `latency_us` block is comparable with the sweep JSON).
pub fn percentile_us(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn ev(
        name: &'static str,
        tid: u64,
        tid2: u64,
        ts: u64,
        dur: u64,
        trace: u64,
        span: u64,
        parent: u64,
    ) -> Event {
        Event {
            name,
            cat: "net",
            tid,
            tid2,
            ts_us: ts,
            dur_us: dur,
            trace_id: trace,
            span_id: span,
            parent_id: parent,
        }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            ev(TRACE_BEGIN, 1, 0, 100, 0, 7, 10, 0),
            ev(SPAN_TRANSIT, 2, 1, 100, 500, 7, 11, 10),
            ev("mw.dispatch", 2, 0, 600, 0, 7, 0, 11),
            ev(SPAN_TRANSIT, 1, 2, 600, 500, 7, 12, 10),
            ev(SPAN_RETRANSMIT, 1, 2, 800, 400, 7, 13, 10),
            ev(TRACE_END, 1, 0, 1300, 0, 7, 10, 0),
        ]
    }

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let a = mint_id(1, 1);
        let b = mint_id(1, 2);
        let c = mint_id(2, 1);
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(a, mint_id(1, 1), "minting is a pure function");
        assert_eq!(a & 1, 1);
    }

    #[test]
    fn walker_reconstructs_the_tree() {
        let trees = trace_trees(&sample_events());
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        assert_eq!(t.trace_id, 7);
        assert_eq!(t.root_span_id, 10);
        assert_eq!(t.begin_us, 100);
        assert_eq!(t.end_us, Some(1300));
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.instants.len(), 1);
        t.check_nesting().unwrap();
    }

    #[test]
    fn walker_output_is_independent_of_event_order() {
        let mut shuffled = sample_events();
        shuffled.reverse();
        let a = trace_trees(&sample_events());
        let b = trace_trees(&shuffled);
        assert_eq!(a[0].spans, b[0].spans);
        assert_eq!(a[0].instants, b[0].instants);
        assert_eq!(a[0].begin_us, b[0].begin_us);
        assert_eq!(a[0].end_us, b[0].end_us);
    }

    #[test]
    fn breakdown_sums_to_end_to_end() {
        let trees = trace_trees(&sample_events());
        let b = trees[0].breakdown().unwrap();
        assert_eq!(b.end_to_end_us, 1200);
        // [100,600] transit, [600,800] transit, [800,1200] retransmit
        // (priority over the second transit's tail), [1200,1300] uncovered.
        assert_eq!(b.link_us, 700);
        assert_eq!(b.retransmit_us, 400);
        assert_eq!(b.queue_us, 100);
        assert_eq!(b.handler_us, 0);
        assert_eq!(
            b.handler_us + b.queue_us + b.link_us + b.retransmit_us,
            b.end_to_end_us
        );
        assert_eq!(b.retransmits, 1);
        assert_eq!(b.handler_events, 1);
    }

    #[test]
    fn incomplete_trees_have_no_breakdown() {
        let mut events = sample_events();
        events.pop(); // drop trace.end
        let trees = trace_trees(&events);
        assert!(trees[0].breakdown().is_none());
    }

    #[test]
    fn nesting_check_catches_an_orphan_parent() {
        let mut events = sample_events();
        events.push(ev(SPAN_TRANSIT, 3, 1, 200, 10, 7, 99, 12345));
        let trees = trace_trees(&events);
        let err = trees[0].check_nesting().unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
    }

    #[test]
    fn nesting_check_catches_an_escaping_child() {
        let mut events = sample_events();
        // Instant before the root opened.
        events.push(ev("mw.dispatch", 1, 0, 50, 0, 7, 0, 10));
        let trees = trace_trees(&events);
        let err = trees[0].check_nesting().unwrap_err();
        assert!(err.contains("outside parent"), "{err}");
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&v, 50), 50);
        assert_eq!(percentile_us(&v, 95), 95);
        assert_eq!(percentile_us(&v, 99), 99);
        assert_eq!(percentile_us(&[42], 99), 42);
        assert_eq!(percentile_us(&[], 50), 0);
    }
}
