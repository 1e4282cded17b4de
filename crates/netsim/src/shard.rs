//! The simulation engine: nodes dealt over `S ≥ 1` shards.
//!
//! Every [`Simulator`] runs on this engine; [`SimConfig::shards`] only
//! picks `S`. Each shard owns its own event queue (timer wheel or heap),
//! clock, node table (processes, RNG streams, timers, trace mints), link
//! randomness, metrics and trace spool, and there is exactly one dispatch
//! path: [`Shard::process_window`] pops the shard's events in `(at, key)`
//! order and runs their handlers. Before the first run the nodes are
//! dealt round-robin in ascending id order, so node `i` of that order
//! lives on shard `i % S`.
//!
//! # One shard
//!
//! `S = 1` is the default and the serial event loop: the whole run slice
//! is one window with no upper bound, processed on the caller's thread.
//! There is no barrier, mailbox, thread or lookahead, so zero-latency
//! links are legal.
//!
//! # Two or more shards
//!
//! Each shard runs on its own scoped thread, and the shards advance in
//! lock-step *windows*:
//!
//! 1. **Exchange** — every shard drains its inbound mailboxes (one
//!    `Mutex<Vec<_>>` per ordered shard pair, written only by the source
//!    shard, drained only by the destination) into its local queue, then
//!    publishes the firing instant of its earliest pending event.
//! 2. **Agree** — after a barrier, every shard independently computes the
//!    same global minimum `T` over the published instants. If no shard
//!    has work, or `T` is past the run deadline, the run stops.
//! 3. **Advance** — each shard processes its local events with firing
//!    instant in `[T, T + W)`, where the *lookahead* `W` is the minimum
//!    link latency in the current topology. Sends to nodes on other
//!    shards are filed into the pairwise mailboxes; the next window picks
//!    them up.
//!
//! A worker whose handler panics raises a flag and stands in for itself at
//! the barrier once, so the other workers stop at the next exchange wait
//! instead of blocking forever, and the run re-raises the handler's own panic on
//! the caller's thread.
//!
//! # Why the lookahead bound is safe
//!
//! Every event processed in a window fires at some `t ∈ [T, T + W)`. A
//! message sent while processing it departs no earlier than `t` and
//! arrives at `t + queueing + transmission + latency + jitter`, all
//! non-negative and `latency ≥ W` by definition of `W` (an ordered
//! link's FIFO clamp only moves arrivals later). So every arrival —
//! local or cross-shard — lands at or after `T + W`, i.e. strictly
//! beyond the window every shard is currently processing. No shard can
//! ever receive an event in its past, which is exactly the conservative
//! PDES (Chandy–Misra style) safety condition; `W = 0` is rejected as
//! [`SimError::ZeroLookahead`] because windows would have zero width.
//!
//! # Determinism across shard counts
//!
//! Everything observable is a function of *per-node* and *per-directed-
//! pair* histories, and each of those histories is computed from data
//! that never depends on the partition:
//!
//! * Events carry the total-order key `(at, provenance_key)` (see
//!   [`crate::sim::provenance_key`]); a shard processes its local events
//!   in exactly that order, because windows only ever defer work, never
//!   reorder it, and the safety argument above means nothing arrives
//!   late. Each node's dispatch sequence is therefore the same for any
//!   placement of the other nodes.
//! * Node randomness ([`Context::rand_u64`]) comes from per-node streams
//!   seeded from `(seed, node)`.
//! * Metrics are sums of per-shard counters; the merged trace is sorted
//!   by `(time, start-phase, dispatching event key, record index)` —
//!   both aggregations are independent of which shard computed what.
//!
//! Link randomness (loss, duplication, jitter) is the one place where the
//! shard count changes behaviour; see [`LinkDraws`]. One shard draws from
//! a single stream in global event order, which no partition can
//! reproduce, so two or more shards draw from per-directed-pair streams
//! instead. Hence every `S ≥ 2` produces byte-identical reports on any
//! link, and on lossy or jittered links `S = 1` is a (deterministic)
//! different sample of the same distribution. On deterministic links —
//! zero jitter, loss 0 or 1, no duplication — link randomness never
//! changes an outcome, so every `S`, one included, produces byte-identical
//! reports. The sharded goldens, the oracle suite in
//! `tests/shard_oracle.rs` and the CI shard `cmp` steps pin this down;
//! `tests/serial_golden.rs` pins the one-shard stream.
//!
//! [`Simulator`]: crate::sim::Simulator
//! [`SimConfig::shards`]: crate::sim::SimConfig::shards
//! [`SimError::ZeroLookahead`]: crate::sim::SimError::ZeroLookahead
//! [`Context::rand_u64`]: crate::sim::Context::rand_u64

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

use svckit_model::hash::FastMap;
use svckit_model::{Duration, Instant, PartId, PrimitiveEvent};
use svckit_obs::TraceCtx;

use crate::metrics::NetMetrics;
use crate::node::NodeTable;
use crate::rng::DeterministicRng;
use crate::sim::{
    Action, Context, EventKind, EventQueue, LinkTable, Payload, Process, QueueBackend, Scheduled,
    TraceBuf,
};

/// Sentinel published by a shard with an empty queue.
const IDLE: u64 = u64::MAX;

/// Seed of the dedicated RNG stream for link draws on the directed pair
/// `from → to`. Distinct multipliers keep `(a, b)` and `(b, a)` apart.
fn pair_seed(seed: u64, from: PartId, to: PartId) -> u64 {
    seed.wrapping_add(from.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(to.raw().wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        ^ 0x94D0_49BB_1331_11EB
}

/// Where a shard draws link randomness (loss, duplication, jitter) from.
/// Picked by the shard count, never configured separately.
#[derive(Debug)]
enum LinkDraws {
    /// One shard: a single stream seeded from the run seed, drawn in
    /// global event order — a loss and a duplication coin per send and a
    /// jitter draw per delivered copy, even at zero jitter. `tests/
    /// serial_golden.rs` pins this exact pattern.
    Serial(DeterministicRng),
    /// Two or more shards: one stream per directed pair, seeded from
    /// `(seed, from, to)` and advanced in the sender's dispatch order, so
    /// no partition can change it. Draws on deterministic parameters are
    /// skipped, so a fully deterministic pair never creates its stream.
    PerPair {
        seed: u64,
        streams: FastMap<(PartId, PartId), DeterministicRng>,
    },
}

impl LinkDraws {
    fn new(seed: u64, shard_count: u32) -> Self {
        if shard_count == 1 {
            LinkDraws::Serial(DeterministicRng::new(seed))
        } else {
            LinkDraws::PerPair {
                seed,
                streams: FastMap::default(),
            }
        }
    }

    fn pair(
        seed: u64,
        streams: &mut FastMap<(PartId, PartId), DeterministicRng>,
        from: PartId,
        to: PartId,
    ) -> &mut DeterministicRng {
        streams
            .entry((from, to))
            .or_insert_with(|| DeterministicRng::new(pair_seed(seed, from, to)))
    }

    /// A Bernoulli trial with probability `p` for the pair `from → to`.
    fn coin(&mut self, from: PartId, to: PartId, p: f64) -> bool {
        match self {
            LinkDraws::Serial(rng) => rng.coin(p),
            LinkDraws::PerPair { seed, streams } => {
                p > 0.0 && Self::pair(*seed, streams, from, to).coin(p)
            }
        }
    }

    /// A jitter in `[0, bound)` µs for one delivered copy on `from → to`.
    fn jitter(&mut self, from: PartId, to: PartId, bound: u64) -> Duration {
        let micros = match self {
            LinkDraws::Serial(rng) => rng.next_below(bound),
            LinkDraws::PerPair { seed, streams } if bound > 1 => {
                Self::pair(*seed, streams, from, to).next_below(bound)
            }
            LinkDraws::PerPair { .. } => 0,
        };
        Duration::from_micros(micros)
    }
}

/// One spooled trace record with the sort key that reproduces the global
/// serial insertion order: records from the start phase come first (in
/// node order), then records grouped by the event that was being
/// dispatched, in that event's total-order position.
#[derive(Debug)]
struct SpooledRecord {
    time_us: u64,
    phase: u8,
    dispatch_key: u128,
    idx: u32,
    event: PrimitiveEvent,
}

/// Per-shard spool of service primitives recorded during a run, merged
/// into the simulator's trace when the run slice ends.
#[derive(Debug, Default)]
pub(crate) struct TraceSpool {
    records: Vec<SpooledRecord>,
    time_us: u64,
    phase: u8,
    dispatch_key: u128,
    idx: u32,
}

impl TraceSpool {
    /// Called by the engine before every handler invocation.
    fn begin_dispatch(&mut self, time_us: u64, phase: u8, dispatch_key: u128) {
        self.time_us = time_us;
        self.phase = phase;
        self.dispatch_key = dispatch_key;
        self.idx = 0;
    }

    pub(crate) fn push(&mut self, event: PrimitiveEvent) {
        self.records.push(SpooledRecord {
            time_us: self.time_us,
            phase: self.phase,
            dispatch_key: self.dispatch_key,
            idx: self.idx,
            event,
        });
        self.idx += 1;
    }
}

/// Moves every shard's spooled records into `trace`, in the order one
/// serial loop records them: `(time, phase, dispatching event key, record
/// index)`. A lone shard dispatches in exactly that order, so its spool
/// needs no sort.
pub(crate) fn merge_spools(shards: &mut [Shard], trace: &mut TraceBuf) {
    if let [shard] = shards {
        for record in shard.trace.records.drain(..) {
            trace.push(record.event);
        }
        return;
    }
    let mut spooled: Vec<SpooledRecord> = Vec::new();
    for shard in shards {
        spooled.append(&mut shard.trace.records);
    }
    spooled.sort_by(|a, b| {
        (a.time_us, a.phase, a.dispatch_key, a.idx).cmp(&(
            b.time_us,
            b.phase,
            b.dispatch_key,
            b.idx,
        ))
    });
    for record in spooled {
        trace.push(record.event);
    }
}

pub(crate) const PHASE_START: u8 = 0;
const PHASE_EVENT: u8 = 1;

/// Where a node lives: its shard, and its slot in that shard's
/// [`NodeTable`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeLoc {
    pub(crate) shard: u32,
    pub(crate) slot: u32,
}

/// The global node registry: node id → location. The one map keyed by
/// node id, and the authority on which nodes exist (the undeliverable
/// check). Never iterated in an order that reaches the output, so the
/// `FastMap` hasher affects lookup cost only.
pub(crate) type Registry = FastMap<PartId, NodeLoc>;

/// One shard: a vertical slice of the simulation owning a subset of the
/// nodes and every piece of state their handlers can touch.
pub(crate) struct Shard {
    index: u32,
    /// Last locally processed firing instant.
    pub(crate) clock: Instant,
    pub(crate) queue: EventQueue,
    /// The state of every node this shard owns, one slot per node. Trace
    /// mints live here (not in the per-run worker recorder), so ids
    /// persist across run slices.
    pub(crate) nodes: NodeTable,
    link_draws: LinkDraws,
    // The per-pair maps below use the deterministic `FastMap` hasher and
    // are never iterated.
    last_arrival: FastMap<(PartId, PartId), Instant>,
    /// For bandwidth-limited links: when the sender side of each directed
    /// pair becomes free again.
    link_busy_until: FastMap<(PartId, PartId), Instant>,
    pub(crate) metrics: NetMetrics,
    trace: TraceSpool,
    /// Reused across dispatches so the hot path does not allocate a fresh
    /// action vector per event.
    action_buf: Vec<Action>,
    /// Reused batch buffer for [`EventQueue::pop_run`].
    run_buf: Vec<Scheduled>,
    /// Sends to nodes on other shards, produced by the current window (or
    /// the start phase) and flushed into the pairwise mailboxes.
    pub(crate) outgoing: Vec<(u32, Scheduled)>,
    pub(crate) events_processed: u64,
    pub(crate) peak_queue_len: usize,
}

impl Shard {
    pub(crate) fn new(index: u32, seed: u64, backend: QueueBackend, shard_count: u32) -> Self {
        Shard {
            index,
            clock: Instant::ZERO,
            queue: EventQueue::new(backend),
            nodes: NodeTable::default(),
            link_draws: LinkDraws::new(seed, shard_count),
            last_arrival: FastMap::default(),
            link_busy_until: FastMap::default(),
            metrics: NetMetrics::new(),
            trace: TraceSpool::default(),
            action_buf: Vec::new(),
            run_buf: Vec::new(),
            outgoing: Vec::new(),
            events_processed: 0,
            peak_queue_len: 0,
        }
    }

    /// Runs one handler and applies its actions. `dispatch_key` is the
    /// total-order position of whatever triggered the handler; it anchors
    /// the deterministic trace merge.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dispatch<F>(
        &mut self,
        slot: u32,
        now: Instant,
        phase: u8,
        dispatch_key: u128,
        trace_ctx: Option<TraceCtx>,
        registry: &Registry,
        links: &LinkTable,
        call: F,
    ) where
        F: FnOnce(&mut dyn Process, &mut Context<'_>),
    {
        let mut actions = std::mem::take(&mut self.action_buf);
        self.trace
            .begin_dispatch(now.as_micros(), phase, dispatch_key);
        let node = self.nodes.slot_mut(slot);
        let mut ctx = Context {
            now,
            id: node.id,
            actions: &mut actions,
            rng: &mut node.rng,
            trace: &mut self.trace,
            cur_trace: trace_ctx,
            tracer: &mut node.tracer,
        };
        call(node.process.as_mut(), &mut ctx);
        self.apply_actions(slot, now, &mut actions, registry, links);
        // Hand the (now empty) buffer back for the next dispatch, keeping
        // its capacity.
        self.action_buf = actions;
    }

    fn apply_actions(
        &mut self,
        slot: u32,
        now: Instant,
        actions: &mut Vec<Action>,
        registry: &Registry,
        links: &LinkTable,
    ) {
        let node = self.nodes.slot(slot).id;
        for action in actions.drain(..) {
            match action {
                Action::Send {
                    to,
                    payload,
                    ctx,
                    retransmit,
                } => {
                    self.metrics.record_send(payload.len());
                    self.nodes.slot_mut(slot).sent += 1;
                    svckit_obs::obs_count!("net.sends");
                    let Some(&target) = registry.get(&to) else {
                        self.metrics.record_undeliverable();
                        svckit_obs::obs_count!("net.undeliverable");
                        continue;
                    };
                    // Copy the link's scalar parameters out instead of
                    // cloning the whole `LinkConfig` per send.
                    let link = links.link_for(node, to);
                    let loss = link.loss();
                    let duplicate_p = link.duplicate();
                    let latency = link.latency();
                    let jitter_bound = link.jitter().as_micros() + 1;
                    let ordered = link.is_ordered();
                    let transmission = link.transmission_time(payload.len());
                    if self.link_draws.coin(node, to, loss) {
                        self.metrics.record_drop();
                        svckit_obs::obs_count!("net.drops");
                        match ctx {
                            // Parent at the trace root, not the carried
                            // span: a retransmitted frame keeps its
                            // originating send's context, whose delivery
                            // span closed long before the resend.
                            Some(t) => svckit_obs::obs_event!(
                                "net.drop",
                                "net",
                                to.raw(),
                                now.as_micros(),
                                t.trace_id,
                                0u64,
                                t.parent_id
                            ),
                            None => {
                                svckit_obs::obs_event!("net.drop", "net", to.raw(), now.as_micros())
                            }
                        }
                        continue;
                    }
                    let duplicate = self.link_draws.coin(node, to, duplicate_p);
                    if duplicate {
                        self.metrics.record_duplicate();
                        svckit_obs::obs_count!("net.duplicates");
                    }
                    // Serialization: a bandwidth-limited link is occupied
                    // for the message's transmission time; back-to-back
                    // sends queue behind it.
                    let mut depart = now;
                    if transmission > Duration::ZERO {
                        let busy = self
                            .link_busy_until
                            .entry((node, to))
                            .or_insert(Instant::ZERO);
                        if depart < *busy {
                            depart = *busy;
                        }
                        depart += transmission;
                        *busy = depart;
                    }
                    // Time spent queued behind the link (serialization /
                    // bandwidth backlog) is its own attributable segment.
                    if let Some(t) = ctx {
                        if depart > now {
                            let qid = self.nodes.slot_mut(slot).mint();
                            svckit_obs::obs_span!(
                                svckit_obs::trace::SPAN_QUEUE_WAIT,
                                "net",
                                node.raw(),
                                0u64,
                                now.as_micros(),
                                depart.as_micros(),
                                t.trace_id,
                                qid,
                                t.parent_id
                            );
                        }
                    }
                    let payload_len = payload.len();
                    // A duplicated send delivers a clone first and the
                    // original last: un-duplicated sends (the
                    // overwhelmingly common case) never touch the
                    // payload's reference count at all.
                    let extra = duplicate.then(|| Payload::clone(&payload));
                    for payload in extra.into_iter().chain(Some(payload)) {
                        let jitter = self.link_draws.jitter(node, to, jitter_bound);
                        let mut at = depart + latency + jitter;
                        if ordered {
                            let last = self.last_arrival.entry((node, to)).or_insert(Instant::ZERO);
                            if at < *last {
                                at = *last;
                            }
                            *last = at;
                        }
                        // Transit = serialization queueing + transmission +
                        // propagation + jitter, all in virtual time.
                        svckit_obs::obs_link!(
                            node.raw(),
                            to.raw(),
                            payload_len,
                            at.saturating_since(now).as_micros()
                        );
                        let deliver_ctx = match ctx {
                            Some(t) => {
                                // Each copy gets its own transit span, so
                                // duplicated deliveries stay distinguishable
                                // in the flame graph.
                                let sid = self.nodes.slot_mut(slot).mint();
                                let span_name = if retransmit {
                                    svckit_obs::trace::SPAN_RETRANSMIT
                                } else {
                                    svckit_obs::trace::SPAN_TRANSIT
                                };
                                svckit_obs::obs_span!(
                                    span_name,
                                    "net",
                                    to.raw(),
                                    node.raw(),
                                    depart.as_micros(),
                                    at.as_micros(),
                                    t.trace_id,
                                    sid,
                                    t.parent_id
                                );
                                Some(t.hop(sid))
                            }
                            None => {
                                svckit_obs::obs_span!(
                                    "net.transit",
                                    "net",
                                    to.raw(),
                                    now.as_micros(),
                                    at.as_micros()
                                );
                                None
                            }
                        };
                        self.route(
                            slot,
                            now,
                            target.shard,
                            at,
                            EventKind::Deliver {
                                slot: target.slot,
                                from: node,
                                payload,
                                ctx: deliver_ctx,
                            },
                        );
                    }
                }
                Action::SetTimer { delay, id, ctx } => {
                    let generation = self.nodes.slot_mut(slot).bump_timer(id);
                    // Timers are always local to the node's own shard.
                    self.route(
                        slot,
                        now,
                        self.index,
                        now + delay,
                        EventKind::Timer {
                            slot,
                            id,
                            generation,
                            ctx,
                        },
                    );
                }
                Action::CancelTimer { id } => {
                    // Bumping the generation invalidates any pending firing.
                    self.nodes.slot_mut(slot).bump_timer(id);
                }
            }
        }
    }

    /// Stamps the event with the provenance key of the scheduling node
    /// (local slot `origin`) and files it locally or into the outgoing
    /// buffer.
    fn route(
        &mut self,
        origin: u32,
        sched_at: Instant,
        target_shard: u32,
        at: Instant,
        kind: EventKind,
    ) {
        let key = self.nodes.slot_mut(origin).next_key(sched_at);
        let event = Scheduled { at, key, kind };
        if target_shard == self.index {
            self.queue.push(event);
        } else {
            self.outgoing.push((target_shard, event));
        }
    }

    /// Dispatches one popped event (clock, metrics, obs, handler). The
    /// queue-depth sample is taken by the caller once per batch.
    fn dispatch_event(&mut self, event: Scheduled, registry: &Registry, links: &LinkTable) {
        debug_assert!(event.at >= self.clock, "shard time went backwards");
        self.clock = event.at;
        self.events_processed += 1;
        svckit_obs::obs_count!("net.events");
        let key = event.key;
        match event.kind {
            EventKind::Deliver {
                slot,
                from,
                payload,
                ctx,
            } => {
                self.metrics.record_delivery(payload.len());
                svckit_obs::obs_count!("net.deliveries");
                svckit_obs::obs_count!("net.delivered_bytes", payload.len());
                self.dispatch(
                    slot,
                    event.at,
                    PHASE_EVENT,
                    key,
                    ctx,
                    registry,
                    links,
                    |p, c| p.on_message(c, from, payload),
                );
            }
            EventKind::Timer {
                slot,
                id,
                generation,
                ctx,
            } => {
                if self.nodes.slot(slot).timer_live(id, generation) {
                    svckit_obs::obs_count!("net.timer_fires");
                    self.dispatch(
                        slot,
                        event.at,
                        PHASE_EVENT,
                        key,
                        ctx,
                        registry,
                        links,
                        |p, c| p.on_timer(c, id),
                    );
                } else {
                    svckit_obs::obs_count!("net.timer_stale");
                }
            }
        }
    }

    /// Processes every local event with firing instant below
    /// `window_end_us` (exclusive) and at or below the deadline. Newly
    /// scheduled local events that still fall inside the window are
    /// picked up in the same pass, so a window fully exhausts the shard's
    /// local causality.
    fn process_window(
        &mut self,
        window_end_us: u64,
        deadline: Instant,
        registry: &Registry,
        links: &LinkTable,
    ) {
        let mut run = std::mem::take(&mut self.run_buf);
        while let Some(at) = self.queue.next_at() {
            if at.as_micros() >= window_end_us || at > deadline {
                break;
            }
            // Batch dispatch: pull the whole same-instant, same-target run
            // in one queue operation and pay the bookkeeping (depth
            // sample) once. The events still dispatch one by one, in
            // exactly the order repeated pops would yield, because an
            // event's actions may cancel or re-arm timers later in the
            // same batch.
            self.queue.pop_run(&mut run);
            self.peak_queue_len = self.peak_queue_len.max(self.queue.len() + run.len());
            svckit_obs::obs_record!("net.queue_depth", self.queue.len());
            for event in run.drain(..) {
                self.dispatch_event(event, registry, links);
            }
        }
        run.clear();
        self.run_buf = run;
    }

    /// The one-shard run slice: a single unbounded window on the caller's
    /// thread. The queue it stops at also counts towards the peak: events
    /// past the deadline are pending too (`tests/serial_golden.rs` pins
    /// the resulting counter).
    pub(crate) fn run_serial(&mut self, deadline: Instant, registry: &Registry, links: &LinkTable) {
        self.process_window(u64::MAX, deadline, registry, links);
        self.peak_queue_len = self.peak_queue_len.max(self.queue.len());
    }

    /// The lock-step worker: exchange, agree, advance — until every shard
    /// is idle, the next global event is past the deadline, or another
    /// worker panicked.
    #[allow(clippy::too_many_arguments)]
    fn worker(
        &mut self,
        lockstep: &Lockstep,
        next_at: &[AtomicU64],
        outboxes: &[Vec<Mutex<Vec<Scheduled>>>],
        registry: &Registry,
        links: &LinkTable,
        lookahead_us: u64,
        deadline: Instant,
    ) {
        let _stand_in = StandInOnUnwind(lockstep);
        let me = self.index as usize;
        let deadline_us = deadline.as_micros();
        loop {
            // Exchange: by this barrier every shard has flushed the
            // previous window's sends, so the mailbox matrix is stable.
            if !lockstep.wait() {
                return;
            }
            for column in outboxes {
                for event in lock(&column[me]).drain(..) {
                    self.queue.push(event);
                }
            }
            next_at[me].store(
                self.queue.next_at().map_or(IDLE, |at| at.as_micros()),
                Ordering::SeqCst,
            );
            // Agree: all published; every shard computes the same minimum.
            // No flag check here (see `Lockstep`): a worker that panics in
            // the coming window raises the flag, and a survivor reading it
            // now would leave the others waiting at the next exchange.
            lockstep.barrier.wait();
            let t = next_at
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .fold(IDLE, u64::min);
            if t == IDLE || t > deadline_us {
                return;
            }
            // Advance: the window [T, T + W) is safe for every shard.
            self.process_window(t.saturating_add(lookahead_us), deadline, registry, links);
            for (target, event) in self.outgoing.drain(..) {
                lock(&outboxes[me][target as usize]).push(event);
            }
        }
    }
}

/// Locks a mailbox. No mailbox is held while a handler runs, and every
/// update under one is a single push or drain, so no panic can leave one
/// invalid; recovering a poisoned guard keeps locking infallible by
/// construction.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The lock-step barrier and the flag a panicking worker raises.
///
/// Invariant: a worker raises the flag only inside a window — handlers
/// run nowhere else — and every survivor of that window reaches the next
/// exchange wait. All workers left the same agree wait with the same
/// global minimum, so none of them stops before the window, and the flag
/// is read only after the exchange wait ([`Lockstep::wait`]), never after
/// the agree wait. So the panicking worker's one stand-in arrival
/// completes exactly that exchange wait, and every worker reads the flag
/// after it and returns together.
struct Lockstep {
    barrier: Barrier,
    broken: AtomicBool,
}

impl Lockstep {
    /// The exchange wait: waits for every worker; `false` once some
    /// worker has panicked.
    fn wait(&self) -> bool {
        self.barrier.wait();
        !self.broken.load(Ordering::SeqCst)
    }
}

/// Stands in for its worker at the barrier once if the worker unwinds out
/// of a handler. Every panic falls inside a window, between an agree wait
/// and the next exchange wait, so this one wait completes that exchange
/// wait for the survivors (see [`Lockstep`]'s invariant); they see the
/// flag and return instead of waiting forever for the worker that is gone.
struct StandInOnUnwind<'a>(&'a Lockstep);

impl Drop for StandInOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.broken.store(true, Ordering::SeqCst);
            self.0.barrier.wait();
        }
    }
}

/// Runs one slice over two or more shards, one scoped thread each, until
/// every shard is idle or the next event is past `deadline`. A handler
/// panic on any worker ends the run and is re-raised here with the
/// handler's own payload.
pub(crate) fn run_lockstep(
    shards: &mut [Shard],
    registry: &Registry,
    links: &LinkTable,
    deadline: Instant,
) {
    let shard_count = shards.len();
    let lockstep = Lockstep {
        barrier: Barrier::new(shard_count),
        broken: AtomicBool::new(false),
    };
    let next_at: Vec<AtomicU64> = (0..shard_count).map(|_| AtomicU64::new(IDLE)).collect();
    let outboxes: Vec<Vec<Mutex<Vec<Scheduled>>>> = (0..shard_count)
        .map(|_| (0..shard_count).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let lookahead_us = links.min_latency().as_micros();

    // One scoped thread per shard, re-spawned per run slice: fault
    // injection between slices then needs no synchronization at all.
    // Each worker records obs under its own recorder; the recorders are
    // folded into the caller's in shard order afterwards, keeping obs
    // output independent of thread scheduling.
    let joined: Vec<std::thread::Result<svckit_obs::Recorder>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter_mut()
            .map(|shard| {
                let lockstep = &lockstep;
                let next_at = next_at.as_slice();
                let outboxes = outboxes.as_slice();
                scope.spawn(move || {
                    let ((), recorder) =
                        svckit_obs::with_recorder(svckit_obs::Recorder::new(), || {
                            shard.worker(
                                lockstep,
                                next_at,
                                outboxes,
                                registry,
                                links,
                                lookahead_us,
                                deadline,
                            );
                        });
                    recorder
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    // Every worker has returned by now: the one that panicked stood in at
    // the barrier on its way out. Re-raise the first panic in shard order.
    let recorders = match joined.into_iter().collect::<Result<Vec<_>, _>>() {
        Ok(recorders) => recorders,
        Err(payload) => std::panic::resume_unwind(payload),
    };
    for recorder in &recorders {
        svckit_obs::absorb_into_current(recorder);
    }
}

/// Files the start phase's cross-shard sends of shard `from` straight into
/// their target queues; the start phase runs on one thread.
pub(crate) fn drain_outgoing_serial(shards: &mut [Shard], from: usize) {
    if shards[from].outgoing.is_empty() {
        return;
    }
    let outgoing = std::mem::take(&mut shards[from].outgoing);
    for (target, event) in outgoing {
        shards[target as usize].queue.push(event);
    }
}
