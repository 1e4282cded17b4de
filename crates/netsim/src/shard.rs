//! The conservative-lookahead sharded simulation engine.
//!
//! Selected by [`SimConfig::shards`] ≥ 2. Nodes are partitioned over `S`
//! shards; each shard owns its own event queue (timer wheel or heap),
//! clock, node table (processes, RNG streams, timers, trace mints), link
//! RNG streams and metrics, and runs on its own scoped thread. The shards
//! advance in lock-step *windows*:
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
//! # Why the output is identical for every shard count ≥ 2
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
//! * Link randomness (loss, duplication, jitter) is drawn from a
//!   dedicated per-directed-pair stream seeded from `(seed, from, to)`,
//!   advanced in the sender's dispatch order. Node randomness
//!   ([`Context::rand_u64`]) comes from the same per-node streams as the
//!   single engine.
//! * Metrics are sums of per-shard counters; the merged trace is sorted
//!   by `(time, start-phase, dispatching event key, record index)` —
//!   both aggregations are independent of which shard computed what.
//!
//! # Relation to `shards = 1`
//!
//! The single engine draws link randomness from one global stream in
//! global event order, which no partition can reproduce; on *lossy or
//! jittered* links the sharded engine is therefore a (deterministic)
//! different sample of the same distribution. On deterministic links —
//! zero jitter, loss 0 or 1, no duplication — no link randomness is ever
//! consumed, node RNG streams coincide, and both engines share one event
//! order, so `shards = 1` and `shards = N` produce byte-identical
//! reports. That envelope is what the sharded goldens, the oracle suite
//! in `tests/shard_oracle.rs`, and the CI `--shards 4` vs `--shards 1`
//! `cmp` step pin down.
//!
//! [`SimConfig::shards`]: crate::sim::SimConfig::shards
//! [`Context::rand_u64`]: crate::sim::Context::rand_u64

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use svckit_model::hash::FastMap;
use svckit_model::{Duration, Instant, PartId, PrimitiveEvent};
use svckit_obs::TraceCtx;

use crate::metrics::NetMetrics;
use crate::node::NodeTable;
use crate::rng::DeterministicRng;
use crate::sim::{
    provenance_key, Action, Context, EventKind, EventQueue, LinkTable, Payload, Process, Scheduled,
    SimConfig, SimError, SimReport, TraceBuf, TraceDest,
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

/// One spooled trace record with the sort key that reproduces the global
/// single-engine insertion order: records from the start phase come
/// first (in node order), then records grouped by the event that was
/// being dispatched, in that event's total-order position.
#[derive(Debug)]
struct SpooledRecord {
    time_us: u64,
    phase: u8,
    dispatch_key: u128,
    idx: u32,
    event: PrimitiveEvent,
}

/// Per-shard spool of service primitives recorded during a run, merged
/// into the shared [`TraceBuf`] after the worker threads join.
#[derive(Debug, Default)]
pub(crate) struct ShardTrace {
    records: Vec<SpooledRecord>,
    time_us: u64,
    phase: u8,
    dispatch_key: u128,
    idx: u32,
}

impl ShardTrace {
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

const PHASE_START: u8 = 0;
const PHASE_EVENT: u8 = 1;

/// Where a node lives in the sharded engine: its shard, and its slot in
/// that shard's [`NodeTable`].
#[derive(Debug, Clone, Copy)]
struct NodeLoc {
    shard: u32,
    slot: u32,
}

/// The global node registry: node id → location. The one map keyed by
/// node id, and the authority on which nodes exist (the undeliverable
/// check).
type Registry = FastMap<PartId, NodeLoc>;

/// One shard: a vertical slice of the simulation owning a subset of the
/// nodes and every piece of state their handlers can touch.
struct Shard {
    index: u32,
    seed: u64,
    /// Last locally processed firing instant.
    clock: Instant,
    queue: EventQueue,
    /// The state of every node this shard owns, one slot per node. Trace
    /// mints live here (not in the per-run worker recorder), so ids
    /// persist across run slices.
    nodes: NodeTable,
    /// Per-directed-pair link RNG streams, created lazily on first draw.
    pair_rngs: FastMap<(PartId, PartId), DeterministicRng>,
    last_arrival: FastMap<(PartId, PartId), Instant>,
    link_busy_until: FastMap<(PartId, PartId), Instant>,
    metrics: NetMetrics,
    trace: ShardTrace,
    action_buf: Vec<Action>,
    run_buf: Vec<Scheduled>,
    /// Cross-shard sends produced by the current window, flushed into the
    /// pairwise mailboxes before the next exchange barrier.
    outgoing: Vec<(u32, Scheduled)>,
    events_processed: u64,
    peak_queue_len: usize,
}

impl Shard {
    fn new(index: u32, seed: u64, backend: crate::sim::QueueBackend) -> Self {
        Shard {
            index,
            seed,
            clock: Instant::ZERO,
            queue: EventQueue::new(backend),
            nodes: NodeTable::default(),
            pair_rngs: FastMap::default(),
            last_arrival: FastMap::default(),
            link_busy_until: FastMap::default(),
            metrics: NetMetrics::new(),
            trace: ShardTrace::default(),
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
    fn dispatch<F>(
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
            trace: TraceDest::Shard(&mut self.trace),
            cur_trace: trace_ctx,
            tracer: &mut node.tracer,
        };
        call(node.process.as_mut(), &mut ctx);
        self.apply_actions(slot, now, &mut actions, registry, links);
        self.action_buf = actions;
    }

    /// The sharded twin of `SingleSim::apply_actions`: identical link
    /// semantics, but link randomness comes from the per-pair stream and
    /// cross-shard deliveries are routed through `outgoing`.
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
                    let link = links.link_for(node, to);
                    let loss = link.loss();
                    let duplicate_p = link.duplicate();
                    let latency = link.latency();
                    let jitter_bound = link.jitter().as_micros() + 1;
                    let ordered = link.is_ordered();
                    let transmission = link.transmission_time(payload.len());
                    // `coin` never draws for probabilities 0 and 1, and a
                    // jitter bound of 1 µs always yields 0 — so on fully
                    // deterministic links the pair stream is never even
                    // created, which is what makes the single engine's
                    // global stream irrelevant there.
                    if loss > 0.0 && self.pair_rng(node, to).coin(loss) {
                        self.metrics.record_drop();
                        svckit_obs::obs_count!("net.drops");
                        match ctx {
                            // Root-parented for the same reason as the
                            // single engine: resends carry the original
                            // send's context.
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
                    let duplicate = duplicate_p > 0.0 && self.pair_rng(node, to).coin(duplicate_p);
                    if duplicate {
                        self.metrics.record_duplicate();
                        svckit_obs::obs_count!("net.duplicates");
                    }
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
                    // original last, as in the single engine.
                    let extra = duplicate.then(|| Payload::clone(&payload));
                    for payload in extra.into_iter().chain(Some(payload)) {
                        let jitter = if jitter_bound > 1 {
                            Duration::from_micros(self.pair_rng(node, to).next_below(jitter_bound))
                        } else {
                            Duration::ZERO
                        };
                        let mut at = depart + latency + jitter;
                        if ordered {
                            let last = self.last_arrival.entry((node, to)).or_insert(Instant::ZERO);
                            if at < *last {
                                at = *last;
                            }
                            *last = at;
                        }
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
                    self.nodes.slot_mut(slot).bump_timer(id);
                }
            }
        }
    }

    fn pair_rng(&mut self, from: PartId, to: PartId) -> &mut DeterministicRng {
        let seed = self.seed;
        self.pair_rngs
            .entry((from, to))
            .or_insert_with(|| DeterministicRng::new(pair_seed(seed, from, to)))
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

    /// Dispatches one popped event (clock, metrics, obs, handler).
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
                    |p, c| {
                        p.on_message(c, from, payload);
                    },
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
                        |p, c| {
                            p.on_timer(c, id);
                        },
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

    /// The lock-step worker: exchange, agree, advance — until every shard
    /// is idle or the next global event is past the deadline.
    #[allow(clippy::too_many_arguments)]
    fn worker(
        &mut self,
        barrier: &Barrier,
        next_at: &[AtomicU64],
        outboxes: &[Vec<Mutex<Vec<Scheduled>>>],
        registry: &Registry,
        links: &LinkTable,
        lookahead_us: u64,
        deadline: Instant,
    ) {
        let me = self.index as usize;
        let deadline_us = deadline.as_micros();
        loop {
            // Exchange: by this barrier every shard has flushed the
            // previous window's sends, so the mailbox matrix is stable.
            barrier.wait();
            for column in outboxes {
                let mut inbox = column[me].lock().expect("mailbox poisoned");
                for event in inbox.drain(..) {
                    self.queue.push(event);
                }
            }
            next_at[me].store(
                self.queue.next_at().map_or(IDLE, |at| at.as_micros()),
                Ordering::SeqCst,
            );
            // Agree: all published; every shard computes the same minimum.
            barrier.wait();
            let t = next_at
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .min()
                .expect("at least one shard");
            if t == IDLE || t > deadline_us {
                return;
            }
            // Advance: the window [T, T + W) is safe for every shard.
            self.process_window(t.saturating_add(lookahead_us), deadline, registry, links);
            for (target, event) in self.outgoing.drain(..) {
                outboxes[me][target as usize]
                    .lock()
                    .expect("mailbox poisoned")
                    .push(event);
            }
        }
    }
}

/// The sharded engine behind [`crate::sim::Simulator`]. See the module
/// docs for the protocol and its guarantees.
pub(crate) struct ShardedSim {
    config: SimConfig,
    clock: Instant,
    started: bool,
    /// Every bound node's shard and slot (see [`Registry`]).
    registry: Registry,
    /// Processes staged before the first run; node → shard binding
    /// happens once, when the full population is known.
    staged: BTreeMap<PartId, Box<dyn Process>>,
    shards: Vec<Shard>,
    links: LinkTable,
    trace: TraceBuf,
}

impl ShardedSim {
    pub(crate) fn new(config: SimConfig) -> Self {
        let shard_count = config.shard_count();
        let shards = (0..shard_count)
            .map(|i| Shard::new(i, config.seed(), config.queue()))
            .collect();
        let links = LinkTable::new(config.default_link.clone());
        ShardedSim {
            config,
            clock: Instant::ZERO,
            started: false,
            registry: FastMap::default(),
            staged: BTreeMap::new(),
            shards,
            links,
            trace: TraceBuf::new(),
        }
    }

    pub(crate) fn add_process(
        &mut self,
        id: PartId,
        process: Box<dyn Process>,
    ) -> Result<(), SimError> {
        if self.staged.contains_key(&id) || self.registry.contains_key(&id) {
            return Err(SimError::DuplicateNode(id));
        }
        if self.started {
            // Late registration (after the first run): bind immediately,
            // round-robin over the shards. Mirrors the single engine,
            // where a late process gets no `on_start` either.
            let shard = (self.registry.len() as u32) % self.shard_count();
            self.bind(id, process, shard);
        } else {
            self.staged.insert(id, process);
        }
        Ok(())
    }

    fn bind(&mut self, id: PartId, process: Box<dyn Process>, shard: u32) -> NodeLoc {
        let slot = self.shards[shard as usize]
            .nodes
            .push(self.config.seed(), id, process);
        let loc = NodeLoc { shard, slot };
        self.registry.insert(id, loc);
        loc
    }

    pub(crate) fn links_mut(&mut self) -> &mut LinkTable {
        &mut self.links
    }

    pub(crate) fn now(&self) -> Instant {
        self.clock
    }

    pub(crate) fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    pub(crate) fn process_count(&self) -> usize {
        self.staged.len() + self.registry.len()
    }

    pub(crate) fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    pub(crate) fn peak_queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.peak_queue_len).sum()
    }

    /// Binds staged processes to shards (sorted node order, round-robin)
    /// and runs every `on_start` serially in global node order — the same
    /// order the single engine uses, so startup actions interleave
    /// identically. Nothing is bound before the first run, so the staged
    /// nodes are the whole population.
    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let staged = std::mem::take(&mut self.staged);
        let count = self.shard_count();
        let order: Vec<(PartId, NodeLoc)> = staged
            .into_iter()
            .enumerate()
            .map(|(i, (id, process))| (id, self.bind(id, process, (i as u32) % count)))
            .collect();
        for (id, loc) in order {
            // Anchor start-phase trace records at (t=0, node, 0) so the
            // merge reproduces the single engine's node-order startup.
            let dispatch_key = provenance_key(Instant::ZERO, id, 0);
            let (shard, registry, links) = {
                // Split borrows: the dispatched shard is mutable, the
                // registry and links are shared.
                (
                    &mut self.shards[loc.shard as usize],
                    &self.registry,
                    &self.links,
                )
            };
            shard.dispatch(
                loc.slot,
                Instant::ZERO,
                PHASE_START,
                dispatch_key,
                None,
                registry,
                links,
                |p, ctx| p.on_start(ctx),
            );
            // Startup actions may target any shard; route them now, while
            // everything is still single-threaded.
            Self::drain_outgoing_serial(&mut self.shards, loc.shard as usize);
        }
    }

    fn drain_outgoing_serial(shards: &mut [Shard], from: usize) {
        if shards[from].outgoing.is_empty() {
            return;
        }
        let outgoing = std::mem::take(&mut shards[from].outgoing);
        for (target, event) in outgoing {
            shards[target as usize].queue.push(event);
        }
    }

    pub(crate) fn run_to_quiescence(
        &mut self,
        max_elapsed: Duration,
    ) -> Result<SimReport, SimError> {
        if self.staged.is_empty() && self.registry.is_empty() {
            return Err(SimError::NoProcesses);
        }
        let lookahead = self.links.min_latency();
        if lookahead == Duration::ZERO {
            return Err(SimError::ZeroLookahead);
        }
        self.start_if_needed();
        let deadline = self.clock + max_elapsed;
        let shard_count = self.shards.len();

        let barrier = Barrier::new(shard_count);
        let next_at: Vec<AtomicU64> = (0..shard_count).map(|_| AtomicU64::new(IDLE)).collect();
        let outboxes: Vec<Vec<Mutex<Vec<Scheduled>>>> = (0..shard_count)
            .map(|_| (0..shard_count).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let registry = &self.registry;
        let links = &self.links;
        let lookahead_us = lookahead.as_micros();

        // One scoped thread per shard, re-spawned per run slice: fault
        // injection between slices then needs no synchronization at all.
        // Each worker records obs under its own recorder; the recorders
        // are folded into the caller's in shard order afterwards, keeping
        // obs output independent of thread scheduling.
        let recorders: Vec<svckit_obs::Recorder> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|shard| {
                    let barrier = &barrier;
                    let next_at = next_at.as_slice();
                    let outboxes = outboxes.as_slice();
                    scope.spawn(move || {
                        let ((), recorder) =
                            svckit_obs::with_recorder(svckit_obs::Recorder::new(), || {
                                shard.worker(
                                    barrier,
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
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        for recorder in &recorders {
            svckit_obs::absorb_into_current(recorder);
        }

        // Deterministic trace merge: spooled records sort by
        // (time, phase, dispatching key, record index) — the exact order
        // the single engine would have appended them in.
        let mut spooled: Vec<SpooledRecord> = Vec::new();
        for shard in &mut self.shards {
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
            self.trace.push(record.event);
        }

        let quiescent = self.shards.iter_mut().all(|s| s.queue.is_empty());
        if quiescent {
            let last = self
                .shards
                .iter()
                .map(|s| s.clock)
                .max()
                .unwrap_or(self.clock);
            self.clock = self.clock.max(last);
        } else {
            self.clock = deadline;
        }
        let mut metrics = NetMetrics::new();
        for shard in &self.shards {
            metrics.absorb(&shard.metrics);
            shard.nodes.collect_senders(metrics.per_sender_mut());
        }
        Ok(SimReport::assemble(
            self.clock,
            quiescent,
            metrics,
            self.trace.snapshot(),
        ))
    }
}
