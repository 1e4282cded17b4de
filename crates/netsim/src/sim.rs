//! The discrete-event simulator core.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use svckit_model::hash::FastMap;
use svckit_model::{Duration, Instant, PartId, PrimitiveEvent, Sap, Trace, Value};
use svckit_obs::TraceCtx;

use crate::link::LinkConfig;
use crate::metrics::NetMetrics;
use crate::node::NodeTracer;
use crate::rng::DeterministicRng;
use crate::shard::{self, NodeLoc, Registry, Shard, TraceSpool, PHASE_START};
use crate::wheel::TimerWheel;

/// A message payload as it travels through the simulator.
///
/// Payloads are reference-counted byte slices: a send, a duplicated
/// delivery, and a handler re-forwarding the bytes it received all share
/// one allocation. [`Context::send`] accepts anything `Into<Payload>`, so
/// call sites keep passing `Vec<u8>` (one conversion at the edge) or an
/// existing `Payload` (free).
pub type Payload = Arc<[u8]>;

/// Identifier a process chooses for one of its timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimerId(pub u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer-{}", self.0)
    }
}

/// Behaviour attached to a node of the simulated network.
///
/// All handlers execute in zero simulated time; the passage of time comes
/// from link latencies and timers. Handlers interact with the world only
/// through the [`Context`], which keeps the simulation deterministic.
///
/// `Send` is a supertrait because the sharded engine runs each shard's
/// processes on its own scoped thread; a process never migrates between
/// shards mid-run, but it must be movable to the thread that owns it.
pub trait Process: Send {
    /// Called once, at time zero, before any message flows.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called when a message addressed to this node arrives.
    fn on_message(&mut self, ctx: &mut Context<'_>, from: PartId, payload: Payload);

    /// Called when a timer set via [`Context::set_timer`] fires (and was not
    /// cancelled or superseded).
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerId) {
        let _ = (ctx, timer);
    }
}

/// What a handler asked the simulator to do.
///
/// Sends and timers carry the dispatching handler's [`TraceCtx`]
/// *side-band*: the causal context rides on the simulator event, never
/// inside the wire payload, so codec output is byte-for-byte unchanged
/// whether tracing is on or off.
#[derive(Debug)]
pub(crate) enum Action {
    Send {
        to: PartId,
        payload: Payload,
        ctx: Option<TraceCtx>,
        /// True when this is a retransmission of an earlier frame; the
        /// transit span is then recorded as `net.retransmit`.
        retransmit: bool,
    },
    SetTimer {
        delay: Duration,
        id: TimerId,
        ctx: Option<TraceCtx>,
    },
    CancelTimer {
        id: TimerId,
    },
}

/// The capabilities handed to a [`Process`] handler.
#[derive(Debug)]
pub struct Context<'a> {
    pub(crate) now: Instant,
    pub(crate) id: PartId,
    pub(crate) actions: &'a mut Vec<Action>,
    pub(crate) rng: &'a mut DeterministicRng,
    pub(crate) trace: &'a mut TraceSpool,
    /// The causal context of the event being dispatched (side-band from
    /// the delivering message or firing timer); inherited by every send
    /// and timer this handler issues.
    pub(crate) cur_trace: Option<TraceCtx>,
    /// This node's trace-id mint and open-request slot.
    pub(crate) tracer: &'a mut NodeTracer,
}

impl Context<'_> {
    /// The current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// This process's node identity.
    pub fn id(&self) -> PartId {
        self.id
    }

    /// Sends `payload` to node `to` over the configured link.
    ///
    /// Accepts a `Vec<u8>`, a boxed or borrowed byte slice, or an existing
    /// [`Payload`]; re-sending a received payload is a reference-count bump,
    /// not a copy.
    pub fn send(&mut self, to: PartId, payload: impl Into<Payload>) {
        self.actions.push(Action::Send {
            to,
            payload: payload.into(),
            ctx: self.cur_trace,
            retransmit: false,
        });
    }

    /// Sends `payload` under an explicit causal context instead of the
    /// dispatch-inherited one. Reliability layers use this to resend
    /// buffered frames under the context of the *original* send (and
    /// flag the transit as a retransmission), and to drain backlog
    /// frames whose context was captured when the application sent
    /// them, not when the ACK that freed the window arrived.
    pub fn send_with_ctx(
        &mut self,
        to: PartId,
        payload: impl Into<Payload>,
        ctx: Option<TraceCtx>,
        retransmit: bool,
    ) {
        self.actions.push(Action::Send {
            to,
            payload: payload.into(),
            ctx,
            retransmit,
        });
    }

    /// Schedules (or reschedules) timer `id` to fire after `delay`.
    /// Re-setting a pending timer supersedes the earlier schedule.
    ///
    /// The timer captures the current causal context (demoted to the
    /// trace root — by the time it fires, the span that delivered this
    /// dispatch has long closed), so timer-driven continuations such as
    /// retransmissions and polls stay on their request's trace.
    pub fn set_timer(&mut self, delay: Duration, id: TimerId) {
        self.actions.push(Action::SetTimer {
            delay,
            id,
            ctx: self.cur_trace.map(TraceCtx::timer_carry),
        });
    }

    /// Cancels a pending timer. Cancelling a timer that is not pending is a
    /// no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer { id });
    }

    /// Records the occurrence of a service primitive at `sap`, timestamped
    /// now. The merged trace is returned in the [`SimReport`].
    pub fn record_primitive(&mut self, sap: Sap, primitive: impl Into<String>, args: Vec<Value>) {
        self.trace
            .push(PrimitiveEvent::new(self.now, sap, primitive, args));
    }

    /// Opens a causal trace rooted at this node: mints a fresh
    /// `(trace_id, root_span)` pair, registers it as the node's open
    /// request, and makes it the current context — every send and timer
    /// issued from here on (on this node and, transitively, on every
    /// node the request's messages reach) carries it. Call when a user
    /// part *issues* a service primitive. No-op when obs sites are
    /// compiled out.
    pub fn trace_begin(&mut self) {
        if !svckit_obs::sites_enabled() {
            return;
        }
        let trace_id = self.tracer.mint(self.id);
        let root = self.tracer.mint(self.id);
        self.tracer.open = Some((trace_id, root));
        self.cur_trace = Some(TraceCtx::root(trace_id, root));
        svckit_obs::ctx::event_traced(
            svckit_obs::trace::TRACE_BEGIN,
            "trace",
            self.id.raw(),
            0,
            self.now.as_micros(),
            0,
            trace_id,
            root,
            0,
        );
    }

    /// Completes this node's open trace, if any: stamps the end marker
    /// that closes the root span. Call when the terminating indication
    /// is delivered *to* the user part. The completing dispatch may run
    /// under a different trace's context (another user's `free` chain
    /// caused the grant); the end marker belongs to the node's own open
    /// request regardless. Clears the current context, so work issued
    /// after completion starts untraced. No-op when obs sites are
    /// compiled out.
    pub fn trace_end(&mut self) {
        if !svckit_obs::sites_enabled() {
            return;
        }
        if let Some((trace_id, root)) = self.tracer.open.take() {
            svckit_obs::ctx::event_traced(
                svckit_obs::trace::TRACE_END,
                "trace",
                self.id.raw(),
                0,
                self.now.as_micros(),
                0,
                trace_id,
                root,
                0,
            );
        }
        self.cur_trace = None;
    }

    /// The causal context of the event being dispatched, if traced.
    pub fn trace_ctx(&self) -> Option<TraceCtx> {
        self.cur_trace
    }

    /// Deterministic random 64-bit value (drawn from the simulator's seeded
    /// stream).
    pub fn rand_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Deterministic random value in `[0, bound)`.
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        self.rng.next_below(bound)
    }
}

/// Copy-on-write accumulator for the merged service-primitive trace.
///
/// The simulator appends through [`Arc::make_mut`]; each [`SimReport`]
/// shares the `Arc` instead of cloning the whole trace. Handlers record
/// primitives at the simulator's nondecreasing clock, so insertion order is
/// already time order — the watermark tracks that, and the sort in
/// [`TraceBuf::snapshot`] only runs in the (never expected) out-of-order
/// case.
#[derive(Debug)]
pub(crate) struct TraceBuf {
    trace: Arc<Trace>,
    high_water: Instant,
    sorted: bool,
}

impl TraceBuf {
    pub(crate) fn new() -> Self {
        TraceBuf {
            trace: Arc::new(Trace::new()),
            high_water: Instant::ZERO,
            sorted: true,
        }
    }

    pub(crate) fn push(&mut self, event: PrimitiveEvent) {
        if event.time() < self.high_water {
            self.sorted = false;
        } else {
            self.high_water = event.time();
        }
        Arc::make_mut(&mut self.trace).push(event);
    }

    /// A time-sorted shared snapshot. The copy-on-write clone inside
    /// `make_mut` only happens on the first append *after* a snapshot was
    /// taken, and only if that snapshot is still alive.
    pub(crate) fn snapshot(&mut self) -> Arc<Trace> {
        if !self.sorted {
            Arc::make_mut(&mut self.trace).sort_by_time();
            self.sorted = true;
        }
        Arc::clone(&self.trace)
    }
}

/// Which data structure backs the simulator's event queue.
///
/// Both backends produce byte-identical event streams — the same `(at,
/// seq)` total order, the same tie-breaks, the same stale-timer drops —
/// as enforced by the oracle suite in `tests/wheel_oracle.rs`. The wheel
/// is the default because its push/pop are amortized `O(1)`; the heap is
/// kept as the obviously-correct reference for differential testing and
/// benchmarking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueBackend {
    /// Hierarchical timer wheel (`O(1)` amortized push/pop). The default.
    #[default]
    Wheel,
    /// `BinaryHeap` reference implementation (`O(log n)` push/pop).
    Heap,
}

/// Configuration of a [`Simulator`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    seed: u64,
    pub(crate) default_link: LinkConfig,
    queue: QueueBackend,
    shards: u32,
}

impl SimConfig {
    /// Creates a configuration with the given PRNG seed and the default
    /// (LAN-like) link everywhere.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            default_link: LinkConfig::default(),
            queue: QueueBackend::default(),
            shards: 1,
        }
    }

    /// Sets the link used for node pairs without an explicit
    /// [`Simulator::set_link`] entry (builder-style).
    #[must_use]
    pub fn default_link(mut self, link: LinkConfig) -> Self {
        self.default_link = link;
        self
    }

    /// Selects the event-queue backend (builder-style). Both backends are
    /// observably identical; see [`QueueBackend`].
    #[must_use]
    pub fn queue_backend(mut self, backend: QueueBackend) -> Self {
        self.queue = backend;
        self
    }

    /// Partitions the nodes over `shards` conservative-lookahead shards
    /// (builder-style). `0` and `1` both select one shard, which runs on
    /// the caller's thread; see the `shard` module docs for the lock-step
    /// protocol of two or more and for the determinism guarantees across
    /// shard counts.
    #[must_use]
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// The PRNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured shard count (at least 1).
    pub fn shard_count(&self) -> u32 {
        self.shards.max(1)
    }
}

/// Errors from simulator assembly or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Two processes were registered under the same node id.
    DuplicateNode(PartId),
    /// A run was requested with no registered processes.
    NoProcesses,
    /// A run over two or more shards needs a positive minimum link
    /// latency to bound its lookahead window; a zero-latency link would
    /// force zero-width windows and the shards could never advance. One
    /// shard has no window and accepts zero-latency links.
    ZeroLookahead,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DuplicateNode(id) => write!(f, "node {id} registered twice"),
            SimError::NoProcesses => write!(f, "simulator has no processes"),
            SimError::ZeroLookahead => write!(
                f,
                "sharded simulation requires every link latency to be positive \
                 (the minimum latency is the conservative lookahead window)"
            ),
        }
    }
}

impl Error for SimError {}

/// Outcome of a simulation run.
///
/// The report shares the simulator's copy-on-write trace rather than
/// copying it. While a report is alive, the first primitive the simulator
/// records in a later [`Simulator::run_to_quiescence`] call copies the whole
/// trace, so a loop that runs in slices should drop (or rebind) each report
/// before it runs the next slice.
#[derive(Debug, Clone)]
pub struct SimReport {
    end_time: Instant,
    quiescent: bool,
    metrics: NetMetrics,
    trace: Arc<Trace>,
}

impl SimReport {
    /// Simulated time when the run stopped.
    pub fn end_time(&self) -> Instant {
        self.end_time
    }

    /// Whether the event queue drained before the time limit.
    pub fn is_quiescent(&self) -> bool {
        self.quiescent
    }

    /// Network counters.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// The merged, time-ordered service-primitive trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the report and returns its trace. The trace moves out
    /// without a copy when nothing else shares it, i.e. once the simulator
    /// and every other report of it are dropped; otherwise it is cloned.
    pub fn into_trace(self) -> Trace {
        Arc::unwrap_or_clone(self.trace)
    }
}

/// A pending event. `slot` is the target node's slot in the node table
/// of the shard that owns the queue (the shard the node lives on),
/// resolved when the event was scheduled.
#[derive(Debug)]
pub(crate) enum EventKind {
    Deliver {
        slot: u32,
        from: PartId,
        payload: Payload,
        /// Causal context riding side-band on the delivery (never in the
        /// payload bytes). `span_id` is the transit span that carried it.
        ctx: Option<TraceCtx>,
    },
    Timer {
        slot: u32,
        id: TimerId,
        generation: u64,
        /// Causal context captured when the timer was set, demoted to the
        /// trace root (see [`Context::set_timer`]).
        ctx: Option<TraceCtx>,
    },
}

impl EventKind {
    /// The slot of the node this event will be dispatched on.
    pub(crate) fn target(&self) -> u32 {
        match self {
            EventKind::Deliver { slot, .. } | EventKind::Timer { slot, .. } => *slot,
        }
    }
}

/// Total-order tie-break for events sharing a firing instant: the
/// *provenance key* `(sched_at, scheduling node, per-node count)` packed
/// into a `u128`.
///
/// The key is a pure function of local scheduling history — when it was
/// scheduled, by whom, and how many events that node had scheduled before
/// — so it is identical no matter how nodes are partitioned into shards.
/// Because the simulation clock is nondecreasing, provenance order also
/// matches the old global-sequence order whenever same-instant events
/// were scheduled at different times; within one handler invocation the
/// per-node count preserves action order exactly.
pub(crate) fn node_seed(seed: u64, id: PartId) -> u64 {
    seed.wrapping_add(id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ 0x5851_F42D_4C95_7F2D
}

pub(crate) fn provenance_key(sched_at: Instant, node: PartId, count: u64) -> u128 {
    debug_assert!(node.raw() < (1 << 32), "node id {node} exceeds 32 bits");
    debug_assert!(count < (1 << 32), "per-node schedule count overflow");
    ((sched_at.as_micros() as u128) << 64)
        | (((node.raw() & 0xFFFF_FFFF) as u128) << 32)
        | ((count & 0xFFFF_FFFF) as u128)
}

#[derive(Debug)]
pub(crate) struct Scheduled {
    pub(crate) at: Instant,
    pub(crate) key: u128,
    pub(crate) kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

/// The simulator's event queue, behind the backend selected in
/// [`SimConfig`]. Both variants pop events in ascending `(at, key)`
/// order; dispatching through a two-way enum costs one predictable
/// branch and avoids a generic parameter leaking into [`Simulator`].
#[derive(Debug)]
pub(crate) enum EventQueue {
    Wheel(TimerWheel),
    Heap(BinaryHeap<Reverse<Scheduled>>),
}

impl EventQueue {
    pub(crate) fn new(backend: QueueBackend) -> Self {
        match backend {
            QueueBackend::Wheel => EventQueue::Wheel(TimerWheel::new()),
            QueueBackend::Heap => EventQueue::Heap(BinaryHeap::new()),
        }
    }

    pub(crate) fn push(&mut self, event: Scheduled) {
        match self {
            EventQueue::Wheel(wheel) => wheel.push(event),
            EventQueue::Heap(heap) => heap.push(Reverse(event)),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled> {
        match self {
            EventQueue::Wheel(wheel) => wheel.pop(),
            EventQueue::Heap(heap) => heap.pop().map(|Reverse(event)| event),
        }
    }

    /// Pops a *run*: the maximal prefix of consecutive events that share
    /// one firing instant and one target node, appended to `out`. Batch
    /// dispatch amortizes queue bookkeeping over the run without changing
    /// the pop order — the events come out exactly as repeated [`pop`]
    /// would hand them out.
    ///
    /// [`pop`]: EventQueue::pop
    pub(crate) fn pop_run(&mut self, out: &mut Vec<Scheduled>) {
        let Some(first) = self.pop() else { return };
        let at = first.at;
        let target = first.kind.target();
        out.push(first);
        while self
            .peek()
            .is_some_and(|next| next.at == at && next.kind.target() == target)
        {
            let next = self.pop();
            debug_assert!(next.is_some(), "a peeked event pops");
            out.extend(next);
        }
    }

    fn peek(&mut self) -> Option<&Scheduled> {
        match self {
            EventQueue::Wheel(wheel) => wheel.peek(),
            EventQueue::Heap(heap) => heap.peek().map(|Reverse(event)| event),
        }
    }

    /// Firing instant of the earliest pending event, if any.
    pub(crate) fn next_at(&mut self) -> Option<Instant> {
        self.peek().map(|e| e.at)
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Wheel(wheel) => wheel.len(),
            EventQueue::Heap(heap) => heap.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-pair link configuration of a simulated network: explicit
/// directed links over a default, plus the saved pre-partition state
/// that [`LinkTable::heal`] restores. One table, shared read-only by
/// every shard during a run.
#[derive(Debug)]
pub(crate) struct LinkTable {
    pub(crate) default: LinkConfig,
    links: FastMap<(PartId, PartId), LinkConfig>,
    /// Pre-partition link configs, restored on heal (`None` = was default).
    healed: FastMap<(PartId, PartId), Option<LinkConfig>>,
}

impl LinkTable {
    pub(crate) fn new(default: LinkConfig) -> Self {
        LinkTable {
            default,
            links: FastMap::default(),
            healed: FastMap::default(),
        }
    }

    pub(crate) fn set(&mut self, from: PartId, to: PartId, link: LinkConfig) {
        self.links.insert((from, to), link);
    }

    pub(crate) fn set_symmetric(&mut self, a: PartId, b: PartId, link: LinkConfig) {
        self.links.insert((a, b), link.clone());
        self.links.insert((b, a), link);
    }

    pub(crate) fn link_for(&self, from: PartId, to: PartId) -> &LinkConfig {
        // Common case in benchmarks and simple topologies: no per-pair
        // overrides at all, so skip the hash entirely.
        if self.links.is_empty() {
            return &self.default;
        }
        self.links.get(&(from, to)).unwrap_or(&self.default)
    }

    /// See [`Simulator::partition`].
    pub(crate) fn partition(&mut self, a: PartId, b: PartId) {
        for (from, to) in [(a, b), (b, a)] {
            if self.healed.contains_key(&(from, to)) {
                continue;
            }
            let base = self.link_for(from, to).clone();
            self.healed
                .insert((from, to), self.links.get(&(from, to)).cloned());
            self.links.insert((from, to), base.with_loss(1.0));
        }
    }

    /// See [`Simulator::heal`].
    pub(crate) fn heal(&mut self, a: PartId, b: PartId) {
        for (from, to) in [(a, b), (b, a)] {
            if let Some(previous) = self.healed.remove(&(from, to)) {
                match previous {
                    Some(link) => {
                        self.links.insert((from, to), link);
                    }
                    None => {
                        self.links.remove(&(from, to));
                    }
                }
            }
        }
    }

    /// The smallest latency any message can currently experience: the
    /// minimum over the default link and every explicit link. This bounds
    /// the conservative lookahead window of a run over two or more shards
    /// — any cross-shard send departs at least this far before it can
    /// arrive.
    pub(crate) fn min_latency(&self) -> Duration {
        self.links
            .values()
            .map(LinkConfig::latency)
            .fold(self.default.latency(), Duration::min)
    }
}

/// A deterministic discrete-event network simulator.
///
/// The nodes are dealt over [`SimConfig::shards`] shards, one by default.
/// One shard runs on the caller's thread; two or more run in lock-step
/// windows, one scoped thread each. See the `shard` module docs for the
/// protocol and the determinism guarantees.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Simulator {
    seed: u64,
    clock: Instant,
    started: bool,
    /// Every node's shard and slot (see [`Registry`]).
    registry: Registry,
    shards: Vec<Shard>,
    links: LinkTable,
    trace: TraceBuf,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("clock", &self.clock)
            .field("processes", &self.registry.len())
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Creates a simulator from a configuration.
    pub fn new(config: SimConfig) -> Self {
        let shard_count = config.shard_count();
        Simulator {
            seed: config.seed,
            clock: Instant::ZERO,
            started: false,
            registry: Registry::default(),
            shards: (0..shard_count)
                .map(|i| Shard::new(i, config.seed, config.queue, shard_count))
                .collect(),
            links: LinkTable::new(config.default_link),
            trace: TraceBuf::new(),
        }
    }

    /// Registers a process at node `id`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateNode`] when `id` is already taken.
    pub fn add_process(&mut self, id: PartId, process: Box<dyn Process>) -> Result<(), SimError> {
        // Round-robin in registration order. The first run re-deals the
        // nodes in id order if they were registered out of order.
        let shard = (self.registry.len() % self.shards.len()) as u32;
        match self.registry.entry(id) {
            Entry::Occupied(_) => Err(SimError::DuplicateNode(id)),
            Entry::Vacant(entry) => {
                let slot = self.shards[shard as usize]
                    .nodes
                    .push(self.seed, id, process);
                entry.insert(NodeLoc { shard, slot });
                Ok(())
            }
        }
    }

    /// Configures the directed link `from → to`.
    pub fn set_link(&mut self, from: PartId, to: PartId, link: LinkConfig) {
        self.links.set(from, to, link);
    }

    /// Configures both directions between `a` and `b`.
    pub fn set_link_symmetric(&mut self, a: PartId, b: PartId, link: LinkConfig) {
        self.links.set_symmetric(a, b, link);
    }

    /// Partitions `a` from `b`: every message between them (both
    /// directions) is dropped until [`Simulator::heal`] is called.
    /// Messages already in flight still arrive. Call between
    /// [`Simulator::run_to_quiescence`] slices to inject failures mid-run.
    /// Partitioning an already-partitioned pair is a no-op, so the saved
    /// pre-partition configuration survives repeated calls.
    pub fn partition(&mut self, a: PartId, b: PartId) {
        self.links.partition(a, b);
    }

    /// Heals a partition created by [`Simulator::partition`], restoring the
    /// previous link configuration (explicit or default).
    pub fn heal(&mut self, a: PartId, b: PartId) {
        self.links.heal(a, b);
    }

    /// The current simulated time.
    pub fn now(&self) -> Instant {
        self.clock
    }

    /// The id of node `i` in dealing order: `add_process` binds the `i`-th
    /// registered node to slot `i / S` of shard `i % S`.
    fn dealt_id(&self, i: usize) -> PartId {
        let count = self.shards.len();
        self.shards[i % count].nodes.slot((i / count) as u32).id
    }

    /// Runs every registered node's `on_start` once, serially, in
    /// ascending node-id order, with node `i` of that order on shard
    /// `i % S`. A node added after this point gets no `on_start`.
    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let nodes = self.registry.len();
        if (1..nodes).any(|i| self.dealt_id(i - 1) > self.dealt_id(i)) {
            self.redeal();
        }
        let count = self.shards.len();
        for i in 0..nodes {
            let (shard, slot) = (i % count, (i / count) as u32);
            let id = self.shards[shard].nodes.slot(slot).id;
            // Anchor start-phase trace records at (t=0, node, 0), so the
            // merge keeps them in node order ahead of every event.
            self.shards[shard].dispatch(
                slot,
                Instant::ZERO,
                PHASE_START,
                provenance_key(Instant::ZERO, id, 0),
                None,
                &self.registry,
                &self.links,
                |p, ctx| p.on_start(ctx),
            );
            // Startup actions may target any shard; route them now, while
            // everything is still single-threaded.
            shard::drain_outgoing_serial(&mut self.shards, shard);
        }
    }

    /// Re-binds the nodes as registration in ascending id order would
    /// have, and updates the registry. Only reached when nodes were
    /// registered out of id order.
    fn redeal(&mut self) {
        let mut nodes: Vec<_> = self
            .shards
            .iter_mut()
            .flat_map(|s| s.nodes.take())
            .collect();
        nodes.sort_unstable_by_key(|node| node.id);
        let count = self.shards.len();
        for (i, node) in nodes.into_iter().enumerate() {
            let id = node.id;
            let shard = (i % count) as u32;
            let slot = self.shards[shard as usize].nodes.push_slot(node);
            self.registry.insert(id, NodeLoc { shard, slot });
        }
    }

    /// Runs until the event queue drains or `max_elapsed` simulated time has
    /// passed since the start of this call.
    ///
    /// Can be called repeatedly; the clock, metrics and trace persist across
    /// calls. Drop the previous call's [`SimReport`] before calling again:
    /// while it is alive it shares the trace, and the next recorded
    /// primitive then copies the whole trace instead of appending in place.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoProcesses`] when no process is registered, and
    /// [`SimError::ZeroLookahead`] when the run has two or more shards but
    /// some link latency is zero.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any handler, with the handler's own payload,
    /// whichever shard ran it.
    pub fn run_to_quiescence(&mut self, max_elapsed: Duration) -> Result<SimReport, SimError> {
        if self.registry.is_empty() {
            return Err(SimError::NoProcesses);
        }
        if self.shards.len() > 1 && self.links.min_latency() == Duration::ZERO {
            return Err(SimError::ZeroLookahead);
        }
        self.start_if_needed();
        let deadline = self.clock + max_elapsed;
        match self.shards.as_mut_slice() {
            [shard] => shard.run_serial(deadline, &self.registry, &self.links),
            shards => shard::run_lockstep(shards, &self.registry, &self.links, deadline),
        }
        shard::merge_spools(&mut self.shards, &mut self.trace);

        let quiescent = self.shards.iter().all(|s| s.queue.is_empty());
        self.clock = if quiescent {
            // The clock stays at the last event time.
            self.shards
                .iter()
                .map(|s| s.clock)
                .fold(self.clock, Instant::max)
        } else {
            deadline
        };
        let mut metrics = NetMetrics::new();
        for shard in &self.shards {
            metrics.absorb(&shard.metrics);
            shard.nodes.collect_senders(metrics.per_sender_mut());
        }
        Ok(SimReport {
            end_time: self.clock,
            quiescent,
            metrics,
            trace: self.trace.snapshot(),
        })
    }

    /// Total number of events dispatched so far, across all runs (and all
    /// shards). Engine bookkeeping, deliberately not part of [`SimReport`].
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// High-water mark of pending events (live timers plus in-flight
    /// messages), summed over the per-shard high-water marks.
    pub fn peak_queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.peak_queue_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends `count` messages to a peer at start, spaced by timers.
    struct Chatter {
        peer: PartId,
        remaining: u32,
        received: u32,
    }

    impl Process for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if self.remaining > 0 {
                ctx.set_timer(Duration::from_millis(1), TimerId(1));
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: PartId, _payload: Payload) {
            self.received += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId) {
            ctx.send(self.peer, vec![0u8; 8]);
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.set_timer(Duration::from_millis(1), TimerId(1));
            }
        }
    }

    fn two_node_sim(link: LinkConfig, seed: u64, count: u32) -> Simulator {
        let mut sim = Simulator::new(SimConfig::new(seed).default_link(link));
        sim.add_process(
            PartId::new(1),
            Box::new(Chatter {
                peer: PartId::new(2),
                remaining: count,
                received: 0,
            }),
        )
        .unwrap();
        sim.add_process(
            PartId::new(2),
            Box::new(Chatter {
                peer: PartId::new(1),
                remaining: 0,
                received: 0,
            }),
        )
        .unwrap();
        sim
    }

    #[test]
    fn runs_to_quiescence_and_counts_messages() {
        let mut sim = two_node_sim(LinkConfig::lan(), 1, 10);
        let report = sim.run_to_quiescence(Duration::from_secs(10)).unwrap();
        assert!(report.is_quiescent());
        assert_eq!(report.metrics().messages_sent(), 10);
        assert_eq!(report.metrics().messages_delivered(), 10);
        assert!(report.end_time() > Instant::ZERO);
    }

    #[test]
    fn same_seed_same_outcome() {
        let run = |seed| {
            let mut sim = two_node_sim(
                LinkConfig::lossy(Duration::from_millis(1), Duration::from_millis(1), 0.3),
                seed,
                50,
            );
            let r = sim.run_to_quiescence(Duration::from_secs(60)).unwrap();
            (r.end_time(), r.metrics().clone())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn lossy_link_drops_about_the_right_fraction() {
        let mut sim = two_node_sim(
            LinkConfig::lossy(Duration::from_millis(1), Duration::ZERO, 0.5),
            3,
            2000,
        );
        let report = sim.run_to_quiescence(Duration::from_secs(600)).unwrap();
        let dropped = report.metrics().messages_dropped() as f64;
        assert!((dropped / 2000.0 - 0.5).abs() < 0.05, "dropped {dropped}");
        assert_eq!(
            report.metrics().messages_delivered() + report.metrics().messages_dropped(),
            2000
        );
    }

    #[test]
    fn duplicating_link_delivers_extra_copies() {
        let mut sim = two_node_sim(
            LinkConfig::reliable_datagram(Duration::from_millis(1), Duration::ZERO)
                .with_duplication(1.0),
            3,
            10,
        );
        let report = sim.run_to_quiescence(Duration::from_secs(60)).unwrap();
        assert_eq!(report.metrics().messages_duplicated(), 10);
        assert_eq!(report.metrics().messages_delivered(), 20);
    }

    /// Records arrival order of numbered messages.
    struct Collector {
        seen: Vec<u8>,
    }
    impl Process for Collector {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: PartId, payload: Payload) {
            self.seen.push(payload[0]);
        }
    }
    /// Fires a burst of numbered messages at start.
    struct Burst {
        peer: PartId,
        n: u8,
    }
    impl Process for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for i in 0..self.n {
                ctx.send(self.peer, vec![i]);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_>, _: PartId, _: Payload) {}
    }

    fn burst_order(link: LinkConfig, seed: u64) -> Vec<u8> {
        // Run the simulation with a collector, then inspect arrival order via
        // the trace of a probe primitive.
        struct RecordingCollector;
        impl Process for RecordingCollector {
            fn on_message(&mut self, ctx: &mut Context<'_>, _from: PartId, payload: Payload) {
                ctx.record_primitive(
                    Sap::new("probe", ctx.id()),
                    "recv",
                    vec![Value::Int(payload[0] as i64)],
                );
            }
        }
        let mut sim = Simulator::new(SimConfig::new(seed).default_link(link));
        sim.add_process(
            PartId::new(1),
            Box::new(Burst {
                peer: PartId::new(2),
                n: 30,
            }),
        )
        .unwrap();
        sim.add_process(PartId::new(2), Box::new(RecordingCollector))
            .unwrap();
        let report = sim.run_to_quiescence(Duration::from_secs(10)).unwrap();
        report
            .trace()
            .events()
            .iter()
            .map(|e| e.args()[0].as_int().unwrap() as u8)
            .collect()
    }

    /// Records one `tick` primitive per millisecond, `remaining` times.
    struct Ticker {
        remaining: u32,
    }

    impl Process for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(Duration::from_millis(1), TimerId(1));
        }
        fn on_message(&mut self, _: &mut Context<'_>, _: PartId, _: Payload) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId) {
            ctx.record_primitive(Sap::new("probe", ctx.id()), "tick", vec![]);
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.set_timer(Duration::from_millis(1), TimerId(1));
            }
        }
    }

    fn ticker_sim(ticks: u32) -> Simulator {
        let mut sim = Simulator::new(SimConfig::new(1));
        sim.add_process(PartId::new(1), Box::new(Ticker { remaining: ticks }))
            .unwrap();
        sim
    }

    /// The simulator's own trace buffer.
    fn trace_buf(sim: &Simulator) -> &Arc<Trace> {
        &sim.trace.trace
    }

    #[test]
    fn dropped_report_lets_the_next_slice_append_in_place() {
        let mut sim = ticker_sim(20);
        let first = sim.run_to_quiescence(Duration::from_millis(5)).unwrap();
        let first_len = first.trace().len();
        assert!(first_len > 0);
        let buf = Arc::as_ptr(trace_buf(&sim));
        drop(first);
        let second = sim.run_to_quiescence(Duration::from_millis(5)).unwrap();
        assert!(second.trace().len() > first_len);
        assert_eq!(Arc::as_ptr(trace_buf(&sim)), buf, "trace was copied");
        assert!(Arc::ptr_eq(&second.trace, trace_buf(&sim)));
    }

    #[test]
    fn held_report_makes_the_next_slice_copy_the_trace() {
        let mut sim = ticker_sim(20);
        let first = sim.run_to_quiescence(Duration::from_millis(5)).unwrap();
        let first_len = first.trace().len();
        let second = sim.run_to_quiescence(Duration::from_millis(5)).unwrap();
        assert!(!Arc::ptr_eq(&first.trace, &second.trace));
        assert_eq!(first.trace().len(), first_len, "held snapshot is frozen");
        assert_eq!(
            &second.trace().events()[..first_len],
            first.trace().events()
        );
    }

    #[test]
    fn into_trace_moves_the_trace_out_once_the_simulator_is_gone() {
        let mut sim = ticker_sim(20);
        let report = sim.run_to_quiescence(Duration::from_secs(1)).unwrap();
        let expected = report.trace().clone();
        let events = report.trace().events().as_ptr();
        drop(sim);
        let trace = report.into_trace();
        assert_eq!(trace, expected);
        assert_eq!(trace.len(), 20);
        assert_eq!(trace.events().as_ptr(), events, "trace was copied");
    }

    #[test]
    fn ordered_link_preserves_fifo() {
        let order = burst_order(
            LinkConfig::reliable_stream(Duration::from_millis(1), Duration::from_millis(5)),
            11,
        );
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
        assert_eq!(order.len(), 30);
    }

    #[test]
    fn unordered_link_can_reorder_under_jitter() {
        let order = burst_order(
            LinkConfig::reliable_datagram(Duration::from_millis(1), Duration::from_millis(5)),
            11,
        );
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_ne!(order, sorted, "expected at least one reordering");
    }

    #[test]
    fn duplicate_node_is_rejected() {
        let mut sim = Simulator::new(SimConfig::new(1));
        sim.add_process(PartId::new(1), Box::new(Collector { seen: vec![] }))
            .unwrap();
        let err = sim
            .add_process(PartId::new(1), Box::new(Collector { seen: vec![] }))
            .unwrap_err();
        assert_eq!(err, SimError::DuplicateNode(PartId::new(1)));
    }

    #[test]
    fn empty_simulator_errors() {
        let mut sim = Simulator::new(SimConfig::new(1));
        assert_eq!(
            sim.run_to_quiescence(Duration::from_secs(1)).unwrap_err(),
            SimError::NoProcesses
        );
    }

    #[test]
    fn undeliverable_messages_are_counted() {
        struct SendsToNowhere;
        impl Process for SendsToNowhere {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(PartId::new(99), b"void".to_vec());
            }
            fn on_message(&mut self, _: &mut Context<'_>, _: PartId, _: Payload) {}
        }
        let mut sim = Simulator::new(SimConfig::new(1));
        sim.add_process(PartId::new(1), Box::new(SendsToNowhere))
            .unwrap();
        let report = sim.run_to_quiescence(Duration::from_secs(1)).unwrap();
        assert_eq!(report.metrics().undeliverable(), 1);
        assert_eq!(report.metrics().messages_delivered(), 0);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct CancelsItself {
            fired: bool,
        }
        impl Process for CancelsItself {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Duration::from_millis(5), TimerId(1));
                ctx.cancel_timer(TimerId(1));
                ctx.set_timer(Duration::from_millis(10), TimerId(2));
            }
            fn on_message(&mut self, _: &mut Context<'_>, _: PartId, _: Payload) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_>, timer: TimerId) {
                assert_eq!(timer, TimerId(2), "cancelled timer fired");
                self.fired = true;
            }
        }
        let mut sim = Simulator::new(SimConfig::new(1));
        sim.add_process(PartId::new(1), Box::new(CancelsItself { fired: false }))
            .unwrap();
        let report = sim.run_to_quiescence(Duration::from_secs(1)).unwrap();
        assert!(report.is_quiescent());
        assert_eq!(report.end_time(), Instant::from_micros(10_000));
    }

    #[test]
    fn resetting_timer_supersedes_pending_firing() {
        struct Resetter {
            fires: u32,
        }
        impl Process for Resetter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Duration::from_millis(5), TimerId(1));
                ctx.set_timer(Duration::from_millis(9), TimerId(1));
            }
            fn on_message(&mut self, _: &mut Context<'_>, _: PartId, _: Payload) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId) {
                self.fires += 1;
                assert_eq!(ctx.now(), Instant::from_micros(9_000));
            }
        }
        let mut sim = Simulator::new(SimConfig::new(1));
        sim.add_process(PartId::new(1), Box::new(Resetter { fires: 0 }))
            .unwrap();
        let report = sim.run_to_quiescence(Duration::from_secs(1)).unwrap();
        assert!(report.is_quiescent());
        assert_eq!(report.end_time(), Instant::from_micros(9_000));
    }

    #[test]
    fn timer_cancelled_and_rearmed_at_same_instant_fires_once() {
        // Regression pin for the generation semantics when the stale and
        // the fresh schedule share one firing instant: a timer armed for
        // t=5 ms is cancelled at t=3 ms and immediately re-armed for
        // t=3+2 ms — the *same* instant. Two queue entries now carry equal
        // `at`; only the one with the current generation may fire, and it
        // fires exactly once.
        use std::sync::Mutex;
        struct Rearm {
            fires: Arc<Mutex<Vec<(u64, u64)>>>,
        }
        impl Process for Rearm {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Duration::from_millis(5), TimerId(1));
                ctx.set_timer(Duration::from_millis(3), TimerId(2));
            }
            fn on_message(&mut self, _: &mut Context<'_>, _: PartId, _: Payload) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerId) {
                self.fires
                    .lock()
                    .unwrap()
                    .push((timer.0, ctx.now().as_micros()));
                if timer == TimerId(2) {
                    ctx.cancel_timer(TimerId(1));
                    ctx.set_timer(Duration::from_millis(2), TimerId(1));
                }
            }
        }
        let fires = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulator::new(SimConfig::new(1));
        sim.add_process(
            PartId::new(1),
            Box::new(Rearm {
                fires: Arc::clone(&fires),
            }),
        )
        .unwrap();
        let report = sim.run_to_quiescence(Duration::from_secs(1)).unwrap();
        assert!(report.is_quiescent());
        // Timer 2 at 3 ms, then timer 1 exactly once at 5 ms — not zero
        // times (cancel must not kill the re-arm) and not twice (the
        // original generation must stay dead).
        assert_eq!(*fires.lock().unwrap(), vec![(2, 3_000), (1, 5_000)]);
        assert_eq!(report.end_time(), Instant::from_micros(5_000));
    }

    #[test]
    fn same_handler_cancel_rearm_chain_keeps_only_last_schedule() {
        // set / cancel / set within one handler, all landing on the same
        // instant: generations 1 and 3 both sit in the queue at t=4 ms;
        // only generation 3 fires.
        struct ChainRearm {
            fires: u32,
        }
        impl Process for ChainRearm {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Duration::from_millis(4), TimerId(9));
                ctx.cancel_timer(TimerId(9));
                ctx.set_timer(Duration::from_millis(4), TimerId(9));
            }
            fn on_message(&mut self, _: &mut Context<'_>, _: PartId, _: Payload) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerId) {
                assert_eq!(timer, TimerId(9));
                assert_eq!(ctx.now(), Instant::from_micros(4_000));
                self.fires += 1;
                assert_eq!(self.fires, 1, "superseded schedule fired too");
            }
        }
        let mut sim = Simulator::new(SimConfig::new(1));
        sim.add_process(PartId::new(1), Box::new(ChainRearm { fires: 0 }))
            .unwrap();
        let report = sim.run_to_quiescence(Duration::from_secs(1)).unwrap();
        assert!(report.is_quiescent());
        assert_eq!(report.end_time(), Instant::from_micros(4_000));
    }

    #[test]
    fn simultaneous_events_fire_in_scheduling_order() {
        use std::sync::Mutex;
        struct TwoTimers {
            order: Arc<Mutex<Vec<u64>>>,
        }
        impl Process for TwoTimers {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                // Same firing instant; scheduling order must be preserved.
                ctx.set_timer(Duration::from_millis(1), TimerId(10));
                ctx.set_timer(Duration::from_millis(1), TimerId(20));
                ctx.set_timer(Duration::from_millis(1), TimerId(30));
            }
            fn on_message(&mut self, _: &mut Context<'_>, _: PartId, _: Payload) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_>, timer: TimerId) {
                self.order.lock().unwrap().push(timer.0);
            }
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulator::new(SimConfig::new(1));
        sim.add_process(
            PartId::new(1),
            Box::new(TwoTimers {
                order: Arc::clone(&order),
            }),
        )
        .unwrap();
        sim.run_to_quiescence(Duration::from_secs(1)).unwrap();
        assert_eq!(*order.lock().unwrap(), vec![10, 20, 30]);
    }

    #[test]
    fn bandwidth_limits_throughput() {
        struct BigBurst {
            peer: PartId,
        }
        impl Process for BigBurst {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for _ in 0..10 {
                    ctx.send(self.peer, vec![0u8; 10_000]); // 10 × 10 KB
                }
            }
            fn on_message(&mut self, _: &mut Context<'_>, _: PartId, _: Payload) {}
        }
        struct Sink;
        impl Process for Sink {
            fn on_message(&mut self, _: &mut Context<'_>, _: PartId, _: Payload) {}
        }
        let run = |link: LinkConfig| {
            let mut sim = Simulator::new(SimConfig::new(1).default_link(link));
            sim.add_process(
                PartId::new(1),
                Box::new(BigBurst {
                    peer: PartId::new(2),
                }),
            )
            .unwrap();
            sim.add_process(PartId::new(2), Box::new(Sink)).unwrap();
            sim.run_to_quiescence(Duration::from_secs(60))
                .unwrap()
                .end_time()
        };
        // 100 KB at 1 MB/s: ~100 ms serialization + 1 ms latency.
        let limited = run(LinkConfig::perfect(Duration::from_millis(1)).with_bandwidth(1_000_000));
        let unlimited = run(LinkConfig::perfect(Duration::from_millis(1)));
        assert_eq!(unlimited, Instant::from_micros(1_000));
        assert_eq!(limited, Instant::from_micros(101_000));
    }

    #[test]
    fn partition_drops_messages_and_heal_restores_them() {
        let mut sim = two_node_sim(LinkConfig::perfect(Duration::from_millis(1)), 1, 40);
        // First slice: healthy.
        let r1 = sim.run_to_quiescence(Duration::from_millis(10)).unwrap();
        let delivered_before = r1.metrics().messages_delivered();
        assert!(delivered_before > 0);
        // Partition and run another slice: sends continue, deliveries stop.
        sim.partition(PartId::new(1), PartId::new(2));
        let r2 = sim.run_to_quiescence(Duration::from_millis(10)).unwrap();
        assert!(r2.metrics().messages_dropped() > 0);
        let delivered_during = r2.metrics().messages_delivered();
        // Heal and finish: deliveries resume.
        sim.heal(PartId::new(1), PartId::new(2));
        let r3 = sim.run_to_quiescence(Duration::from_secs(10)).unwrap();
        assert!(r3.is_quiescent());
        assert!(r3.metrics().messages_delivered() > delivered_during);
        assert_eq!(
            r3.metrics().messages_delivered() + r3.metrics().messages_dropped(),
            40
        );
    }

    #[test]
    fn partition_is_idempotent() {
        // Regression: a second partition of the same pair used to overwrite
        // the saved pre-partition link with the loss-1.0 config, so healing
        // restored a dead link and deliveries never resumed.
        let mut sim = two_node_sim(LinkConfig::perfect(Duration::from_millis(1)), 1, 40);
        let _ = sim.run_to_quiescence(Duration::from_millis(10)).unwrap();
        sim.partition(PartId::new(1), PartId::new(2));
        sim.partition(PartId::new(1), PartId::new(2));
        let r2 = sim.run_to_quiescence(Duration::from_millis(10)).unwrap();
        let delivered_during = r2.metrics().messages_delivered();
        sim.heal(PartId::new(1), PartId::new(2));
        let r3 = sim.run_to_quiescence(Duration::from_secs(10)).unwrap();
        assert!(r3.is_quiescent());
        assert!(
            r3.metrics().messages_delivered() > delivered_during,
            "deliveries must resume after heal even when partition was called twice"
        );
        assert_eq!(
            r3.metrics().messages_delivered() + r3.metrics().messages_dropped(),
            40
        );
    }

    #[test]
    fn heal_restores_an_explicitly_configured_link() {
        let mut sim = two_node_sim(LinkConfig::perfect(Duration::from_millis(1)), 1, 2);
        let custom = LinkConfig::perfect(Duration::from_millis(7));
        sim.set_link_symmetric(PartId::new(1), PartId::new(2), custom.clone());
        sim.partition(PartId::new(1), PartId::new(2));
        sim.heal(PartId::new(1), PartId::new(2));
        // Verify by behaviour: the round trip takes the custom 7 ms latency.
        let report = sim.run_to_quiescence(Duration::from_secs(10)).unwrap();
        assert!(report.is_quiescent());
        assert_eq!(report.metrics().messages_dropped(), 0);
    }

    #[test]
    fn time_limit_interrupts_run_and_can_resume() {
        let mut sim = two_node_sim(LinkConfig::lan(), 1, 100);
        let report = sim.run_to_quiescence(Duration::from_millis(10)).unwrap();
        assert!(!report.is_quiescent());
        let report2 = sim.run_to_quiescence(Duration::from_secs(60)).unwrap();
        assert!(report2.is_quiescent());
        assert_eq!(report2.metrics().messages_sent(), 100);
    }

    #[test]
    fn trace_is_time_sorted_in_report() {
        let order = burst_order(
            LinkConfig::reliable_datagram(Duration::from_millis(1), Duration::from_millis(5)),
            17,
        );
        assert_eq!(order.len(), 30);
    }
}
