//! The dense per-node state table of one shard.
//!
//! Everything the engine keeps for one node — its process, its random
//! stream, its schedule count, its timer generations, its trace-id mint
//! and its send count — lives in one [`NodeSlot`], and the slots of a
//! shard sit in one `Vec`. A node id is resolved to its
//! slot once, when a send names its destination; from then on the event
//! carries the slot, so dispatching a delivery or a timer is a `Vec`
//! index, never a map lookup.

use std::collections::BTreeMap;

use svckit_model::hash::FastMap;
use svckit_model::{Instant, PartId};

use crate::rng::DeterministicRng;
use crate::sim::{node_seed, provenance_key, Process, TimerId};

/// Per-node trace-id mint and open-request registry, owned by the
/// engine (one per node, persistent across run slices). Ids derive from
/// `(node, per-node sequence)` only, and a node's dispatch order is
/// shard-invariant, so every `--shards` value mints identical ids.
#[derive(Debug, Default)]
pub(crate) struct NodeTracer {
    next_seq: u64,
    /// The `(trace_id, root_span_id)` of this node's open request, if
    /// any. One per node: a user part issues at most one primitive at a
    /// time (request → granted → free), so a newly issued primitive
    /// replaces whatever was left open.
    pub(crate) open: Option<(u64, u64)>,
}

impl NodeTracer {
    pub(crate) fn mint(&mut self, node: PartId) -> u64 {
        self.next_seq += 1;
        svckit_obs::trace::mint_id(node.raw(), self.next_seq)
    }
}

/// One node's engine-side state.
pub(crate) struct NodeSlot {
    pub(crate) id: PartId,
    pub(crate) process: Box<dyn Process>,
    /// The node's own random stream, derived from the seed and the node
    /// id only. Application-level draws (workload choices) are therefore
    /// independent of network-level draws (jitter, loss) and of other
    /// nodes — the same workload unfolds identically over any protocol or
    /// platform.
    pub(crate) rng: DeterministicRng,
    /// Events this node has scheduled, feeding [`provenance_key`].
    sched_count: u64,
    /// Current generation of each of this node's timers. A pending firing
    /// whose generation is behind is stale. Kept per node so one node's
    /// huge timer table (e.g. a standing backlog of lease expiries)
    /// cannot dilute the cache locality of another node's hot few timers.
    timers: FastMap<TimerId, u64>,
    pub(crate) tracer: NodeTracer,
    /// Messages this node has handed to the network, undeliverable ones
    /// included; the source of [`crate::NetMetrics::per_sender`].
    pub(crate) sent: u64,
}

impl NodeSlot {
    /// The provenance key of the next event this node schedules at
    /// `sched_at`.
    pub(crate) fn next_key(&mut self, sched_at: Instant) -> u128 {
        self.sched_count += 1;
        provenance_key(sched_at, self.id, self.sched_count)
    }

    /// Advances timer `id` to a new generation (set or cancel), returning
    /// it. Any pending firing of an older generation becomes stale.
    pub(crate) fn bump_timer(&mut self, id: TimerId) -> u64 {
        let generation = self.timers.entry(id).or_insert(0);
        *generation += 1;
        *generation
    }

    /// Whether a firing of timer `id` at `generation` is still current.
    pub(crate) fn timer_live(&self, id: TimerId, generation: u64) -> bool {
        self.timers.get(&id) == Some(&generation)
    }

    /// Mints a fresh trace/span id on this node.
    pub(crate) fn mint(&mut self) -> u64 {
        self.tracer.mint(self.id)
    }
}

/// The slots of one shard, in binding order. Slot numbers are stable:
/// nodes are only ever appended, except by [`NodeTable::take`] before the
/// first run.
#[derive(Default)]
pub(crate) struct NodeTable {
    slots: Vec<NodeSlot>,
}

impl NodeTable {
    /// Appends a fresh node and returns its slot.
    pub(crate) fn push(&mut self, seed: u64, id: PartId, process: Box<dyn Process>) -> u32 {
        self.push_slot(NodeSlot {
            id,
            process,
            rng: DeterministicRng::new(node_seed(seed, id)),
            sched_count: 0,
            timers: FastMap::default(),
            tracer: NodeTracer::default(),
            sent: 0,
        })
    }

    /// Appends an existing node and returns its slot.
    pub(crate) fn push_slot(&mut self, node: NodeSlot) -> u32 {
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 nodes");
        self.slots.push(node);
        slot
    }

    /// Removes every node, leaving the table empty.
    pub(crate) fn take(&mut self) -> Vec<NodeSlot> {
        std::mem::take(&mut self.slots)
    }

    pub(crate) fn slot(&self, slot: u32) -> &NodeSlot {
        &self.slots[slot as usize]
    }

    pub(crate) fn slot_mut(&mut self, slot: u32) -> &mut NodeSlot {
        &mut self.slots[slot as usize]
    }

    /// Records each node's send count in `per_sender`, skipping nodes
    /// that never sent.
    pub(crate) fn collect_senders(&self, per_sender: &mut BTreeMap<PartId, u64>) {
        for slot in &self.slots {
            if slot.sent > 0 {
                per_sender.insert(slot.id, slot.sent);
            }
        }
    }
}
