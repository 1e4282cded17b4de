//! Assembly and execution of a whole protocol stack.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};

use svckit_codec::PduRegistry;
use svckit_model::{Duration, PartId, Sap};
use svckit_netsim::{LinkConfig, SimConfig, SimError, SimReport, Simulator};

use crate::counters::ProtoCounters;
use crate::entity::{ProtocolEntity, ProtocolNode, UserPart};
use crate::reliable::ReliabilityConfig;

/// Errors from stack assembly or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StackError {
    /// The underlying simulator rejected the configuration.
    Sim(SimError),
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::Sim(e) => write!(f, "simulator error: {e}"),
        }
    }
}

impl Error for StackError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StackError::Sim(e) => Some(e),
        }
    }
}

impl From<SimError> for StackError {
    fn from(e: SimError) -> Self {
        StackError::Sim(e)
    }
}

/// One pending node of a [`StackBuilder`]: address, access point, user
/// part and protocol entity.
type PendingNode = (PartId, Sap, Box<dyn UserPart>, Box<dyn ProtocolEntity>);

/// Builder for a [`Stack`]: N protocol nodes over one lower-level service.
pub struct StackBuilder {
    seed: u64,
    link: LinkConfig,
    shards: u32,
    registry: Arc<PduRegistry>,
    reliability: Option<ReliabilityConfig>,
    nodes: Vec<PendingNode>,
}

impl fmt::Debug for StackBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StackBuilder")
            .field("seed", &self.seed)
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

impl StackBuilder {
    /// Starts a stack sharing the given PDU registry.
    pub fn new(registry: PduRegistry) -> Self {
        StackBuilder {
            seed: 0,
            link: LinkConfig::default(),
            shards: 1,
            registry: Arc::new(registry),
            reliability: None,
            nodes: Vec::new(),
        }
    }

    /// Sets the simulation seed (builder-style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the lower-level service characteristics (builder-style).
    #[must_use]
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Sets the simulator shard count (builder-style); see
    /// [`svckit_netsim::SimConfig::shards`].
    #[must_use]
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Inserts a reliability sub-layer on every node (builder-style); use
    /// together with an unreliable [`LinkConfig`].
    #[must_use]
    pub fn reliability(mut self, config: ReliabilityConfig) -> Self {
        self.reliability = Some(config);
        self
    }

    /// Adds a node: a user part and its protocol entity serving `sap` at
    /// network address `part` (builder-style).
    #[must_use]
    pub fn node(
        mut self,
        part: PartId,
        sap: Sap,
        user: Box<dyn UserPart>,
        entity: Box<dyn ProtocolEntity>,
    ) -> Self {
        self.nodes.push((part, sap, user, entity));
        self
    }

    /// Assembles the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`StackError::Sim`] when two nodes share a [`PartId`].
    pub fn build(self) -> Result<Stack, StackError> {
        let mut sim = Simulator::new(
            SimConfig::new(self.seed)
                .default_link(self.link)
                .shards(self.shards),
        );
        let mut counters = BTreeMap::new();
        for (part, sap, user, entity) in self.nodes {
            let mut node = ProtocolNode::new(sap, user, entity, Arc::clone(&self.registry));
            if let Some(cfg) = self.reliability {
                node = node.with_reliability(cfg);
            }
            counters.insert(part, node.counters());
            sim.add_process(part, Box::new(node))?;
        }
        Ok(Stack { sim, counters })
    }
}

/// An assembled protocol stack, ready to run.
pub struct Stack {
    sim: Simulator,
    counters: BTreeMap<PartId, Arc<Mutex<ProtoCounters>>>,
}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stack")
            .field("nodes", &self.counters.len())
            .finish_non_exhaustive()
    }
}

impl Stack {
    /// Runs until quiescence or until `max_elapsed` simulated time passes.
    /// Can be called repeatedly to extend the run.
    ///
    /// # Errors
    ///
    /// Returns [`StackError::Sim`] when the stack has no nodes.
    pub fn run_to_quiescence(&mut self, max_elapsed: Duration) -> Result<SimReport, StackError> {
        Ok(self.sim.run_to_quiescence(max_elapsed)?)
    }

    /// Counters of one node.
    pub fn node_counters(&self, part: PartId) -> Option<ProtoCounters> {
        self.counters.get(&part).map(|c| *c.lock().unwrap())
    }

    /// Sum of all nodes' counters.
    pub fn total_counters(&self) -> ProtoCounters {
        let mut total = ProtoCounters::default();
        for c in self.counters.values() {
            total.absorb(&c.lock().unwrap());
        }
        total
    }

    /// The node ids in the stack.
    pub fn parts(&self) -> Vec<PartId> {
        self.counters.keys().copied().collect()
    }

    /// Partitions two nodes (messages dropped both ways) until
    /// [`Stack::heal`]. Call between run slices to inject failures.
    pub fn partition(&mut self, a: PartId, b: PartId) {
        self.sim.partition(a, b);
    }

    /// Heals a partition created by [`Stack::partition`].
    pub fn heal(&mut self, a: PartId, b: PartId) {
        self.sim.heal(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_codec::PduSchema;
    use svckit_model::{Value, ValueType};
    use svckit_netsim::TimerId;

    use crate::entity::{EntityCtx, UserCtx};
    use svckit_codec::Pdu;

    /// A trivial "relay" service: every `say` primitive at one SAP becomes a
    /// `heard` indication at every other SAP, relayed by a hub entity.
    struct Talker {
        rounds: u32,
        heard: u32,
    }
    impl UserPart for Talker {
        fn on_start(&mut self, ctx: &mut UserCtx<'_, '_>) {
            if self.rounds > 0 {
                ctx.set_timer(Duration::from_millis(1), TimerId(1));
            }
        }
        fn on_indication(&mut self, _: &mut UserCtx<'_, '_>, primitive: &str, _: Vec<Value>) {
            assert_eq!(primitive, "heard");
            self.heard += 1;
        }
        fn on_timer(&mut self, ctx: &mut UserCtx<'_, '_>, _: TimerId) {
            ctx.invoke("say", vec![Value::Id(ctx.sap().part().raw())]);
            self.rounds -= 1;
            if self.rounds > 0 {
                ctx.set_timer(Duration::from_millis(1), TimerId(1));
            }
        }
    }

    struct RelayEntity {
        peers: Vec<PartId>,
    }
    impl ProtocolEntity for RelayEntity {
        fn on_user_primitive(&mut self, ctx: &mut EntityCtx<'_, '_>, _: &str, args: Vec<Value>) {
            for peer in &self.peers {
                ctx.send_pdu(*peer, "say_pdu", &args).unwrap();
            }
        }
        fn on_pdu(&mut self, ctx: &mut EntityCtx<'_, '_>, _: PartId, pdu: Pdu) {
            ctx.deliver_to_user("heard", pdu.into_args());
        }
    }

    fn registry() -> PduRegistry {
        let mut r = PduRegistry::new();
        r.register(PduSchema::new(1, "say_pdu").field("who", ValueType::Id))
            .unwrap();
        r
    }

    fn build_stack(n: u64, reliability: Option<ReliabilityConfig>, link: LinkConfig) -> Stack {
        let mut builder = StackBuilder::new(registry()).seed(42).link(link);
        if let Some(cfg) = reliability {
            builder = builder.reliability(cfg);
        }
        for i in 1..=n {
            let peers: Vec<PartId> = (1..=n).filter(|&j| j != i).map(PartId::new).collect();
            builder = builder.node(
                PartId::new(i),
                Sap::new("talker", PartId::new(i)),
                Box::new(Talker {
                    rounds: 3,
                    heard: 0,
                }),
                Box::new(RelayEntity { peers }),
            );
        }
        builder.build().unwrap()
    }

    #[test]
    fn full_mesh_relay_runs_to_quiescence() {
        let mut stack = build_stack(4, None, LinkConfig::lan());
        let report = stack.run_to_quiescence(Duration::from_secs(5)).unwrap();
        assert!(report.is_quiescent());
        // 4 talkers × 3 rounds, each say → 3 peers hear it.
        assert_eq!(report.trace().count_of("say"), 12);
        assert_eq!(report.trace().count_of("heard"), 36);
        let totals = stack.total_counters();
        assert_eq!(totals.pdus_sent, 36);
        assert_eq!(totals.pdus_received, 36);
        assert_eq!(totals.decode_errors, 0);
    }

    #[test]
    fn per_node_counters_are_separate() {
        let mut stack = build_stack(3, None, LinkConfig::lan());
        stack.run_to_quiescence(Duration::from_secs(5)).unwrap();
        for part in stack.parts() {
            let c = stack.node_counters(part).unwrap();
            assert_eq!(c.pdus_sent, 6); // 3 rounds × 2 peers
        }
        assert!(stack.node_counters(PartId::new(99)).is_none());
    }

    #[test]
    fn reliability_recovers_all_messages_over_lossy_link() {
        let lossy = LinkConfig::lossy(Duration::from_millis(1), Duration::from_micros(100), 0.25);
        let mut stack = build_stack(
            3,
            Some(ReliabilityConfig::new(Duration::from_millis(8))),
            lossy,
        );
        let report = stack.run_to_quiescence(Duration::from_secs(30)).unwrap();
        assert!(report.is_quiescent());
        assert_eq!(report.trace().count_of("heard"), 18); // 3×3 rounds × 2 peers
        let totals = stack.total_counters();
        assert!(totals.retransmissions > 0, "expected some retransmissions");
        assert_eq!(totals.decode_errors, 0);
    }

    #[test]
    fn without_reliability_lossy_link_loses_messages() {
        let lossy = LinkConfig::lossy(Duration::from_millis(1), Duration::from_micros(100), 0.25);
        let mut stack = build_stack(3, None, lossy);
        let report = stack.run_to_quiescence(Duration::from_secs(30)).unwrap();
        assert!(report.trace().count_of("heard") < 18);
    }

    #[test]
    fn duplicate_parts_are_rejected() {
        let builder = StackBuilder::new(registry())
            .node(
                PartId::new(1),
                Sap::new("talker", PartId::new(1)),
                Box::new(Talker {
                    rounds: 0,
                    heard: 0,
                }),
                Box::new(RelayEntity { peers: vec![] }),
            )
            .node(
                PartId::new(1),
                Sap::new("talker", PartId::new(1)),
                Box::new(Talker {
                    rounds: 0,
                    heard: 0,
                }),
                Box::new(RelayEntity { peers: vec![] }),
            );
        assert!(matches!(
            builder.build(),
            Err(StackError::Sim(SimError::DuplicateNode(_)))
        ));
    }
}
