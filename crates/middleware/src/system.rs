//! Assembly and execution of a middleware deployment.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use svckit_dfa::{AdmissionGate, AdmissionStats};
use svckit_model::{Duration, PartId};
use svckit_netsim::{LinkConfig, SimConfig, SimReport, Simulator};

use crate::broker::Broker;
use crate::component::Component;
use crate::counters::MwCounters;
use crate::error::MwError;
use crate::node::MwNode;
use crate::plan::DeploymentPlan;
use crate::wire;

/// Builder for a runnable [`MwSystem`]: binds component implementations to
/// the names declared in a [`DeploymentPlan`].
pub struct MwSystemBuilder {
    plan: DeploymentPlan,
    seed: u64,
    link: LinkConfig,
    shards: u32,
    admission: Option<Arc<AdmissionGate>>,
    implementations: BTreeMap<String, Box<dyn Component>>,
}

impl fmt::Debug for MwSystemBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MwSystemBuilder")
            .field("seed", &self.seed)
            .field("bound", &self.implementations.len())
            .finish_non_exhaustive()
    }
}

impl MwSystemBuilder {
    /// Starts assembling a system for `plan`.
    pub fn new(plan: DeploymentPlan) -> Self {
        MwSystemBuilder {
            plan,
            seed: 0,
            link: LinkConfig::default(),
            shards: 1,
            admission: None,
            implementations: BTreeMap::new(),
        }
    }

    /// Sets the simulation seed (builder-style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the network characteristics (builder-style).
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

    /// Installs a runtime admission gate (builder-style): every primitive
    /// occurrence recorded through [`MwCtx::record_primitive`] is validated
    /// against the gate's compiled service definition. The gate is shared
    /// by all nodes of the system and is passive — violations are counted
    /// ([`MwSystem::admission_stats`]), never blocked, so the simulation
    /// trace is identical with and without a gate.
    ///
    /// [`MwCtx::record_primitive`]: crate::MwCtx::record_primitive
    #[must_use]
    pub fn admission(mut self, gate: Arc<AdmissionGate>) -> Self {
        self.admission = Some(gate);
        self
    }

    /// Binds an implementation to a declared component name
    /// (builder-style).
    #[must_use]
    pub fn component(
        mut self,
        name: impl Into<String>,
        implementation: Box<dyn Component>,
    ) -> Self {
        self.implementations.insert(name.into(), implementation);
        self
    }

    /// Builds the runnable system.
    ///
    /// # Errors
    ///
    /// Returns [`MwError::MissingImplementation`] when a declared component
    /// has no implementation or an implementation does not match any
    /// declared component, and [`MwError::Sim`] on simulator assembly
    /// failures.
    pub fn build(mut self) -> Result<MwSystem, MwError> {
        for name in self.plan.component_names() {
            if !self.implementations.contains_key(name) {
                return Err(MwError::MissingImplementation {
                    name: name.to_owned(),
                });
            }
        }
        if let Some(extra) = self
            .implementations
            .keys()
            .find(|n| self.plan.component(n).is_none())
        {
            return Err(MwError::MissingImplementation {
                name: extra.clone(),
            });
        }

        let plan = Arc::new(self.plan);
        let registry = Arc::new(wire::wire_registry());
        let mut sim = Simulator::new(
            SimConfig::new(self.seed)
                .default_link(self.link)
                .shards(self.shards),
        );
        let mut counters = BTreeMap::new();
        let names: Vec<String> = plan
            .component_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for name in names {
            let part = plan.component(&name).expect("validated above").part();
            let implementation = self.implementations.remove(&name).expect("validated above");
            let node = MwNode::new(
                name.clone(),
                implementation,
                Arc::clone(&plan),
                Arc::clone(&registry),
                self.admission.clone(),
            );
            counters.insert(name, node.counters());
            sim.add_process(part, Box::new(node))
                .map_err(|e| MwError::Sim(e.to_string()))?;
        }
        let broker_counters = match plan.broker() {
            Some(part) => {
                let broker = Broker::new(Arc::clone(&plan), Arc::clone(&registry));
                let handle = broker.counters();
                sim.add_process(part, Box::new(broker))
                    .map_err(|e| MwError::Sim(e.to_string()))?;
                Some(handle)
            }
            None => None,
        };
        Ok(MwSystem {
            sim,
            plan,
            counters,
            broker_counters,
            admission: self.admission,
        })
    }
}

/// A deployed, runnable middleware system.
pub struct MwSystem {
    sim: Simulator,
    plan: Arc<DeploymentPlan>,
    counters: BTreeMap<String, Arc<Mutex<MwCounters>>>,
    broker_counters: Option<Arc<Mutex<MwCounters>>>,
    admission: Option<Arc<AdmissionGate>>,
}

impl fmt::Debug for MwSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MwSystem")
            .field("components", &self.counters.len())
            .field("broker", &self.broker_counters.is_some())
            .finish_non_exhaustive()
    }
}

impl MwSystem {
    /// Runs until quiescence or until `max_elapsed` simulated time passes.
    /// Can be called repeatedly to extend the run.
    ///
    /// # Errors
    ///
    /// Returns [`MwError::Sim`] when the system has no nodes.
    pub fn run_to_quiescence(&mut self, max_elapsed: Duration) -> Result<SimReport, MwError> {
        self.sim
            .run_to_quiescence(max_elapsed)
            .map_err(|e| MwError::Sim(e.to_string()))
    }

    /// The deployment plan.
    pub fn plan(&self) -> &DeploymentPlan {
        &self.plan
    }

    /// Counters of one component.
    pub fn component_counters(&self, name: &str) -> Option<MwCounters> {
        self.counters.get(name).map(|c| *c.lock().unwrap())
    }

    /// Counters of the broker, when one is deployed.
    pub fn broker_counters(&self) -> Option<MwCounters> {
        self.broker_counters.as_ref().map(|c| *c.lock().unwrap())
    }

    /// Cumulative admission-gate statistics, when a gate is installed.
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.admission.as_ref().map(|g| g.stats())
    }

    /// The installed admission gate, if any.
    pub fn admission_gate(&self) -> Option<&Arc<AdmissionGate>> {
        self.admission.as_ref()
    }

    /// Sum of all component counters (broker included).
    pub fn total_counters(&self) -> MwCounters {
        let mut total = MwCounters::default();
        for c in self.counters.values() {
            total.absorb(&c.lock().unwrap());
        }
        if let Some(b) = &self.broker_counters {
            total.absorb(&b.lock().unwrap());
        }
        total
    }

    /// The node hosting a component.
    pub fn part_of(&self, name: &str) -> Option<PartId> {
        self.plan.component(name).map(|e| e.part())
    }

    /// Partitions two nodes (messages dropped both ways) until
    /// [`MwSystem::heal`]. Call between run slices to inject failures.
    pub fn partition(&mut self, a: PartId, b: PartId) {
        self.sim.partition(a, b);
    }

    /// Heals a partition created by [`MwSystem::partition`].
    pub fn heal(&mut self, a: PartId, b: PartId) {
        self.sim.heal(a, b);
    }
}
