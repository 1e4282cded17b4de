//! Figure 4 (b): the polling-based middleware solution.
//!
//! "The subscribers poll the controller for a certain resource by invoking
//! the operation `is_available`, which returns the Boolean value true when
//! the resource is available, and false otherwise."
//!
//! The check is check-*and-acquire*: a `true` result assigns the resource to
//! the poller atomically at the controller, otherwise two pollers could both
//! read `true`. For that assignment the controller must know who asked, so
//! `is_available` carries the subscriber id alongside the figure's
//! `resid` — the subscriber identity the paper elsewhere derives from the
//! access point has to travel explicitly here, a small illustration of the
//! information the middleware paradigm forces into application interfaces.
//!
//! This is the solution Section 5 criticises: "the subscriber application
//! parts must continuously poll for a resource", i.e. the polling loop —
//! interaction functionality — lives inside the application component.

use std::collections::BTreeMap;

use svckit_middleware::{
    Component, DeploymentPlan, MwCtx, MwSystem, MwSystemBuilder, PlatformCaps,
};
use svckit_model::{InterfaceDef, OperationSig, Value, ValueType};
use svckit_netsim::TimerId;

use crate::params::RunParams;
use crate::service::subscriber_sap;

use super::{controller_part, subscriber_name, subscriber_part, CONTROLLER, HOLD, POLL, THINK};

/// The controller's interface (Figure 4 (b)).
pub fn controller_interface() -> InterfaceDef {
    InterfaceDef::new("Controller")
        .operation(
            OperationSig::returning("is_available", ValueType::Bool)
                .param("subid", ValueType::Id)
                .param("resid", ValueType::Id),
        )
        .operation(
            OperationSig::void("free")
                .param("subid", ValueType::Id)
                .param("resid", ValueType::Id),
        )
}

/// The polling controller: holder bookkeeping, no queue — waiting lives in
/// the subscribers' polling loops.
#[derive(Debug, Default)]
pub struct PollingController {
    held: BTreeMap<u64, u64>,
}

impl PollingController {
    /// Creates an idle controller.
    pub fn new() -> Self {
        PollingController::default()
    }
}

impl Component for PollingController {
    fn handle_operation(
        &mut self,
        _ctx: &mut MwCtx<'_, '_>,
        _iface: &str,
        op: &str,
        args: Vec<Value>,
    ) -> Value {
        let subid = args[0].as_id().expect("validated by skeleton");
        let resid = args[1].as_id().expect("validated by skeleton");
        match op {
            "is_available" => {
                if let std::collections::btree_map::Entry::Vacant(e) = self.held.entry(resid) {
                    e.insert(subid);
                    Value::Bool(true)
                } else {
                    Value::Bool(false)
                }
            }
            "free" => {
                if self.held.get(&resid) == Some(&subid) {
                    self.held.remove(&resid);
                }
                Value::Unit
            }
            other => panic!("unexpected operation {other}"),
        }
    }
}

/// A subscriber component for the polling solution: the polling loop —
/// issue `is_available`, examine the reply, re-arm the poll timer — is all
/// application code.
#[derive(Debug)]
pub struct PollingSubscriber {
    me: u64,
    resources: u64,
    rounds_left: u32,
    hold: svckit_model::Duration,
    think: svckit_model::Duration,
    poll: svckit_model::Duration,
    wanted: Option<u64>,
    holding: Option<u64>,
}

impl PollingSubscriber {
    /// Creates subscriber `me` (1-based) with the given workload.
    pub fn new(me: u64, params: &RunParams) -> Self {
        PollingSubscriber {
            me,
            resources: params.resource_count(),
            rounds_left: params.round_count(),
            hold: params.hold_time(),
            think: params.think_time(),
            poll: params.poll_time(),
            wanted: None,
            holding: None,
        }
    }

    fn poll_once(&mut self, ctx: &mut MwCtx<'_, '_>) {
        let resid = self.wanted.expect("poll only while wanting");
        ctx.invoke(
            CONTROLLER,
            "Controller",
            "is_available",
            vec![Value::Id(self.me), Value::Id(resid)],
            0,
        )
        .expect("controller interface is in the plan");
    }
}

impl Component for PollingSubscriber {
    fn on_activate(&mut self, ctx: &mut MwCtx<'_, '_>) {
        if self.rounds_left > 0 {
            ctx.set_timer(self.think, THINK);
        }
    }

    fn handle_operation(
        &mut self,
        _: &mut MwCtx<'_, '_>,
        _: &str,
        op: &str,
        _: Vec<Value>,
    ) -> Value {
        panic!("polling subscribers provide no interface, got {op}");
    }

    fn on_reply(&mut self, ctx: &mut MwCtx<'_, '_>, _token: u64, result: Value) {
        match result {
            Value::Bool(true) => {
                let resid = self.wanted.take().expect("reply only while wanting");
                self.holding = Some(resid);
                ctx.record_primitive_to_user(
                    subscriber_sap(ctx.id()),
                    "granted",
                    vec![Value::Id(resid)],
                );
                ctx.set_timer(self.hold, HOLD);
            }
            Value::Bool(false) => {
                ctx.set_timer(self.poll, POLL);
            }
            Value::Unit => {} // ack of free
            other => panic!("unexpected reply {other}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut MwCtx<'_, '_>, timer: TimerId) {
        if timer == THINK {
            let resid = ctx.rand_below(self.resources) + 1;
            ctx.record_primitive_from_user(
                subscriber_sap(ctx.id()),
                "request",
                vec![Value::Id(resid)],
            );
            self.wanted = Some(resid);
            self.poll_once(ctx);
        } else if timer == POLL {
            self.poll_once(ctx);
        } else if timer == HOLD {
            let resid = self.holding.take().expect("hold timer only while holding");
            ctx.record_primitive_from_user(
                subscriber_sap(ctx.id()),
                "free",
                vec![Value::Id(resid)],
            );
            ctx.invoke(
                CONTROLLER,
                "Controller",
                "free",
                vec![Value::Id(self.me), Value::Id(resid)],
                1,
            )
            .expect("controller interface is in the plan");
            self.rounds_left -= 1;
            if self.rounds_left > 0 {
                ctx.set_timer(self.think, THINK);
            }
        }
    }
}

/// Deploys the polling solution for the given parameters.
pub fn deploy(params: &RunParams) -> MwSystem {
    let mut plan = DeploymentPlan::builder(PlatformCaps::rpc("component-mw")).component(
        CONTROLLER,
        controller_part(),
        vec![controller_interface()],
    );
    for k in 1..=params.subscriber_count() {
        plan = plan.component(subscriber_name(k), subscriber_part(k), vec![]);
    }
    let plan = plan.build().expect("polling plan is well-formed");

    let mut builder = MwSystemBuilder::new(plan)
        .admission(super::admission_gate())
        .seed(params.seed_value())
        .shards(params.shard_count())
        .link(params.link_config().clone())
        .component(CONTROLLER, Box::new(PollingController::new()));
    for k in 1..=params.subscriber_count() {
        builder = builder.component(
            subscriber_name(k),
            Box::new(PollingSubscriber::new(k, params)),
        );
    }
    builder.build().expect("all components are bound")
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::conformance::{check_trace, CheckOptions};

    #[test]
    fn polling_solution_completes_and_conforms() {
        let params = RunParams::default().subscribers(3).resources(1).rounds(2);
        let mut system = deploy(&params);
        let report = system.run_to_quiescence(params.cap()).unwrap();
        assert!(report.is_quiescent());
        assert_eq!(report.trace().count_of("granted"), 6);
        let check = check_trace(
            &crate::service::floor_control_service(),
            report.trace(),
            &CheckOptions::default(),
        );
        assert!(check.is_conformant(), "{check}");
    }

    #[test]
    fn polling_costs_more_invocations_under_contention() {
        let params = RunParams::default().subscribers(4).resources(1).rounds(3);
        let mut polling = deploy(&params);
        let report = polling.run_to_quiescence(params.cap()).unwrap();
        let polls = polling.component_counters("sub-1").unwrap().invocations;
        // With one contended resource a subscriber polls more than once per
        // round (request + retries + free).
        assert!(polls > 6, "expected repeated polling, got {polls}");
        assert!(report.is_quiescent());
    }
}
