//! Figure 4 (a): the callback-based middleware solution.
//!
//! "The controller is a singleton component that has an interface with a
//! `request_permission` operation. … Eventually, when the resource is to be
//! granted to the subscriber, a `grant` operation of the subscriber's
//! interface is invoked by the controller. When the subscriber wants to
//! release the resource, a `free` operation of the controller's interface
//! is invoked."
//!
//! Deviation from the figure: `free` carries the resource id as well as the
//! subscriber id, so that one subscriber can hold several resources; the
//! figure's single-parameter `free(subid)` is a special case.

use std::collections::{BTreeMap, VecDeque};

use svckit_middleware::{
    Component, DeploymentPlan, MwCtx, MwSystem, MwSystemBuilder, PlatformCaps,
};
use svckit_model::{InterfaceDef, OperationSig, Value, ValueType};
use svckit_netsim::TimerId;

use crate::params::RunParams;
use crate::policy::GrantPolicy;
use crate::service::subscriber_sap;

use super::{controller_part, subscriber_name, subscriber_part, CONTROLLER, HOLD, THINK};

/// The controller's interface (Figure 4 (a), left box).
pub fn controller_interface() -> InterfaceDef {
    InterfaceDef::new("Controller")
        .operation(
            OperationSig::void("request_permission")
                .param("subid", ValueType::Id)
                .param("resid", ValueType::Id),
        )
        .operation(
            OperationSig::void("free")
                .param("subid", ValueType::Id)
                .param("resid", ValueType::Id),
        )
}

/// The subscriber's callback interface (Figure 4 (a), right boxes).
pub fn subscriber_interface() -> InterfaceDef {
    InterfaceDef::new("Subscriber")
        .operation(OperationSig::void("grant").param("resid", ValueType::Id))
}

/// The singleton controller component: per-resource holder plus a wait
/// queue ordered by the configured [`GrantPolicy`].
#[derive(Debug, Default)]
pub struct CallbackController {
    held: BTreeMap<u64, u64>,
    waiting: BTreeMap<u64, VecDeque<u64>>,
    policy: GrantPolicy,
}

impl CallbackController {
    /// Creates an idle FIFO controller.
    pub fn new() -> Self {
        CallbackController::default()
    }

    /// Creates an idle controller with an explicit grant policy.
    pub fn with_policy(policy: GrantPolicy) -> Self {
        CallbackController {
            policy,
            ..CallbackController::default()
        }
    }

    fn grant(&mut self, ctx: &mut MwCtx<'_, '_>, subid: u64, resid: u64) {
        self.held.insert(resid, subid);
        ctx.invoke(
            &subscriber_name(subid),
            "Subscriber",
            "grant",
            vec![Value::Id(resid)],
            0,
        )
        .expect("subscriber interface is in the plan");
    }
}

impl Component for CallbackController {
    fn handle_operation(
        &mut self,
        ctx: &mut MwCtx<'_, '_>,
        _iface: &str,
        op: &str,
        args: Vec<Value>,
    ) -> Value {
        let subid = args[0].as_id().expect("validated by skeleton");
        let resid = args[1].as_id().expect("validated by skeleton");
        match op {
            "request_permission" => {
                if self.held.contains_key(&resid) {
                    self.waiting.entry(resid).or_default().push_back(subid);
                } else {
                    self.grant(ctx, subid, resid);
                }
            }
            "free" => {
                if self.held.get(&resid) == Some(&subid) {
                    self.held.remove(&resid);
                    let policy = self.policy;
                    let next = self
                        .waiting
                        .get_mut(&resid)
                        .and_then(|queue| policy.pick(queue, |n| ctx.rand_below(n)));
                    if let Some(next) = next {
                        self.grant(ctx, next, resid);
                    }
                }
            }
            other => panic!("unexpected operation {other}"),
        }
        Value::Unit
    }
}

/// A subscriber component for the callback solution. Its workload — think,
/// request, hold, free — is interleaved with callback handling.
#[derive(Debug)]
pub struct CallbackSubscriber {
    me: u64,
    resources: u64,
    rounds_left: u32,
    hold: svckit_model::Duration,
    think: svckit_model::Duration,
    holding: Option<u64>,
}

impl CallbackSubscriber {
    /// Creates subscriber `me` (1-based) with the given workload.
    pub fn new(me: u64, params: &RunParams) -> Self {
        CallbackSubscriber {
            me,
            resources: params.resource_count(),
            rounds_left: params.round_count(),
            hold: params.hold_time(),
            think: params.think_time(),
            holding: None,
        }
    }
}

impl Component for CallbackSubscriber {
    fn on_activate(&mut self, ctx: &mut MwCtx<'_, '_>) {
        if self.rounds_left > 0 {
            ctx.set_timer(self.think, THINK);
        }
    }

    fn handle_operation(
        &mut self,
        ctx: &mut MwCtx<'_, '_>,
        _iface: &str,
        op: &str,
        args: Vec<Value>,
    ) -> Value {
        assert_eq!(op, "grant");
        let resid = args[0].as_id().expect("validated by skeleton");
        self.holding = Some(resid);
        ctx.record_primitive_to_user(subscriber_sap(ctx.id()), "granted", vec![Value::Id(resid)]);
        ctx.set_timer(self.hold, HOLD);
        Value::Unit
    }

    fn on_timer(&mut self, ctx: &mut MwCtx<'_, '_>, timer: TimerId) {
        if timer == THINK {
            let resid = ctx.rand_below(self.resources) + 1;
            ctx.record_primitive_from_user(
                subscriber_sap(ctx.id()),
                "request",
                vec![Value::Id(resid)],
            );
            ctx.invoke(
                CONTROLLER,
                "Controller",
                "request_permission",
                vec![Value::Id(self.me), Value::Id(resid)],
                1,
            )
            .expect("controller interface is in the plan");
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
                2,
            )
            .expect("controller interface is in the plan");
            self.rounds_left -= 1;
            if self.rounds_left > 0 {
                ctx.set_timer(self.think, THINK);
            }
        }
    }
}

/// Deploys the callback solution for the given parameters (FIFO grants).
pub fn deploy(params: &RunParams) -> MwSystem {
    deploy_with_policy(params, GrantPolicy::Fifo)
}

/// Deploys the callback solution with an explicit grant policy
/// (ablation A5).
pub fn deploy_with_policy(params: &RunParams, policy: GrantPolicy) -> MwSystem {
    let mut plan = DeploymentPlan::builder(PlatformCaps::rpc("component-mw")).component(
        CONTROLLER,
        controller_part(),
        vec![controller_interface()],
    );
    for k in 1..=params.subscriber_count() {
        plan = plan.component(
            subscriber_name(k),
            subscriber_part(k),
            vec![subscriber_interface()],
        );
    }
    let plan = plan.build().expect("callback plan is well-formed");

    let mut builder = MwSystemBuilder::new(plan)
        .admission(super::admission_gate())
        .seed(params.seed_value())
        .shards(params.shard_count())
        .link(params.link_config().clone())
        .component(
            CONTROLLER,
            Box::new(CallbackController::with_policy(policy)),
        );
    for k in 1..=params.subscriber_count() {
        builder = builder.component(
            subscriber_name(k),
            Box::new(CallbackSubscriber::new(k, params)),
        );
    }
    builder.build().expect("all components are bound")
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::conformance::{check_trace, CheckOptions};

    #[test]
    fn callback_solution_completes_and_conforms() {
        let params = RunParams::default().subscribers(3).resources(1).rounds(2);
        let mut system = deploy(&params);
        let report = system.run_to_quiescence(params.cap()).unwrap();
        assert!(report.is_quiescent());
        assert_eq!(report.trace().count_of("granted"), 6);
        assert_eq!(report.trace().count_of("free"), 6);
        let check = check_trace(
            &crate::service::floor_control_service(),
            report.trace(),
            &CheckOptions::default(),
        );
        assert!(check.is_conformant(), "{check}");
    }

    #[test]
    fn lifo_policy_worsens_tail_latency_but_not_safety() {
        use crate::metrics::FloorMetrics;
        use svckit_model::conformance::{check_trace, CheckOptions};
        let params = RunParams::default()
            .subscribers(6)
            .resources(1)
            .rounds(4)
            .seed(13);
        let run = |policy| {
            let mut system = deploy_with_policy(&params, policy);
            let report = system.run_to_quiescence(params.cap()).unwrap();
            assert!(report.is_quiescent());
            let check = check_trace(
                &crate::service::floor_control_service(),
                report.trace(),
                &CheckOptions::default(),
            );
            assert!(check.is_conformant(), "{policy}: {check}");
            FloorMetrics::from_trace(report.trace())
        };
        let fifo = run(GrantPolicy::Fifo);
        let lifo = run(GrantPolicy::Lifo);
        assert_eq!(fifo.grants(), 24);
        assert_eq!(lifo.grants(), 24);
        assert!(
            lifo.p99_latency() > fifo.p99_latency(),
            "lifo p99 {} should exceed fifo p99 {}",
            lifo.p99_latency(),
            fifo.p99_latency()
        );
    }

    #[test]
    fn contention_is_serialised_fifo() {
        // One resource, many subscribers: every grant must be preceded by a
        // free of the previous holder; conformance (mutual exclusion) is the
        // real assertion, plus everyone eventually finishes.
        let params = RunParams::default()
            .subscribers(5)
            .resources(1)
            .rounds(3)
            .seed(7);
        let mut system = deploy(&params);
        let report = system.run_to_quiescence(params.cap()).unwrap();
        assert!(report.is_quiescent());
        assert_eq!(report.trace().count_of("granted"), 15);
    }
}
