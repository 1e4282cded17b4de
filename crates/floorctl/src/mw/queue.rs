//! The queue-based floor-control solution — the *messaging* branch of the
//! MDA trajectory (Figure 10).
//!
//! The paper's Figure 4 develops floor control only for a component
//! middleware with remote invocation; Figure 10, however, plans the same
//! PIM onto "asynchronous messaging (message-oriented) platforms" such as
//! JMS or MQSeries. This module is that platform-specific design: requests
//! and frees travel as messages on a `requests` queue consumed by the
//! controller, and grants come back on a per-subscriber inbox queue. Only
//! the [`InteractionPattern::MessageQueue`](svckit_model::InteractionPattern)
//! capability is used, so the deployment also fits an MQSeries-like
//! platform without publish/subscribe.

use std::collections::{BTreeMap, VecDeque};

use svckit_middleware::{
    Component, DeploymentPlan, MwCtx, MwSystem, MwSystemBuilder, PlatformCaps,
};
use svckit_model::{PartId, Value};
use svckit_netsim::TimerId;

use crate::params::RunParams;
use crate::service::subscriber_sap;

use super::{subscriber_name, subscriber_part, CONTROLLER, HOLD, THINK};

/// The queue every subscriber produces into and the controller consumes.
pub const REQUESTS_QUEUE: &str = "requests";

/// Node hosting the message broker.
pub fn broker_part() -> PartId {
    PartId::new(2000)
}

/// Node hosting the queue controller.
pub fn controller_part() -> PartId {
    PartId::new(1000)
}

/// The grant-inbox queue of subscriber `k`.
pub fn inbox(k: u64) -> String {
    format!("inbox-{k}")
}

/// The controller component: consumes `requests`, produces grants into
/// per-subscriber inboxes.
#[derive(Debug, Default)]
pub struct QueueController {
    held: BTreeMap<u64, u64>,
    waiting: BTreeMap<u64, VecDeque<u64>>,
}

impl QueueController {
    /// Creates an idle controller.
    pub fn new() -> Self {
        QueueController::default()
    }

    fn grant(&mut self, ctx: &mut MwCtx<'_, '_>, subid: u64, resid: u64) {
        self.held.insert(resid, subid);
        ctx.enqueue(&inbox(subid), vec![Value::Id(resid)])
            .expect("inbox queues are in the plan");
    }
}

impl Component for QueueController {
    fn handle_operation(
        &mut self,
        _: &mut MwCtx<'_, '_>,
        _: &str,
        op: &str,
        _: Vec<Value>,
    ) -> Value {
        panic!("the queue controller provides no interface, got {op}");
    }

    fn on_delivery(&mut self, ctx: &mut MwCtx<'_, '_>, source: &str, payload: Vec<Value>) {
        assert_eq!(source, REQUESTS_QUEUE);
        let kind = payload[0].as_text().expect("message kind").to_owned();
        let subid = payload[1].as_id().expect("subscriber id");
        let resid = payload[2].as_id().expect("resource id");
        match kind.as_str() {
            "request" => {
                if self.held.contains_key(&resid) {
                    self.waiting.entry(resid).or_default().push_back(subid);
                } else {
                    self.grant(ctx, subid, resid);
                }
            }
            "free" => {
                if self.held.get(&resid) == Some(&subid) {
                    self.held.remove(&resid);
                    let next = self.waiting.get_mut(&resid).and_then(VecDeque::pop_front);
                    if let Some(next) = next {
                        self.grant(ctx, next, resid);
                    }
                }
            }
            other => panic!("unexpected message kind {other}"),
        }
    }
}

/// A subscriber component of the queue-based solution.
#[derive(Debug)]
pub struct QueueSubscriber {
    me: u64,
    resources: u64,
    rounds_left: u32,
    hold: svckit_model::Duration,
    think: svckit_model::Duration,
    holding: Option<u64>,
}

impl QueueSubscriber {
    /// Creates subscriber `me` (1-based) with the given workload.
    pub fn new(me: u64, params: &RunParams) -> Self {
        QueueSubscriber {
            me,
            resources: params.resource_count(),
            rounds_left: params.round_count(),
            hold: params.hold_time(),
            think: params.think_time(),
            holding: None,
        }
    }
}

impl Component for QueueSubscriber {
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
        panic!("queue subscribers provide no interface, got {op}");
    }

    fn on_delivery(&mut self, ctx: &mut MwCtx<'_, '_>, _source: &str, payload: Vec<Value>) {
        let resid = payload[0].as_id().expect("grant carries a resource id");
        self.holding = Some(resid);
        ctx.record_primitive_to_user(subscriber_sap(ctx.id()), "granted", vec![Value::Id(resid)]);
        ctx.set_timer(self.hold, HOLD);
    }

    fn on_timer(&mut self, ctx: &mut MwCtx<'_, '_>, timer: TimerId) {
        if timer == THINK {
            let resid = ctx.rand_below(self.resources) + 1;
            ctx.record_primitive_from_user(
                subscriber_sap(ctx.id()),
                "request",
                vec![Value::Id(resid)],
            );
            ctx.enqueue(
                REQUESTS_QUEUE,
                vec![Value::from("request"), Value::Id(self.me), Value::Id(resid)],
            )
            .expect("requests queue is in the plan");
        } else if timer == HOLD {
            let resid = self.holding.take().expect("hold timer only while holding");
            ctx.record_primitive_from_user(
                subscriber_sap(ctx.id()),
                "free",
                vec![Value::Id(resid)],
            );
            ctx.enqueue(
                REQUESTS_QUEUE,
                vec![Value::from("free"), Value::Id(self.me), Value::Id(resid)],
            )
            .expect("requests queue is in the plan");
            self.rounds_left -= 1;
            if self.rounds_left > 0 {
                ctx.set_timer(self.think, THINK);
            }
        }
    }
}

/// Deploys the queue-based solution on a messaging platform with the given
/// platform name (e.g. `"jms-like"` or `"mqseries-like"`).
pub fn deploy_on(params: &RunParams, platform_name: &str) -> MwSystem {
    let mut plan = DeploymentPlan::builder(PlatformCaps::new(
        platform_name,
        [svckit_model::InteractionPattern::MessageQueue],
    ))
    .component(CONTROLLER, controller_part(), vec![])
    .broker(broker_part())
    .queue(REQUESTS_QUEUE, [CONTROLLER]);
    for k in 1..=params.subscriber_count() {
        plan = plan
            .component(subscriber_name(k), subscriber_part(k), vec![])
            .queue(inbox(k), [subscriber_name(k)]);
    }
    let plan = plan.build().expect("queue plan is well-formed");

    let mut builder = MwSystemBuilder::new(plan)
        .admission(super::admission_gate())
        .seed(params.seed_value())
        .shards(params.shard_count())
        .link(params.link_config().clone())
        .component(CONTROLLER, Box::new(QueueController::new()));
    for k in 1..=params.subscriber_count() {
        builder = builder.component(
            subscriber_name(k),
            Box::new(QueueSubscriber::new(k, params)),
        );
    }
    builder.build().expect("all components are bound")
}

/// Deploys on a generic JMS-like platform.
pub fn deploy(params: &RunParams) -> MwSystem {
    deploy_on(params, "jms-like")
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::conformance::{check_trace, CheckOptions};

    #[test]
    fn queue_solution_completes_and_conforms() {
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
    fn every_interaction_costs_two_hops_via_the_broker() {
        let params = RunParams::default()
            .subscribers(2)
            .resources(2)
            .rounds(2)
            .seed(5);
        let mut system = deploy(&params);
        let report = system.run_to_quiescence(params.cap()).unwrap();
        assert!(report.is_quiescent());
        let totals = system.total_counters();
        // enqueues (requests + frees + grants) each become one broker
        // delivery: transport messages = 2 × enqueues.
        let enqueues = totals.enqueues;
        assert_eq!(report.metrics().messages_sent(), 2 * enqueues);
    }
}
