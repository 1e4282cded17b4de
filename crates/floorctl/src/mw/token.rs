//! Figure 4 (c): the token-based (symmetric) middleware solution.
//!
//! "A list with the set of available resources circulates among the
//! subscribers. Each subscriber examines the list with the set of
//! identifiers of available resources, removes the identifier of the
//! resource desired and forwards the list invoking an operation in the
//! interface of the following subscriber. When a subscriber wants to
//! release a resource, it inserts the resource identifier to be released in
//! the list."
//!
//! Engineering deviations, documented in DESIGN.md: the `pass` operation
//! carries a lap counter next to the figure's `set<ResourceId>`, so that the
//! ring can detect global quiescence and park the token (2·N consecutive
//! hops across subscribers that are done and leave the token unchanged).
//! Only the application components can implement that rule — they alone
//! know their workload is finished — which is again interaction
//! functionality living in application parts.

use std::collections::BTreeSet;

use svckit_middleware::{
    Component, DeploymentPlan, MwCtx, MwSystem, MwSystemBuilder, PlatformCaps,
};
use svckit_model::{InterfaceDef, OperationSig, Value, ValueType};
use svckit_netsim::TimerId;

use crate::params::RunParams;
use crate::service::subscriber_sap;

use super::{subscriber_name, subscriber_part, HOLD, THINK};

/// How the `pass` operation crosses the ring: as a oneway message (the
/// natural choice on a platform that offers message passing) or as a void
/// request/response invocation (the *adapter* a platform offering only
/// remote invocation — JavaRMI-like — forces on the design; see the
/// recursion experiment of Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PassStyle {
    /// Fire-and-forget `pass` (needs the oneway pattern).
    #[default]
    Oneway,
    /// `pass` as a void request/response invocation: each hop costs an
    /// extra reply message — the price of realizing the abstract oneway
    /// concept on a request/response-only platform.
    RequestResponse,
}

/// The subscriber's token interface (Figure 4 (c)), for the given pass
/// style.
pub fn token_interface_with(style: PassStyle) -> InterfaceDef {
    let op = match style {
        PassStyle::Oneway => OperationSig::oneway("pass"),
        PassStyle::RequestResponse => OperationSig::void("pass"),
    };
    InterfaceDef::new("Token").operation(
        op.param("available", ValueType::Set(Box::new(ValueType::Id)))
            .param("laps", ValueType::Int),
    )
}

/// A subscriber component of the token ring.
#[derive(Debug)]
pub struct TokenSubscriber {
    me: u64,
    ring_size: u64,
    resources: u64,
    rounds_left: u32,
    hold: svckit_model::Duration,
    think: svckit_model::Duration,
    wanted: Option<u64>,
    holding: Option<u64>,
    release_pending: BTreeSet<u64>,
    starts_token: bool,
    style: PassStyle,
}

impl TokenSubscriber {
    /// Creates subscriber `me` (1-based) in a ring of `ring_size`.
    /// Subscriber 1 injects the initial token.
    pub fn new(me: u64, params: &RunParams) -> Self {
        TokenSubscriber {
            me,
            ring_size: params.subscriber_count(),
            resources: params.resource_count(),
            rounds_left: params.round_count(),
            hold: params.hold_time(),
            think: params.think_time(),
            wanted: None,
            holding: None,
            release_pending: BTreeSet::new(),
            starts_token: me == 1,
            style: PassStyle::Oneway,
        }
    }

    /// Creates subscriber `me` with an explicit pass style.
    pub fn with_style(me: u64, params: &RunParams, style: PassStyle) -> Self {
        let mut subscriber = Self::new(me, params);
        subscriber.style = style;
        subscriber
    }

    fn next_name(&self) -> String {
        subscriber_name(self.me % self.ring_size + 1)
    }

    fn is_done(&self) -> bool {
        self.rounds_left == 0
            && self.wanted.is_none()
            && self.holding.is_none()
            && self.release_pending.is_empty()
    }

    fn forward(&self, ctx: &mut MwCtx<'_, '_>, available: BTreeSet<u64>, laps: i64) {
        let args = vec![Value::id_set(available), Value::Int(laps)];
        match self.style {
            PassStyle::Oneway => ctx
                .oneway(&self.next_name(), "Token", "pass", args)
                .expect("ring neighbour is in the plan"),
            PassStyle::RequestResponse => ctx
                .invoke(&self.next_name(), "Token", "pass", args, 0)
                .expect("ring neighbour is in the plan"),
        }
    }
}

impl Component for TokenSubscriber {
    fn on_activate(&mut self, ctx: &mut MwCtx<'_, '_>) {
        if self.rounds_left > 0 {
            ctx.set_timer(self.think, THINK);
        }
        if self.starts_token {
            let full: BTreeSet<u64> = (1..=self.resources).collect();
            self.forward(ctx, full, 0);
        }
    }

    fn handle_operation(
        &mut self,
        ctx: &mut MwCtx<'_, '_>,
        _iface: &str,
        op: &str,
        args: Vec<Value>,
    ) -> Value {
        assert_eq!(op, "pass");
        let mut available: BTreeSet<u64> = args[0]
            .as_set()
            .expect("validated by skeleton")
            .iter()
            .filter_map(Value::as_id)
            .collect();
        let laps = args[1].as_int().expect("validated by skeleton");
        let mut changed = false;

        if !self.release_pending.is_empty() {
            available.append(&mut self.release_pending);
            changed = true;
        }
        if let Some(wanted) = self.wanted {
            if available.remove(&wanted) {
                self.wanted = None;
                self.holding = Some(wanted);
                ctx.record_primitive_to_user(
                    subscriber_sap(ctx.id()),
                    "granted",
                    vec![Value::Id(wanted)],
                );
                ctx.set_timer(self.hold, HOLD);
                changed = true;
            }
        }

        let laps = if changed || !self.is_done() {
            0
        } else {
            laps + 1
        };
        if (laps as u64) < 2 * self.ring_size {
            self.forward(ctx, available, laps);
        }
        // else: every subscriber is done and the token is stable — park it.
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
            self.wanted = Some(resid);
            // Acquisition happens when the token next passes through.
        } else if timer == HOLD {
            let resid = self.holding.take().expect("hold timer only while holding");
            ctx.record_primitive_from_user(
                subscriber_sap(ctx.id()),
                "free",
                vec![Value::Id(resid)],
            );
            self.release_pending.insert(resid);
            self.rounds_left -= 1;
            if self.rounds_left > 0 {
                ctx.set_timer(self.think, THINK);
            }
        }
    }
}

/// Deploys the token solution with an explicit pass style on a platform
/// with the given capabilities.
pub fn deploy_with_style(params: &RunParams, style: PassStyle, caps: PlatformCaps) -> MwSystem {
    let mut plan = DeploymentPlan::builder(caps);
    for k in 1..=params.subscriber_count() {
        plan = plan.component(
            subscriber_name(k),
            subscriber_part(k),
            vec![token_interface_with(style)],
        );
    }
    let plan = plan.build().expect("token plan is well-formed");

    let mut builder = MwSystemBuilder::new(plan)
        .admission(super::admission_gate())
        .seed(params.seed_value())
        .shards(params.shard_count())
        .link(params.link_config().clone());
    for k in 1..=params.subscriber_count() {
        builder = builder.component(
            subscriber_name(k),
            Box::new(TokenSubscriber::with_style(k, params, style)),
        );
    }
    builder.build().expect("all components are bound")
}

/// Deploys the token solution for the given parameters (oneway pass on an
/// RPC platform that offers message passing).
pub fn deploy(params: &RunParams) -> MwSystem {
    deploy_with_style(params, PassStyle::Oneway, PlatformCaps::rpc("component-mw"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::conformance::{check_trace, CheckOptions};

    #[test]
    fn token_solution_completes_parks_and_conforms() {
        let params = RunParams::default().subscribers(3).resources(2).rounds(2);
        let mut system = deploy(&params);
        let report = system.run_to_quiescence(params.cap()).unwrap();
        assert!(
            report.is_quiescent(),
            "token should park after everyone is done"
        );
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
    fn token_circulates_even_when_uncontended() {
        // 2 subscribers, plenty of resources: the token still hops around,
        // costing messages proportional to idle time.
        let params = RunParams::default().subscribers(2).resources(4).rounds(2);
        let mut system = deploy(&params);
        let report = system.run_to_quiescence(params.cap()).unwrap();
        assert!(report.is_quiescent());
        let grants = report.trace().count_of("granted") as u64;
        assert!(
            report.metrics().messages_sent() > 2 * grants,
            "token passing should dominate message count"
        );
    }
}
