//! Figure 6 (a): the asymmetric callback-style protocol.
//!
//! PDUs: `request(subid, resid)`, `granted(resid)`, `free(resid)`.
//! Subscriber protocol entities forward user requests to a controller
//! entity, which queues them FIFO and sends `granted` PDUs; the subscriber
//! entity turns those into `granted` indications at the access point. The
//! key contrast with the middleware polling solution (Section 5): here *the
//! service provider* does the waiting, not the application.

use std::collections::{BTreeMap, VecDeque};

use svckit_codec::{Pdu, PduRegistry, PduSchema};
use svckit_model::{PartId, Value, ValueType};
use svckit_protocol::{EntityCtx, ProtocolEntity, Stack, StackBuilder};

use crate::params::RunParams;
use crate::service::subscriber_sap;

use super::{controller_part, subscriber_part, ScriptedSubscriber};

/// The PDU set of Figure 6 (a).
pub fn registry() -> PduRegistry {
    let mut r = PduRegistry::new();
    r.register(
        PduSchema::new(1, "request")
            .field("subid", ValueType::Id)
            .field("resid", ValueType::Id),
    )
    .expect("static schema");
    r.register(PduSchema::new(2, "granted").field("resid", ValueType::Id))
        .expect("static schema");
    r.register(PduSchema::new(3, "free").field("resid", ValueType::Id))
        .expect("static schema");
    r
}

/// The subscriber-side protocol entity.
#[derive(Debug)]
pub struct SubscriberEntity {
    controller: PartId,
}

impl SubscriberEntity {
    /// Creates an entity that talks to the controller at `controller`.
    pub fn new(controller: PartId) -> Self {
        SubscriberEntity { controller }
    }
}

impl ProtocolEntity for SubscriberEntity {
    fn on_user_primitive(
        &mut self,
        ctx: &mut EntityCtx<'_, '_>,
        primitive: &str,
        args: Vec<Value>,
    ) {
        match primitive {
            "request" => {
                let pdu_args = vec![Value::Id(ctx.id().raw()), args[0].clone()];
                ctx.send_pdu(self.controller, "request", &pdu_args)
                    .expect("request pdu matches schema");
            }
            "free" => {
                ctx.send_pdu(self.controller, "free", &args)
                    .expect("free pdu matches schema");
            }
            other => panic!("unexpected user primitive {other}"),
        }
    }

    fn on_pdu(&mut self, ctx: &mut EntityCtx<'_, '_>, _from: PartId, pdu: Pdu) {
        assert_eq!(pdu.name(), "granted");
        ctx.deliver_to_user("granted", pdu.into_args());
    }
}

/// The controller protocol entity: per-resource holder plus FIFO queue.
#[derive(Debug, Default)]
pub struct ControllerEntity {
    held: BTreeMap<u64, PartId>,
    waiting: BTreeMap<u64, VecDeque<PartId>>,
}

impl ControllerEntity {
    /// Creates an idle controller entity.
    pub fn new() -> Self {
        ControllerEntity::default()
    }

    fn grant(&mut self, ctx: &mut EntityCtx<'_, '_>, to: PartId, resid: u64) {
        self.held.insert(resid, to);
        ctx.send_pdu(to, "granted", &[Value::Id(resid)])
            .expect("granted pdu matches schema");
    }
}

/// Extracts `(requester, resid)` from a `request` PDU, or `None` when the
/// arguments do not have the declared shape (a PDU decoded against a foreign
/// registry). The controller drops such PDUs rather than panicking.
fn request_fields(pdu: &Pdu) -> Option<(PartId, u64)> {
    let requester = pdu.arg(0).ok()?.try_id().ok()?;
    let resid = pdu.arg(1).ok()?.try_id().ok()?;
    Some((PartId::new(requester), resid))
}

/// Extracts the resource id from a `free` PDU; `None` on a malformed PDU.
fn free_field(pdu: &Pdu) -> Option<u64> {
    pdu.arg(0).ok()?.try_id().ok()
}

impl ProtocolEntity for ControllerEntity {
    fn on_user_primitive(&mut self, _: &mut EntityCtx<'_, '_>, primitive: &str, _: Vec<Value>) {
        panic!("the controller entity serves no user part, got {primitive}");
    }

    fn on_pdu(&mut self, ctx: &mut EntityCtx<'_, '_>, from: PartId, pdu: Pdu) {
        match pdu.name() {
            "request" => {
                let Some((requester, resid)) = request_fields(&pdu) else {
                    return;
                };
                if self.held.contains_key(&resid) {
                    self.waiting.entry(resid).or_default().push_back(requester);
                } else {
                    self.grant(ctx, requester, resid);
                }
            }
            "free" => {
                let Some(resid) = free_field(&pdu) else {
                    return;
                };
                if self.held.get(&resid) == Some(&from) {
                    self.held.remove(&resid);
                    let next = self.waiting.get_mut(&resid).and_then(VecDeque::pop_front);
                    if let Some(next) = next {
                        self.grant(ctx, next, resid);
                    }
                }
            }
            other => panic!("unexpected pdu {other}"),
        }
    }
}

/// A user part that never interacts — for the controller node, which serves
/// no access point.
#[derive(Debug)]
pub struct NoUser;

impl svckit_protocol::UserPart for NoUser {
    fn on_indication(&mut self, _: &mut svckit_protocol::UserCtx<'_, '_>, _: &str, _: Vec<Value>) {}
}

/// Assembles the callback protocol stack for the given parameters.
pub fn deploy(params: &RunParams) -> Stack {
    deploy_with_reliability(params, None)
}

/// Assembles the callback protocol stack with an optional stop-and-wait
/// reliability sub-layer between the entities and the lower-level service —
/// required when [`RunParams::link`](RunParams) configures a lossy datagram
/// service (ablation A3).
pub fn deploy_with_reliability(
    params: &RunParams,
    reliability: Option<svckit_protocol::ReliabilityConfig>,
) -> Stack {
    let mut builder = StackBuilder::new(registry())
        .seed(params.seed_value())
        .shards(params.shard_count())
        .link(params.link_config().clone());
    if let Some(config) = reliability {
        builder = builder.reliability(config);
    }
    builder = builder.node(
        controller_part(),
        svckit_model::Sap::new("provider", controller_part()),
        Box::new(NoUser),
        Box::new(ControllerEntity::new()),
    );
    for k in 1..=params.subscriber_count() {
        builder = builder.node(
            subscriber_part(k),
            subscriber_sap(subscriber_part(k)),
            Box::new(ScriptedSubscriber::new(params)),
            Box::new(SubscriberEntity::new(controller_part())),
        );
    }
    builder.build().expect("node ids are distinct")
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::conformance::{check_trace, CheckOptions};

    #[test]
    fn callback_protocol_completes_and_conforms() {
        let params = RunParams::default().subscribers(3).resources(1).rounds(2);
        let mut stack = deploy(&params);
        let report = stack.run_to_quiescence(params.cap()).unwrap();
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
    fn malformed_pdus_are_dropped_not_panicked_on() {
        // A PDU decoded against a foreign registry can carry the right name
        // with the wrong field types. The field extractors must reject it so
        // the controller drops it instead of unwrapping.
        let mut foreign = PduRegistry::new();
        foreign
            .register(
                PduSchema::new(1, "request")
                    .field("subid", ValueType::Bool)
                    .field("resid", ValueType::Bool),
            )
            .unwrap();
        foreign
            .register(PduSchema::new(3, "free").field("resid", ValueType::Bool))
            .unwrap();
        let bytes = foreign
            .encode("request", &[Value::Bool(true), Value::Bool(false)])
            .unwrap();
        let bad_request = foreign.decode(&bytes).unwrap();
        assert_eq!(request_fields(&bad_request), None);
        let bytes = foreign.encode("free", &[Value::Bool(true)]).unwrap();
        let bad_free = foreign.decode(&bytes).unwrap();
        assert_eq!(free_field(&bad_free), None);

        // Well-formed PDUs from the real registry still parse.
        let r = registry();
        let bytes = r.encode("request", &[Value::Id(4), Value::Id(7)]).unwrap();
        let good = r.decode(&bytes).unwrap();
        assert_eq!(request_fields(&good), Some((PartId::new(4), 7)));
    }

    #[test]
    fn pdu_traffic_is_three_per_uncontended_round() {
        let params = RunParams::default()
            .subscribers(2)
            .resources(4)
            .rounds(5)
            .seed(9);
        let mut stack = deploy(&params);
        let report = stack.run_to_quiescence(params.cap()).unwrap();
        assert!(report.is_quiescent());
        // request + granted + free per round per subscriber.
        let expected = 3 * 5 * 2;
        assert_eq!(stack.total_counters().pdus_sent, expected);
    }
}
