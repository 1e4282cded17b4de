//! Figure 6 (b): the asymmetric polling-style protocol.
//!
//! PDUs: `is_available_req(resid)`, `is_available_resp(avail)`,
//! `free(resid)`. The polling loop lives inside the *subscriber protocol
//! entity*: "the subscriber requests the resource and the service is
//! responsible for 'polling'". The user part is the same
//! [`ScriptedSubscriber`] as in the other two protocols.
//!
//! As in the figure, `is_available_resp` carries only the boolean, so each
//! entity keeps at most one poll outstanding (stop-and-wait polling) —
//! sufficient because the floor-control user requests one resource at a
//! time.

use std::collections::BTreeMap;

use svckit_codec::{Pdu, PduRegistry, PduSchema};
use svckit_model::{Duration, PartId, Value, ValueType};
use svckit_netsim::TimerId;
use svckit_protocol::{EntityCtx, ProtocolEntity, Stack, StackBuilder};

use crate::params::RunParams;
use crate::service::subscriber_sap;

use super::callback::NoUser;
use super::{controller_part, subscriber_part, ScriptedSubscriber};

const POLL: TimerId = TimerId(1);

/// The PDU set of Figure 6 (b).
pub fn registry() -> PduRegistry {
    let mut r = PduRegistry::new();
    r.register(PduSchema::new(1, "is_available_req").field("resid", ValueType::Id))
        .expect("static schema");
    r.register(PduSchema::new(2, "is_available_resp").field("avail", ValueType::Bool))
        .expect("static schema");
    r.register(PduSchema::new(3, "free").field("resid", ValueType::Id))
        .expect("static schema");
    r
}

/// The subscriber-side protocol entity, owner of the polling loop.
#[derive(Debug)]
pub struct SubscriberEntity {
    controller: PartId,
    poll_interval: Duration,
    pending: Option<u64>,
}

impl SubscriberEntity {
    /// Creates an entity polling `controller` every `poll_interval`.
    pub fn new(controller: PartId, poll_interval: Duration) -> Self {
        SubscriberEntity {
            controller,
            poll_interval,
            pending: None,
        }
    }

    fn poll(&self, ctx: &mut EntityCtx<'_, '_>) {
        let resid = self.pending.expect("poll only while pending");
        ctx.send_pdu(self.controller, "is_available_req", &[Value::Id(resid)])
            .expect("poll pdu matches schema");
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
                assert!(
                    self.pending.is_none(),
                    "floor-control user requests one resource at a time"
                );
                self.pending = Some(args[0].as_id().expect("request carries a resource id"));
                self.poll(ctx);
            }
            "free" => {
                ctx.send_pdu(self.controller, "free", &args)
                    .expect("free pdu matches schema");
            }
            other => panic!("unexpected user primitive {other}"),
        }
    }

    fn on_pdu(&mut self, ctx: &mut EntityCtx<'_, '_>, _from: PartId, pdu: Pdu) {
        assert_eq!(pdu.name(), "is_available_resp");
        // A response with nothing pending is stale — a duplicate delivered by
        // an unreliable link, or a reply overtaken by a grant. The response
        // carries no correlation id (Figure 6 (b): only the boolean), so the
        // only safe reaction is to drop it; trusting a stale `true` could
        // claim a resource the controller has since granted elsewhere.
        let Some(resid) = self.pending else {
            return;
        };
        // A malformed response (wrong field type) is dropped like a stale
        // one; the poll timer keeps the loop alive.
        let Some(available) = resp_field(&pdu) else {
            ctx.set_timer(self.poll_interval, POLL);
            return;
        };
        if available {
            self.pending = None;
            ctx.deliver_to_user("granted", vec![Value::Id(resid)]);
        } else {
            ctx.set_timer(self.poll_interval, POLL);
        }
    }

    fn on_timer(&mut self, ctx: &mut EntityCtx<'_, '_>, timer: TimerId) {
        assert_eq!(timer, POLL);
        if self.pending.is_some() {
            self.poll(ctx);
        }
    }
}

/// The controller protocol entity: check-and-acquire holder bookkeeping.
#[derive(Debug, Default)]
pub struct ControllerEntity {
    held: BTreeMap<u64, PartId>,
}

impl ControllerEntity {
    /// Creates an idle controller entity.
    pub fn new() -> Self {
        ControllerEntity::default()
    }
}

impl ProtocolEntity for ControllerEntity {
    fn on_user_primitive(&mut self, _: &mut EntityCtx<'_, '_>, primitive: &str, _: Vec<Value>) {
        panic!("the controller entity serves no user part, got {primitive}");
    }

    fn on_pdu(&mut self, ctx: &mut EntityCtx<'_, '_>, from: PartId, pdu: Pdu) {
        match pdu.name() {
            "is_available_req" => {
                let Some(resid) = resid_field(&pdu) else {
                    return;
                };
                let available = !self.held.contains_key(&resid);
                if available {
                    self.held.insert(resid, from);
                }
                ctx.send_pdu(from, "is_available_resp", &[Value::Bool(available)])
                    .expect("response pdu matches schema");
            }
            "free" => {
                let Some(resid) = resid_field(&pdu) else {
                    return;
                };
                if self.held.get(&resid) == Some(&from) {
                    self.held.remove(&resid);
                }
            }
            other => panic!("unexpected pdu {other}"),
        }
    }
}

/// Extracts the boolean from an `is_available_resp` PDU; `None` on a
/// malformed PDU (wrong field type from a foreign registry).
fn resp_field(pdu: &Pdu) -> Option<bool> {
    pdu.arg(0).ok()?.try_bool().ok()
}

/// Extracts the resource id carried by `is_available_req` / `free`; `None`
/// on a malformed PDU. The controller drops such PDUs rather than panicking.
fn resid_field(pdu: &Pdu) -> Option<u64> {
    pdu.arg(0).ok()?.try_id().ok()
}

/// Assembles the polling protocol stack for the given parameters.
pub fn deploy(params: &RunParams) -> Stack {
    let mut builder = StackBuilder::new(registry())
        .seed(params.seed_value())
        .shards(params.shard_count())
        .link(params.link_config().clone())
        .node(
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
            Box::new(SubscriberEntity::new(controller_part(), params.poll_time())),
        );
    }
    builder.build().expect("node ids are distinct")
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::conformance::{check_trace, CheckOptions};

    #[test]
    fn polling_protocol_completes_and_conforms() {
        let params = RunParams::default().subscribers(3).resources(1).rounds(2);
        let mut stack = deploy(&params);
        let report = stack.run_to_quiescence(params.cap()).unwrap();
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
    fn stale_responses_on_an_unreliable_link_are_dropped_not_trusted() {
        // Duplication delivers `is_available_resp` copies after the poll they
        // answer is resolved; loss strands polls entirely. The entity must
        // drop the stale copies (no panic, no phantom grant) and may stall,
        // but the observed trace must stay within the service definition.
        let link = svckit_netsim::LinkConfig::lossy(
            Duration::from_millis(1),
            Duration::from_micros(300),
            0.15,
        )
        .with_duplication(0.10);
        let params = RunParams::default()
            .subscribers(3)
            .resources(1)
            .rounds(2)
            .seed(41)
            .link(link)
            .time_cap(Duration::from_secs(30));
        let mut stack = deploy(&params);
        let report = stack.run_to_quiescence(params.cap()).unwrap();
        // The stranded polls stall the run; requests still in flight at the
        // cut-off are pending obligations, not violations (same treatment as
        // run_solution gives incomplete runs).
        let options = CheckOptions {
            allow_pending_liveness: true,
        };
        let check = check_trace(
            &crate::service::floor_control_service(),
            report.trace(),
            &options,
        );
        assert!(check.is_conformant(), "{check}");
    }

    #[test]
    fn malformed_pdus_are_rejected_by_the_field_extractors() {
        let mut foreign = PduRegistry::new();
        foreign
            .register(PduSchema::new(2, "is_available_resp").field("avail", ValueType::Id))
            .unwrap();
        let bytes = foreign
            .encode("is_available_resp", &[Value::Id(1)])
            .unwrap();
        let bad = foreign.decode(&bytes).unwrap();
        assert_eq!(resp_field(&bad), None);
        assert_eq!(resid_field(&bad), Some(1));

        let r = registry();
        let bytes = r.encode("is_available_resp", &[Value::Bool(true)]).unwrap();
        let good = r.decode(&bytes).unwrap();
        assert_eq!(resp_field(&good), Some(true));
        assert_eq!(resid_field(&good), None);
    }

    #[test]
    fn contention_multiplies_pdus_not_user_actions() {
        let params = RunParams::default()
            .subscribers(4)
            .resources(1)
            .rounds(2)
            .seed(3);
        let mut stack = deploy(&params);
        let report = stack.run_to_quiescence(params.cap()).unwrap();
        assert!(report.is_quiescent());
        // Users still act 3 times per round (request, granted, free)…
        assert_eq!(report.trace().count_of("request"), 8);
        // …but the provider exchanged far more PDUs while polling.
        assert!(stack.total_counters().pdus_sent > 3 * 8);
    }
}
