//! Figure 6 (c): the symmetric token-passing protocol.
//!
//! A single PDU, `pass(list of resid)`, circulates the set of available
//! resources around the ring of subscriber protocol entities. Unlike the
//! token-based *middleware* solution — where the application components
//! manage the token and can park it when their workload ends — a protocol
//! entity cannot know whether its user will ever request again, so the
//! token circulates for as long as the simulation runs. The run harness
//! therefore measures token runs up to workload completion; the
//! keeps-costing-messages-while-idle behaviour is itself a finding reported
//! by ablation A2 (DESIGN.md).

use std::collections::BTreeSet;

use svckit_codec::{Pdu, PduRegistry, PduSchema};
use svckit_model::{PartId, Value, ValueType};
use svckit_protocol::{EntityCtx, ProtocolEntity, Stack, StackBuilder};

use crate::params::RunParams;
use crate::service::subscriber_sap;

use super::{subscriber_part, ScriptedSubscriber};

/// The PDU set of Figure 6 (c).
pub fn registry() -> PduRegistry {
    let mut r = PduRegistry::new();
    r.register(
        PduSchema::new(1, "pass").field("available", ValueType::Set(Box::new(ValueType::Id))),
    )
    .expect("static schema");
    r
}

/// A subscriber protocol entity in the token ring.
#[derive(Debug)]
pub struct TokenEntity {
    next: PartId,
    wanted: Option<u64>,
    release_pending: BTreeSet<u64>,
    initial_token: Option<BTreeSet<u64>>,
}

impl TokenEntity {
    /// Creates a ring member forwarding to `next`. When `initial_token` is
    /// set, this entity injects the token at start-up.
    pub fn new(next: PartId, initial_token: Option<BTreeSet<u64>>) -> Self {
        TokenEntity {
            next,
            wanted: None,
            release_pending: BTreeSet::new(),
            initial_token,
        }
    }

    fn forward(&self, ctx: &mut EntityCtx<'_, '_>, available: BTreeSet<u64>) {
        ctx.send_pdu(self.next, "pass", &[Value::id_set(available)])
            .expect("pass pdu matches schema");
    }
}

impl ProtocolEntity for TokenEntity {
    fn on_start(&mut self, ctx: &mut EntityCtx<'_, '_>) {
        if let Some(token) = self.initial_token.take() {
            self.forward(ctx, token);
        }
    }

    fn on_user_primitive(
        &mut self,
        _ctx: &mut EntityCtx<'_, '_>,
        primitive: &str,
        args: Vec<Value>,
    ) {
        match primitive {
            "request" => {
                assert!(self.wanted.is_none(), "one request at a time");
                self.wanted = Some(args[0].as_id().expect("request carries a resource id"));
            }
            "free" => {
                self.release_pending
                    .insert(args[0].as_id().expect("free carries a resource id"));
            }
            other => panic!("unexpected user primitive {other}"),
        }
    }

    fn on_pdu(&mut self, ctx: &mut EntityCtx<'_, '_>, _from: PartId, pdu: Pdu) {
        assert_eq!(pdu.name(), "pass");
        // A malformed token (wrong field type) cannot be repaired, but
        // forwarding an empty token keeps the ring alive so pending releases
        // eventually re-seed availability.
        let Some(available) = token_field(&pdu) else {
            self.forward(ctx, BTreeSet::new());
            return;
        };
        let mut available = available;
        available.append(&mut self.release_pending);
        if let Some(wanted) = self.wanted {
            if available.remove(&wanted) {
                self.wanted = None;
                ctx.deliver_to_user("granted", vec![Value::Id(wanted)]);
            }
        }
        self.forward(ctx, available);
    }
}

/// Extracts the availability set from a `pass` PDU; `None` on a malformed
/// PDU (wrong field type from a foreign registry).
fn token_field(pdu: &Pdu) -> Option<BTreeSet<u64>> {
    let set = pdu.arg(0).ok()?.try_set().ok()?;
    Some(set.iter().filter_map(Value::as_id).collect())
}

/// Assembles the token protocol stack for the given parameters.
pub fn deploy(params: &RunParams) -> Stack {
    let n = params.subscriber_count();
    let full: BTreeSet<u64> = (1..=params.resource_count()).collect();
    let mut builder = StackBuilder::new(registry())
        .seed(params.seed_value())
        .shards(params.shard_count())
        .link(params.link_config().clone());
    for k in 1..=n {
        let next = subscriber_part(k % n + 1);
        let initial = if k == 1 { Some(full.clone()) } else { None };
        builder = builder.node(
            subscriber_part(k),
            subscriber_sap(subscriber_part(k)),
            Box::new(ScriptedSubscriber::new(params)),
            Box::new(TokenEntity::new(next, initial)),
        );
    }
    builder.build().expect("node ids are distinct")
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::conformance::{check_trace, CheckOptions};
    use svckit_model::Duration;

    #[test]
    fn token_protocol_serves_all_rounds() {
        let params = RunParams::default().subscribers(3).resources(2).rounds(2);
        let mut stack = deploy(&params);
        // The token never stops circulating, so run in slices until the
        // workload completes.
        let expected_frees = params.expected_grants();
        let mut frees = 0;
        for _ in 0..200 {
            let report = stack.run_to_quiescence(Duration::from_millis(50)).unwrap();
            frees = report.trace().count_of("free") as u64;
            if frees >= expected_frees {
                let check = check_trace(
                    &crate::service::floor_control_service(),
                    report.trace(),
                    &CheckOptions::default(),
                );
                assert!(check.is_conformant(), "{check}");
                return;
            }
        }
        panic!("workload did not complete: {frees}/{expected_frees} frees");
    }

    #[test]
    fn malformed_tokens_are_rejected_by_the_field_extractor() {
        let mut foreign = PduRegistry::new();
        foreign
            .register(PduSchema::new(1, "pass").field("available", ValueType::Id))
            .unwrap();
        let bytes = foreign.encode("pass", &[Value::Id(7)]).unwrap();
        let bad = foreign.decode(&bytes).unwrap();
        assert_eq!(token_field(&bad), None);

        let r = registry();
        let bytes = r.encode("pass", &[Value::id_set([2, 5])]).unwrap();
        let good = r.decode(&bytes).unwrap();
        assert_eq!(token_field(&good), Some(BTreeSet::from([2, 5])));
    }

    #[test]
    fn token_keeps_circulating_after_completion() {
        let params = RunParams::default().subscribers(2).resources(1).rounds(1);
        let mut stack = deploy(&params);
        let r1 = stack.run_to_quiescence(Duration::from_millis(200)).unwrap();
        let m1 = stack.total_counters().pdus_sent;
        assert_eq!(r1.trace().count_of("free"), 2);
        let _ = stack.run_to_quiescence(Duration::from_millis(200)).unwrap();
        let m2 = stack.total_counters().pdus_sent;
        assert!(m2 > m1, "token should keep consuming bandwidth while idle");
    }
}
