//! Figure 6 (c), extended with the ring management the paper skips.
//!
//! "For the sake of simplicity, we assume the set of subscribers is known a
//! priori, so that we can ignore ring management functionality." This
//! module implements that omitted functionality: subscribers may **join**
//! the token ring while it is running and **leave** once their workload is
//! done, without ever violating the floor-control service.
//!
//! Protocol additions to the `pass` PDU of Figure 6 (c):
//!
//! * `join_req(node)` — a joining entity asks a *sponsor* (any current
//!   member) for admission;
//! * `welcome(next)` — the sponsor splices the joiner in after itself
//!   (`joiner.next = sponsor.next; sponsor.next = joiner`) and tells it its
//!   successor;
//! * `leave_note(leaver, successor)` — a leaving entity announces its
//!   departure to every node; the predecessor rewires around it. The leaver
//!   stays in a draining state and forwards any still-in-flight token.
//!
//! An entity leaves only when it is *idle* (not waiting, not holding,
//! nothing pending release), so the token's resource accounting is never
//! disturbed. The user part above is completely unaware of all of this —
//! ring management is provider-internal, below the service boundary.

use std::collections::BTreeSet;

use svckit_codec::{Pdu, PduRegistry, PduSchema};
use svckit_model::{Duration, PartId, Value, ValueType};
use svckit_netsim::TimerId;
use svckit_protocol::{EntityCtx, ProtocolEntity, Stack, StackBuilder, UserCtx, UserPart};

use crate::params::RunParams;
use crate::service::subscriber_sap;

use super::subscriber_part;

const JOIN_TIMER: TimerId = TimerId(10);
const LEAVE_CHECK_TIMER: TimerId = TimerId(11);
const USER_THINK: TimerId = TimerId(1);
const USER_HOLD: TimerId = TimerId(2);

/// The PDU set: Figure 6 (c) plus ring management.
pub fn registry() -> PduRegistry {
    let mut r = PduRegistry::new();
    r.register(
        PduSchema::new(1, "pass").field("available", ValueType::Set(Box::new(ValueType::Id))),
    )
    .expect("static schema");
    r.register(PduSchema::new(2, "join_req").field("node", ValueType::Id))
        .expect("static schema");
    r.register(PduSchema::new(3, "welcome").field("next", ValueType::Id))
        .expect("static schema");
    r.register(
        PduSchema::new(4, "leave_note")
            .field("leaver", ValueType::Id)
            .field("successor", ValueType::Id),
    )
    .expect("static schema");
    r
}

/// Ring membership status of an entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Membership {
    /// Not yet admitted; join request pending.
    Joining,
    /// Full member of the ring.
    Active,
    /// Announced departure; forwards in-flight tokens, uses nothing.
    Left,
}

/// A token-ring entity with join/leave support.
#[derive(Debug)]
pub struct DynamicTokenEntity {
    membership: Membership,
    /// Successor in the ring (`None` until welcomed).
    next: Option<PartId>,
    /// Sponsor to ask for admission (`None` for founding members).
    sponsor: Option<PartId>,
    /// All nodes that may ever participate (for leave notes).
    peers: Vec<PartId>,
    /// Delay before a late joiner asks for admission.
    join_delay: Duration,
    /// Leave the ring after this many grants have been served locally
    /// (`None`: stay forever).
    leave_after_grants: Option<u32>,
    grants_served: u32,
    wanted: Option<u64>,
    holding: bool,
    release_pending: BTreeSet<u64>,
    initial_token: Option<BTreeSet<u64>>,
}

impl DynamicTokenEntity {
    /// Creates a founding member with a known successor. The member with
    /// `initial_token` injects the token at start.
    pub fn founding(
        next: PartId,
        peers: Vec<PartId>,
        initial_token: Option<BTreeSet<u64>>,
        leave_after_grants: Option<u32>,
    ) -> Self {
        DynamicTokenEntity {
            membership: Membership::Active,
            next: Some(next),
            sponsor: None,
            peers,
            join_delay: Duration::ZERO,
            leave_after_grants,
            grants_served: 0,
            wanted: None,
            holding: false,
            release_pending: BTreeSet::new(),
            initial_token,
        }
    }

    /// Creates a late joiner that asks `sponsor` for admission after
    /// `join_delay`.
    pub fn joiner(
        sponsor: PartId,
        peers: Vec<PartId>,
        join_delay: Duration,
        leave_after_grants: Option<u32>,
    ) -> Self {
        DynamicTokenEntity {
            membership: Membership::Joining,
            next: None,
            sponsor: Some(sponsor),
            peers,
            join_delay,
            leave_after_grants,
            grants_served: 0,
            wanted: None,
            holding: false,
            release_pending: BTreeSet::new(),
            initial_token: None,
        }
    }

    fn is_idle(&self) -> bool {
        self.wanted.is_none() && !self.holding && self.release_pending.is_empty()
    }

    fn should_leave(&self) -> bool {
        self.membership == Membership::Active
            && self.is_idle()
            && self
                .leave_after_grants
                .is_some_and(|limit| self.grants_served >= limit)
    }

    fn forward(&self, ctx: &mut EntityCtx<'_, '_>, available: BTreeSet<u64>) {
        let next = self.next.expect("forwarding requires a successor");
        ctx.send_pdu(next, "pass", &[Value::id_set(available)])
            .expect("pass pdu matches schema");
    }

    fn leave(&mut self, ctx: &mut EntityCtx<'_, '_>) {
        let successor = self.next.expect("a member always has a successor");
        self.membership = Membership::Left;
        for peer in &self.peers {
            if *peer != ctx.id() {
                ctx.send_pdu(
                    *peer,
                    "leave_note",
                    &[Value::Id(ctx.id().raw()), Value::Id(successor.raw())],
                )
                .expect("leave_note pdu matches schema");
            }
        }
    }
}

impl ProtocolEntity for DynamicTokenEntity {
    fn on_start(&mut self, ctx: &mut EntityCtx<'_, '_>) {
        if self.membership == Membership::Joining {
            ctx.set_timer(self.join_delay, JOIN_TIMER);
        }
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
                self.holding = false;
                self.release_pending
                    .insert(args[0].as_id().expect("free carries a resource id"));
            }
            other => panic!("unexpected user primitive {other}"),
        }
    }

    fn on_pdu(&mut self, ctx: &mut EntityCtx<'_, '_>, from: PartId, pdu: Pdu) {
        match pdu.name() {
            "pass" => {
                let mut available: BTreeSet<u64> = pdu.args()[0]
                    .as_set()
                    .expect("schema-checked")
                    .iter()
                    .filter_map(Value::as_id)
                    .collect();
                if self.membership == Membership::Left {
                    // Draining: hand the token straight to the successor.
                    self.forward(ctx, available);
                    return;
                }
                available.append(&mut self.release_pending);
                if let Some(wanted) = self.wanted {
                    if available.remove(&wanted) {
                        self.wanted = None;
                        self.holding = true;
                        self.grants_served += 1;
                        ctx.deliver_to_user("granted", vec![Value::Id(wanted)]);
                    }
                }
                if self.should_leave() {
                    // Forward first so the token survives, then announce.
                    self.forward(ctx, available);
                    self.leave(ctx);
                } else {
                    self.forward(ctx, available);
                }
            }
            "join_req" => {
                let joiner = PartId::new(pdu.args()[0].as_id().expect("schema-checked"));
                let old_next = self.next.expect("a member always has a successor");
                self.next = Some(joiner);
                ctx.send_pdu(joiner, "welcome", &[Value::Id(old_next.raw())])
                    .expect("welcome pdu matches schema");
            }
            "welcome" => {
                let next = PartId::new(pdu.args()[0].as_id().expect("schema-checked"));
                self.next = Some(next);
                self.membership = Membership::Active;
                // Poll the leave condition from now on.
                if self.leave_after_grants.is_some() {
                    ctx.set_timer(Duration::from_millis(5), LEAVE_CHECK_TIMER);
                }
            }
            "leave_note" => {
                let leaver = PartId::new(pdu.args()[0].as_id().expect("schema-checked"));
                let successor = PartId::new(pdu.args()[1].as_id().expect("schema-checked"));
                if self.next == Some(leaver) {
                    self.next = Some(successor);
                }
            }
            other => panic!("unexpected pdu {other} from {from}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut EntityCtx<'_, '_>, timer: TimerId) {
        match timer {
            JOIN_TIMER => {
                if self.membership == Membership::Joining {
                    let sponsor = self.sponsor.expect("joiners have a sponsor");
                    ctx.send_pdu(sponsor, "join_req", &[Value::Id(ctx.id().raw())])
                        .expect("join_req pdu matches schema");
                }
            }
            LEAVE_CHECK_TIMER => {
                // Leaving is normally triggered on token arrival; this timer
                // is a fallback for entities whose last grant was served
                // before the leave threshold was configured to trigger.
                if self.should_leave() {
                    self.leave(ctx);
                } else if self.membership == Membership::Active {
                    ctx.set_timer(Duration::from_millis(5), LEAVE_CHECK_TIMER);
                }
            }
            other => panic!("unexpected timer {other}"),
        }
    }
}

/// A floor-control user part whose workload starts after a delay — the user
/// side of a late joiner. Identical to
/// [`ScriptedSubscriber`](super::ScriptedSubscriber) otherwise.
#[derive(Debug)]
pub struct DelayedSubscriber {
    start_delay: Duration,
    resources: u64,
    rounds_left: u32,
    hold: Duration,
    think: Duration,
    holding: Option<u64>,
}

impl DelayedSubscriber {
    /// Creates the user part; the first request fires `start_delay` +
    /// think-time after simulation start.
    pub fn new(params: &RunParams, start_delay: Duration, rounds: u32) -> Self {
        DelayedSubscriber {
            start_delay,
            resources: params.resource_count(),
            rounds_left: rounds,
            hold: params.hold_time(),
            think: params.think_time(),
            holding: None,
        }
    }
}

impl UserPart for DelayedSubscriber {
    fn on_start(&mut self, ctx: &mut UserCtx<'_, '_>) {
        if self.rounds_left > 0 {
            ctx.set_timer(self.start_delay + self.think, USER_THINK);
        }
    }

    fn on_indication(&mut self, ctx: &mut UserCtx<'_, '_>, primitive: &str, args: Vec<Value>) {
        assert_eq!(primitive, "granted");
        self.holding = Some(args[0].as_id().expect("granted carries a resource id"));
        ctx.set_timer(self.hold, USER_HOLD);
    }

    fn on_timer(&mut self, ctx: &mut UserCtx<'_, '_>, timer: TimerId) {
        if timer == USER_THINK {
            let resid = ctx.rand_below(self.resources) + 1;
            ctx.invoke("request", vec![Value::Id(resid)]);
        } else if timer == USER_HOLD {
            let resid = self.holding.take().expect("hold timer only while holding");
            ctx.invoke("free", vec![Value::Id(resid)]);
            self.rounds_left -= 1;
            if self.rounds_left > 0 {
                ctx.set_timer(self.think, USER_THINK);
            }
        }
    }
}

/// Deployment shape for the dynamic ring.
#[derive(Debug, Clone)]
pub struct DynamicRingConfig {
    /// Number of founding members (≥ 2).
    pub founders: u64,
    /// Number of late joiners.
    pub joiners: u64,
    /// Delay before each joiner seeks admission (staggered per joiner).
    pub join_delay: Duration,
    /// Joiners leave after completing this many grants.
    pub joiner_rounds: u32,
}

/// Assembles a dynamic token ring: `founders` founding members plus
/// `joiners` late joiners that join, run `joiner_rounds` rounds, and leave.
pub fn deploy(params: &RunParams, config: &DynamicRingConfig) -> Stack {
    let founders = config.founders.max(2);
    let total = founders + config.joiners;
    let peers: Vec<PartId> = (1..=total).map(subscriber_part).collect();
    let full: BTreeSet<u64> = (1..=params.resource_count()).collect();

    let mut builder = StackBuilder::new(registry())
        .seed(params.seed_value())
        .shards(params.shard_count())
        .link(params.link_config().clone());
    for k in 1..=founders {
        let next = subscriber_part(k % founders + 1);
        let initial = if k == 1 { Some(full.clone()) } else { None };
        builder = builder.node(
            subscriber_part(k),
            subscriber_sap(subscriber_part(k)),
            Box::new(DelayedSubscriber::new(
                params,
                Duration::ZERO,
                params.round_count(),
            )),
            Box::new(DynamicTokenEntity::founding(
                next,
                peers.clone(),
                initial,
                None,
            )),
        );
    }
    for j in 1..=config.joiners {
        let id = founders + j;
        let delay = config.join_delay.saturating_mul(j);
        builder = builder.node(
            subscriber_part(id),
            subscriber_sap(subscriber_part(id)),
            Box::new(DelayedSubscriber::new(params, delay, config.joiner_rounds)),
            Box::new(DynamicTokenEntity::joiner(
                subscriber_part(1),
                peers.clone(),
                delay,
                Some(config.joiner_rounds),
            )),
        );
    }
    builder.build().expect("node ids are distinct")
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::conformance::{check_trace, CheckOptions};

    fn run_until_frees(stack: &mut Stack, expected: u64) -> svckit_netsim::SimReport {
        let mut last = None;
        for _ in 0..400 {
            let report = stack.run_to_quiescence(Duration::from_millis(50)).unwrap();
            let frees = report.trace().count_of("free") as u64;
            let done = frees >= expected;
            last = Some(report);
            if done {
                break;
            }
        }
        last.expect("at least one slice ran")
    }

    #[test]
    fn joiners_get_served_and_leave_without_breaking_the_service() {
        let params = RunParams::default()
            .subscribers(2)
            .resources(2)
            .rounds(2)
            .seed(17);
        let config = DynamicRingConfig {
            founders: 2,
            joiners: 2,
            join_delay: Duration::from_millis(3),
            joiner_rounds: 2,
        };
        let mut stack = deploy(&params, &config);
        // 2 founders × 2 rounds + 2 joiners × 2 rounds = 8 frees.
        let report = run_until_frees(&mut stack, 8);
        assert_eq!(report.trace().count_of("granted"), 8);
        assert_eq!(report.trace().count_of("free"), 8);
        let check = check_trace(
            &crate::service::floor_control_service(),
            report.trace(),
            &CheckOptions::default(),
        );
        assert!(check.is_conformant(), "{check}");
        // Every joiner actually got grants at its own access point.
        for j in 3..=4u64 {
            let sap = subscriber_sap(subscriber_part(j));
            let grants = report
                .trace()
                .events()
                .iter()
                .filter(|e| e.primitive() == "granted" && e.sap() == &sap)
                .count();
            assert_eq!(grants, 2, "joiner {j}");
        }
    }

    #[test]
    fn ring_keeps_circulating_after_joiners_leave() {
        let params = RunParams::default()
            .subscribers(2)
            .resources(1)
            .rounds(1)
            .seed(19);
        let config = DynamicRingConfig {
            founders: 2,
            joiners: 1,
            join_delay: Duration::from_millis(2),
            joiner_rounds: 1,
        };
        let mut stack = deploy(&params, &config);
        let report = run_until_frees(&mut stack, 3);
        assert_eq!(report.trace().count_of("free"), 3);
        // After everyone is done the token still hops among the founders:
        // extending the run produces more PDU traffic.
        let before = stack.total_counters().pdus_sent;
        let _ = stack.run_to_quiescence(Duration::from_millis(100)).unwrap();
        assert!(stack.total_counters().pdus_sent > before);
    }

    #[test]
    fn founders_alone_behave_like_the_static_ring() {
        let params = RunParams::default()
            .subscribers(3)
            .resources(2)
            .rounds(2)
            .seed(23);
        let config = DynamicRingConfig {
            founders: 3,
            joiners: 0,
            join_delay: Duration::ZERO,
            joiner_rounds: 0,
        };
        let mut stack = deploy(&params, &config);
        let report = run_until_frees(&mut stack, 6);
        assert_eq!(report.trace().count_of("granted"), 6);
        let check = check_trace(
            &crate::service::floor_control_service(),
            report.trace(),
            &CheckOptions::default(),
        );
        assert!(check.is_conformant(), "{check}");
    }
}
