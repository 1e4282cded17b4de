//! Registration, start order and per-sender accounting, pinned on both
//! engines (`shards = 1` and `shards = 4`).
//!
//! The engines keep each node's state in a dense slot table filled in
//! registration order. These tests hold the observable contract that the
//! table must not change: `on_start` runs in ascending node-id order
//! whatever the registration order, a node added after the first run is
//! reachable but never started, duplicate ids are rejected at any time,
//! and `NetMetrics::per_sender` lists exactly the nodes that sent.

use std::collections::BTreeMap;

use svckit_model::{Duration, PartId, Sap, Trace, Value};
use svckit_netsim::{
    Context, LinkConfig, NetMetrics, Payload, Process, SimConfig, SimError, Simulator, TimerId,
};

const SHARDS: [u32; 2] = [1, 4];

fn sim(shards: u32) -> Simulator {
    Simulator::new(
        SimConfig::new(7)
            .default_link(LinkConfig::perfect(Duration::from_millis(1)))
            .shards(shards),
    )
}

fn record(ctx: &mut Context<'_>, what: &str, arg: u64) {
    let sap = Sap::new("probe", ctx.id());
    ctx.record_primitive(sap, what, vec![Value::Int(arg as i64)]);
}

/// Records its own start, pings `peer` (if any) and records every
/// message it receives.
struct Node {
    peer: Option<PartId>,
}

impl Process for Node {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        record(ctx, "start", ctx.id().raw());
        if let Some(peer) = self.peer {
            ctx.send(peer, vec![ctx.id().raw() as u8]);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: PartId, _payload: Payload) {
        record(ctx, "recv", from.raw());
    }
}

fn ring_trace(shards: u32, ids: &[u64]) -> Trace {
    let mut sim = sim(shards);
    for &id in ids {
        let peer = PartId::new(id % 6 + 1);
        sim.add_process(PartId::new(id), Box::new(Node { peer: Some(peer) }))
            .unwrap();
    }
    sim.run_to_quiescence(Duration::from_secs(1))
        .unwrap()
        .into_trace()
}

#[test]
fn descending_registration_starts_in_ascending_order() {
    for shards in SHARDS {
        let ascending = ring_trace(shards, &[1, 2, 3, 4, 5, 6]);
        let descending = ring_trace(shards, &[6, 5, 4, 3, 2, 1]);
        let starts: Vec<PartId> = descending
            .iter()
            .filter(|e| e.primitive() == "start")
            .map(|e| e.sap().part())
            .collect();
        assert_eq!(starts, (1..=6).map(PartId::new).collect::<Vec<_>>());
        assert_eq!(descending, ascending, "shards={shards}");
        assert_eq!(descending.count_of("recv"), 6);
    }
}

/// Sends one message to `to` when its timer fires at 10 ms.
struct LateSender {
    to: PartId,
}

impl Process for LateSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_millis(10), TimerId(1));
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: PartId, _payload: Payload) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId) {
        ctx.send(self.to, b"late".to_vec());
    }
}

#[test]
fn process_added_after_the_first_run_is_reachable_but_not_started() {
    for shards in SHARDS {
        let mut sim = sim(shards);
        sim.add_process(PartId::new(1), Box::new(LateSender { to: PartId::new(9) }))
            .unwrap();
        let first = sim.run_to_quiescence(Duration::from_millis(5)).unwrap();
        assert!(!first.is_quiescent());
        drop(first);
        sim.add_process(PartId::new(9), Box::new(Node { peer: None }))
            .unwrap();
        let report = sim.run_to_quiescence(Duration::from_secs(1)).unwrap();
        assert!(report.is_quiescent(), "shards={shards}");
        assert_eq!(report.metrics().undeliverable(), 0, "shards={shards}");
        assert_eq!(report.metrics().messages_delivered(), 1, "shards={shards}");
        assert_eq!(report.trace().count_of("start"), 0, "shards={shards}");
        assert_eq!(report.trace().count_of("recv"), 1, "shards={shards}");
    }
}

#[test]
fn duplicate_node_is_rejected_before_and_after_start() {
    for shards in SHARDS {
        let mut sim = sim(shards);
        let node = || Box::new(Node { peer: None });
        sim.add_process(PartId::new(1), node()).unwrap();
        assert_eq!(
            sim.add_process(PartId::new(1), node()),
            Err(SimError::DuplicateNode(PartId::new(1)))
        );
        sim.run_to_quiescence(Duration::from_secs(1)).unwrap();
        assert_eq!(
            sim.add_process(PartId::new(1), node()),
            Err(SimError::DuplicateNode(PartId::new(1))),
            "shards={shards}"
        );
        sim.add_process(PartId::new(2), node()).unwrap();
        assert_eq!(
            sim.add_process(PartId::new(2), node()),
            Err(SimError::DuplicateNode(PartId::new(2))),
            "shards={shards}"
        );
    }
}

/// Node 1 sends to node 2 and to the missing node 99 at start, then to
/// node 2 again at 10 ms; node 2 echoes every message; node 3 never
/// sends.
struct Talker {
    script: bool,
}

impl Process for Talker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.script {
            ctx.send(PartId::new(2), b"a".to_vec());
            ctx.send(PartId::new(99), b"void".to_vec());
            ctx.set_timer(Duration::from_millis(10), TimerId(1));
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: PartId, payload: Payload) {
        if ctx.id() == PartId::new(2) {
            ctx.send(from, payload);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId) {
        ctx.send(PartId::new(2), b"b".to_vec());
    }
}

fn talker_slices(shards: u32) -> (NetMetrics, NetMetrics) {
    let mut sim = sim(shards);
    for (id, script) in [(3, false), (2, false), (1, true)] {
        sim.add_process(PartId::new(id), Box::new(Talker { script }))
            .unwrap();
    }
    let first = sim.run_to_quiescence(Duration::from_millis(5)).unwrap();
    let second = sim.run_to_quiescence(Duration::from_secs(1)).unwrap();
    assert!(second.is_quiescent());
    (first.metrics().clone(), second.metrics().clone())
}

#[test]
fn per_sender_counts_match_across_engines_and_persist_across_slices() {
    let senders = |pairs: &[(u64, u64)]| -> BTreeMap<PartId, u64> {
        pairs.iter().map(|&(id, n)| (PartId::new(id), n)).collect()
    };
    let (first, second) = talker_slices(1);
    // The undeliverable send counts for its sender; the silent node 3 is
    // absent.
    assert_eq!(first.undeliverable(), 1);
    assert_eq!(first.per_sender(), &senders(&[(1, 2), (2, 1)]));
    assert_eq!(second.per_sender(), &senders(&[(1, 3), (2, 2)]));
    assert_eq!(second.messages_sent(), 5);
    assert_eq!(talker_slices(4), (first, second));
}
