//! Goldens for the one-shard engine on a mixed topology.
//!
//! With one shard, link randomness (loss, duplication, jitter) comes from
//! a single stream seeded from the run seed and drawn in global event
//! order, including one jitter draw for every delivered copy, even on a
//! zero-jitter link. These goldens pin that draw pattern: the default link
//! is lossy, jittered and duplicating, and one directed pair is a
//! zero-jitter lossless link. Skipping any draw on that pair shifts every
//! later draw on the others and changes the digests.
//!
//! A second golden pins the engine's own counters, `events_processed()`
//! and `peak_queue_len()`, for a run cut into short slices, and checks
//! that slicing does not change the final report.

use svckit_model::{Duration, PartId, Sap, Value};
use svckit_netsim::{Context, LinkConfig, Payload, Process, SimConfig, Simulator, TimerId};

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Every millisecond sends a frame to the next peer in a fixed rotation,
/// and records every arrival as a trace primitive.
struct Rotor {
    peers: Vec<PartId>,
    next: usize,
    remaining: u32,
}

impl Process for Rotor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_millis(1), TimerId(1));
    }
    fn on_message(&mut self, ctx: &mut Context<'_>, from: PartId, payload: Payload) {
        ctx.record_primitive(
            Sap::new("probe", ctx.id()),
            "recv",
            vec![Value::Id(payload.len() as u64), Value::Id(from.raw())],
        );
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId) {
        let to = self.peers[self.next % self.peers.len()];
        self.next += 1;
        ctx.send(to, vec![0u8; 1 + (self.remaining as usize % 5)]);
        self.remaining -= 1;
        if self.remaining > 0 {
            ctx.set_timer(Duration::from_millis(1), TimerId(1));
        }
    }
}

/// Four nodes over a lossy, jittered, duplicating default link, with the
/// directed pair 1 → 2 set to a zero-jitter lossless link.
fn mixed_sim() -> Simulator {
    let lossy = LinkConfig::lossy(Duration::from_millis(2), Duration::from_millis(1), 0.2)
        .with_duplication(0.1);
    let mut sim = Simulator::new(SimConfig::new(42).default_link(lossy));
    for id in 1..=4u64 {
        let peers = (1..=4).filter(|&p| p != id).map(PartId::new).collect();
        sim.add_process(
            PartId::new(id),
            Box::new(Rotor {
                peers,
                next: 0,
                remaining: 40,
            }),
        )
        .unwrap();
    }
    sim.set_link(
        PartId::new(1),
        PartId::new(2),
        LinkConfig::perfect(Duration::from_millis(1)),
    );
    sim
}

#[test]
fn one_shard_mixed_topology_matches_golden_digest() {
    let mut sim = mixed_sim();
    let report = sim.run_to_quiescence(Duration::from_secs(60)).unwrap();
    assert!(report.is_quiescent());
    assert_eq!(fnv1a(format!("{report:?}").as_bytes()), GOLDEN_MIXED_SEED42);
}

#[test]
fn one_shard_sliced_run_pins_engine_counters() {
    let mut whole = mixed_sim();
    let unsliced = whole.run_to_quiescence(Duration::from_secs(60)).unwrap();

    let mut sim = mixed_sim();
    let mut slices = 0u32;
    let mut chain = String::new();
    let last = loop {
        let report = sim.run_to_quiescence(Duration::from_millis(1)).unwrap();
        slices += 1;
        // The counters after every slice, not just the last: a slice that
        // stops at its deadline counts the events it leaves pending.
        chain.push_str(&format!(
            "{report:?} events={} peak={}\n",
            sim.events_processed(),
            sim.peak_queue_len()
        ));
        if report.is_quiescent() {
            break report;
        }
    };
    assert_eq!(format!("{last:?}"), format!("{unsliced:?}"));
    assert_eq!(
        (
            slices,
            sim.events_processed(),
            sim.peak_queue_len(),
            fnv1a(chain.as_bytes())
        ),
        GOLDEN_SLICED_SEED42
    );
    assert_eq!(sim.events_processed(), whole.events_processed());
}

// Captured from the stand-alone serial engine that predated the one-shard
// case of the sharded engine. Must only change with a deliberate,
// documented change to simulation semantics.
const GOLDEN_MIXED_SEED42: u64 = 7_195_418_633_584_372_562;
/// `(slices, events_processed, peak_queue_len, digest of every slice's
/// report and counters)`.
const GOLDEN_SLICED_SEED42: (u32, u64, usize, u64) = (43, 305, 18, 3_839_606_224_829_549_658);
