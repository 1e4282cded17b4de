//! Property-test oracle: on deterministic links the lock-step run over
//! two or more shards must be observationally indistinguishable from the
//! one-shard serial run, for every shard count.
//!
//! Each case builds the *same* scripted multi-node workload at
//! `shards ∈ {1, 2, 4}` and asserts that every observable is
//! byte-identical: each node's ordered handler-invocation log (which
//! handler, at which instant, with which argument — including values
//! drawn from the node's RNG stream) and the per-slice `SimReport`
//! debug rendering (metrics, merged trace, end time, quiescence).
//! Logs are compared *per node*: a node's dispatch order is part of the
//! determinism contract, the wall-clock interleaving of different
//! shards' handlers is not.
//!
//! The scripts interleave timer arm/cancel/re-arm, sends to arbitrary
//! peers (including self-sends, which never cross a shard), and node
//! RNG draws; topologies get per-pair latency overrides (every latency
//! strictly positive, so the lookahead window exists), optional
//! bandwidth limits and ordering flags; and fault scripts partition and
//! heal arbitrary pairs between run slices — partitioned links carry
//! `loss = 1.0`, which drops without consuming link randomness, so they
//! stay inside the deterministic envelope the equivalence claim covers.
//!
//! A second property holds on *all* links, jittered ones included: the
//! sharded engine draws link randomness from per-directed-pair streams,
//! so its output cannot depend on how nodes are partitioned into
//! shards. Shard counts ≥ 2 must agree byte for byte even when the
//! single-threaded reference (which draws from one global link stream)
//! legitimately differs.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use svckit_model::{Duration, PartId};
use svckit_netsim::{
    Context, LinkConfig, Payload, Process, SimConfig, SimError, Simulator, TimerId,
};

/// One scripted action, applied from inside a handler.
#[derive(Debug, Clone)]
enum Op {
    /// Arm (or re-arm) timer `id` to fire `delay` µs from now.
    Set { id: u64, delay: u64 },
    /// Cancel timer `id` (generation bump; pending firings go stale).
    Cancel { id: u64 },
    /// Send one byte to peer `1 + (peer % nodes)` (possibly self).
    Send { peer: u64, byte: u8 },
    /// Draw from the node's RNG stream and log the value: the streams
    /// must coincide across engines, not just the dispatch order.
    Rand,
}

/// A fault applied between run slices: partition or heal `a ↔ b`.
#[derive(Debug, Clone, Copy)]
struct Fault {
    partition: bool,
    a: u64,
    b: u64,
}

/// The tick timer driving the script forward; never a script target.
const TICK: TimerId = TimerId(1_000);

/// Runs one batch of ops per handler invocation, logging every event to
/// its own per-node log.
struct Driver {
    nodes: u64,
    script: VecDeque<Vec<Op>>,
    batch: u64,
    log: Arc<Mutex<Vec<String>>>,
}

impl Driver {
    fn step(&mut self, ctx: &mut Context<'_>) {
        let Some(batch) = self.script.pop_front() else {
            return;
        };
        for op in batch {
            match op {
                Op::Set { id, delay } => {
                    ctx.set_timer(Duration::from_micros(delay), TimerId(id));
                }
                Op::Cancel { id } => ctx.cancel_timer(TimerId(id)),
                Op::Send { peer, byte } => {
                    ctx.send(PartId::new(1 + (peer % self.nodes)), vec![byte]);
                }
                Op::Rand => {
                    let v = ctx.rand_u64();
                    self.log.lock().unwrap().push(format!("rand {v}"));
                }
            }
        }
        self.batch += 1;
        if !self.script.is_empty() {
            ctx.set_timer(Duration::from_micros(1 + (self.batch * 13) % 97), TICK);
        }
    }
}

impl Process for Driver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.log
            .lock()
            .unwrap()
            .push(format!("start {:?}", ctx.now()));
        self.step(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, id: TimerId) {
        self.log
            .lock()
            .unwrap()
            .push(format!("timer {:?} {:?}", ctx.now(), id));
        self.step(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: PartId, payload: Payload) {
        self.log
            .lock()
            .unwrap()
            .push(format!("msg {:?} {from:?} {:?}", ctx.now(), &payload[..]));
        self.step(ctx);
    }
}

/// A per-pair symmetric link override, decoded from the raw case.
#[derive(Debug, Clone, Copy)]
struct Override {
    a: u64,
    b: u64,
    latency_us: u64,
    bandwidth: bool,
    ordered: bool,
}

/// Everything one oracle case varies.
#[derive(Debug, Clone)]
struct Case {
    nodes: u64,
    default_latency_us: u64,
    /// Jitter bound on the default link. Must stay 0 when comparing
    /// against the single-threaded reference; the shard-count-invariance
    /// property tolerates any value.
    default_jitter_us: u64,
    scripts: Vec<Vec<Vec<Op>>>,
    overrides: Vec<Override>,
    faults: Vec<Fault>,
    slices: Vec<u64>,
}

/// Runs the case at a given shard count; returns the per-node handler
/// logs and the per-slice report debug strings.
fn run_case(case: &Case, shards: u32) -> (Vec<Vec<String>>, Vec<String>) {
    let mut sim = Simulator::new(
        SimConfig::new(0xC0FFEE)
            .default_link(
                LinkConfig::perfect(Duration::from_micros(case.default_latency_us))
                    .with_jitter(Duration::from_micros(case.default_jitter_us)),
            )
            .shards(shards),
    );
    let logs: Vec<Arc<Mutex<Vec<String>>>> = (0..case.nodes)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    for (i, log) in logs.iter().enumerate() {
        sim.add_process(
            PartId::new(1 + i as u64),
            Box::new(Driver {
                nodes: case.nodes,
                script: case.scripts[i % case.scripts.len()]
                    .iter()
                    .cloned()
                    .collect(),
                batch: 0,
                log: Arc::clone(log),
            }),
        )
        .unwrap();
    }
    for o in &case.overrides {
        let (a, b) = (1 + o.a % case.nodes, 1 + o.b % case.nodes);
        let mut link =
            LinkConfig::perfect(Duration::from_micros(o.latency_us)).with_ordering(o.ordered);
        if o.bandwidth {
            link = link.with_bandwidth(1_000_000);
        }
        sim.set_link_symmetric(PartId::new(a), PartId::new(b), link);
    }
    let mut reports = Vec::new();
    for (i, &cap) in case.slices.iter().enumerate() {
        if let Some(f) = case.faults.get(i) {
            let (a, b) = (1 + f.a % case.nodes, 1 + f.b % case.nodes);
            if a != b {
                if f.partition {
                    sim.partition(PartId::new(a), PartId::new(b));
                } else {
                    sim.heal(PartId::new(a), PartId::new(b));
                }
            }
        }
        let report = sim
            .run_to_quiescence(Duration::from_micros(cap))
            .expect("processes registered, all latencies positive");
        reports.push(format!("{report:?}"));
    }
    // Final slice: heal everything and drain. Scripts are finite and
    // dropped messages are gone, so quiescence is guaranteed.
    for f in &case.faults {
        let (a, b) = (1 + f.a % case.nodes, 1 + f.b % case.nodes);
        if a != b {
            sim.heal(PartId::new(a), PartId::new(b));
        }
    }
    let report = sim
        .run_to_quiescence(Duration::from_secs(600))
        .expect("processes registered");
    assert!(report.is_quiescent(), "final slice must drain the queue");
    reports.push(format!("events={} {report:?}", sim.events_processed()));
    let events = logs.iter().map(|log| log.lock().unwrap().clone()).collect();
    (events, reports)
}

/// Asserts shard counts 1, 2 and 4 produce byte-identical observables.
fn assert_shard_counts_agree(case: &Case) {
    let (base_logs, base_reports) = run_case(case, 1);
    for shards in [2u32, 4] {
        let (logs, reports) = run_case(case, shards);
        assert_eq!(
            base_logs, logs,
            "handler streams diverged at shards={shards}"
        );
        assert_eq!(base_reports, reports, "reports diverged at shards={shards}");
    }
}

/// Asserts shard counts 2, 3 and 4 produce byte-identical observables
/// *among themselves* — the invariance that holds on every link,
/// jittered or not, because all link randomness is per-pair. One shard,
/// which draws from a single global stream, is deliberately not in this
/// comparison.
fn assert_sharded_counts_invariant(case: &Case) {
    let (base_logs, base_reports) = run_case(case, 2);
    for shards in [3u32, 4] {
        let (logs, reports) = run_case(case, shards);
        assert_eq!(
            base_logs, logs,
            "handler streams diverged between shards=2 and shards={shards}"
        );
        assert_eq!(
            base_reports, reports,
            "reports diverged between shards=2 and shards={shards}"
        );
    }
}

type RawBatch = Vec<(u8, u64, u64, u64, u8)>;

/// Decodes raw proptest tuples into one node's op batches.
fn decode(raw: &[RawBatch]) -> Vec<Vec<Op>> {
    raw.iter()
        .map(|batch| {
            batch
                .iter()
                .map(|&(kind, id, delay, peer, byte)| match kind {
                    0..=3 => Op::Set { id, delay },
                    4..=5 => Op::Cancel { id },
                    6..=8 => Op::Send { peer, byte },
                    _ => Op::Rand,
                })
                .collect()
        })
        .collect()
}

/// Delay distribution rich in ties and window-boundary values.
fn delay_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..4,
        450u64..550,   // straddles the shortest lookahead windows
        900u64..1_100, // straddles the default-latency window
        1u64..20_000,
    ]
}

/// One node's script: a handful of batches of ops.
fn script_strategy() -> impl Strategy<Value = Vec<RawBatch>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0u8..12, 0u64..6, delay_strategy(), 0u64..8, 0u8..250),
            0..4,
        ),
        0..6,
    )
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        2u64..6,
        prop_oneof![Just(500u64), Just(1_000), Just(2_000)],
        proptest::collection::vec(script_strategy(), 1..6),
        proptest::collection::vec(
            (
                0u64..8,
                0u64..8,
                300u64..3_000,
                any::<bool>(),
                any::<bool>(),
            ),
            0..4,
        ),
        proptest::collection::vec((any::<bool>(), 0u64..8, 0u64..8), 0..4),
        proptest::collection::vec(1u64..30_000, 0..4),
    )
        .prop_map(
            |(nodes, default_latency_us, scripts, overrides, faults, slices)| Case {
                nodes,
                default_latency_us,
                default_jitter_us: 0,
                scripts: scripts.iter().map(|s| decode(s)).collect(),
                overrides: overrides
                    .into_iter()
                    .map(|(a, b, latency_us, bandwidth, ordered)| Override {
                        a,
                        b,
                        latency_us,
                        bandwidth,
                        ordered,
                    })
                    .collect(),
                faults: faults
                    .into_iter()
                    .map(|(partition, a, b)| Fault { partition, a, b })
                    .collect(),
                slices,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary topologies, scripts, per-pair link overrides, fault
    /// schedules and run slicings: shards 1, 2 and 4 agree byte for
    /// byte, per node and per report.
    #[test]
    fn shard_counts_agree_on_arbitrary_cases(case in case_strategy()) {
        assert_shard_counts_agree(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same arbitrary cases with a jittered default link: every
    /// delivery draws from its pair's stream, so shard counts 2, 3 and
    /// 4 still agree byte for byte (shards = 1 is excluded — it samples
    /// a different, equally valid, global stream).
    #[test]
    fn sharded_engine_is_shard_count_invariant_under_jitter(
        case in case_strategy(),
        jitter_us in 1u64..400,
    ) {
        let mut case = case;
        case.default_jitter_us = jitter_us;
        assert_sharded_counts_invariant(&case);
    }
}

/// Deterministic pin: a partition injected mid-run and healed later is
/// applied at the same virtual instant by every engine, so drop counts
/// and post-heal deliveries line up exactly.
#[test]
fn partition_and_heal_are_shard_invariant() {
    let chat = |peer: u64| {
        vec![
            vec![Op::Send { peer, byte: 10 }, Op::Set { id: 1, delay: 700 }],
            vec![Op::Send { peer, byte: 20 }],
            vec![Op::Send { peer, byte: 30 }, Op::Rand],
            vec![Op::Send { peer, byte: 40 }],
        ]
    };
    let case = Case {
        nodes: 4,
        default_latency_us: 500,
        default_jitter_us: 0,
        scripts: vec![chat(1), chat(2), chat(3), chat(0)],
        overrides: vec![],
        faults: vec![
            Fault {
                partition: true,
                a: 0,
                b: 1,
            },
            Fault {
                partition: false,
                a: 0,
                b: 1,
            },
        ],
        slices: vec![900, 2_000, 8_000],
    };
    assert_shard_counts_agree(&case);
}

/// Deterministic pin: bandwidth serialization and FIFO ordering clamps
/// are sender-side state, so they partition cleanly across shards.
#[test]
fn bandwidth_and_ordering_are_shard_invariant() {
    let case = Case {
        nodes: 3,
        default_latency_us: 1_000,
        default_jitter_us: 0,
        scripts: vec![vec![vec![
            Op::Send { peer: 1, byte: 1 },
            Op::Send { peer: 1, byte: 2 },
            Op::Send { peer: 2, byte: 3 },
            Op::Send { peer: 1, byte: 4 },
        ]]],
        overrides: vec![Override {
            a: 0,
            b: 1,
            latency_us: 800,
            bandwidth: true,
            ordered: true,
        }],
        faults: vec![],
        slices: vec![1_500],
    };
    assert_shard_counts_agree(&case);
}

/// Deterministic pin: a wan-grade jitter bound (5 ms on a 2 ms link)
/// with partitions layered on top — the messiest realistic envelope —
/// is still shard-count invariant, because drops, duplicates and jitter
/// all draw from the sending pair's private stream.
#[test]
fn jittered_links_are_shard_count_invariant() {
    let chat = |peer: u64| {
        vec![
            vec![Op::Send { peer, byte: 1 }, Op::Set { id: 2, delay: 900 }],
            vec![Op::Send { peer, byte: 2 }, Op::Rand],
            vec![Op::Send { peer, byte: 3 }],
        ]
    };
    let case = Case {
        nodes: 5,
        default_latency_us: 2_000,
        default_jitter_us: 5_000,
        scripts: vec![chat(1), chat(2), chat(3), chat(4), chat(0)],
        overrides: vec![Override {
            a: 1,
            b: 3,
            latency_us: 700,
            bandwidth: true,
            ordered: false,
        }],
        faults: vec![
            Fault {
                partition: true,
                a: 0,
                b: 2,
            },
            Fault {
                partition: false,
                a: 0,
                b: 2,
            },
        ],
        slices: vec![1_500, 4_000, 12_000],
    };
    assert_sharded_counts_invariant(&case);
}

/// A zero-latency link makes the lookahead window empty: two or more
/// shards must refuse to run rather than guess, and one shard, which has
/// no window, must keep accepting it (the historical behaviour).
#[test]
fn zero_lookahead_is_rejected_only_when_sharded() {
    let build = |shards: u32| {
        let mut sim = Simulator::new(
            SimConfig::new(9)
                .default_link(LinkConfig::perfect(Duration::ZERO))
                .shards(shards),
        );
        sim.add_process(
            PartId::new(1),
            Box::new(Driver {
                nodes: 1,
                script: VecDeque::new(),
                batch: 0,
                log: Arc::new(Mutex::new(Vec::new())),
            }),
        )
        .unwrap();
        sim.run_to_quiescence(Duration::from_secs(1))
    };
    assert!(build(1).is_ok());
    assert!(matches!(build(4), Err(SimError::ZeroLookahead)));
}
