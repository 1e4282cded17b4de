//! Determinism goldens: a fixed seed must reproduce a byte-identical
//! `SimReport` (trace, metrics, end time) across runs, for the raw
//! simulator and for one solution of each paradigm (middleware and
//! protocol). A hardcoded digest per scenario guards against silent
//! behavioural drift in the event core: if one of these assertions fails
//! after an intentional semantic change to the simulator, re-capture the
//! digest and say so in the changelog.

use svckit::floorctl::{run_solution, RunParams, Solution};
use svckit::lts::{Backend, Engine};
use svckit::model::{Duration, PartId, Sap, Value};
use svckit::netsim::{
    Context, LinkConfig, Payload, Process, QueueBackend, SimConfig, Simulator, TimerId,
};
use svckit_analyze::{all_targets, AnalysisReport, ServicePassOptions};

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A chatter that exercises loss, duplication, jitter, timers and trace
/// recording in one run.
struct Chatter {
    peer: PartId,
    remaining: u32,
}

impl Process for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.remaining > 0 {
            ctx.set_timer(Duration::from_millis(1), TimerId(1));
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_>, from: PartId, payload: Payload) {
        ctx.record_primitive(
            Sap::new("probe", ctx.id()),
            "recv",
            vec![Value::Id(payload.len() as u64), Value::Id(from.raw())],
        );
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId) {
        ctx.send(self.peer, vec![0u8; 1 + (self.remaining as usize % 7)]);
        self.remaining -= 1;
        if self.remaining > 0 {
            ctx.set_timer(Duration::from_millis(1), TimerId(1));
        }
    }
}

fn netsim_digest(seed: u64, backend: QueueBackend) -> u64 {
    let link = LinkConfig::lossy(Duration::from_millis(2), Duration::from_millis(1), 0.2)
        .with_duplication(0.1);
    let mut sim = Simulator::new(
        SimConfig::new(seed)
            .default_link(link)
            .queue_backend(backend),
    );
    sim.add_process(
        PartId::new(1),
        Box::new(Chatter {
            peer: PartId::new(2),
            remaining: 60,
        }),
    )
    .unwrap();
    sim.add_process(
        PartId::new(2),
        Box::new(Chatter {
            peer: PartId::new(1),
            remaining: 30,
        }),
    )
    .unwrap();
    let report = sim.run_to_quiescence(Duration::from_secs(60)).unwrap();
    assert!(report.is_quiescent());
    fnv1a(format!("{report:?}").as_bytes())
}

/// Solutions run on the default timer wheel only: the queue backend is a
/// netsim-level choice, and the heap stays pinned to the wheel by the
/// netsim goldens below and by `svckit-netsim`'s `wheel_oracle`.
fn solution_digest(solution: Solution, seed: u64) -> u64 {
    let params = RunParams::default()
        .subscribers(4)
        .resources(2)
        .rounds(3)
        .seed(seed);
    let outcome = run_solution(solution, &params);
    assert!(outcome.completed, "{solution:?} workload must complete");
    assert!(outcome.conformant, "{solution:?} trace must conform");
    fnv1a(format!("{outcome:?}").as_bytes())
}

/// Computes a netsim scenario digest under both event-queue backends,
/// asserts they agree, and returns the shared value — each netsim digest
/// check doubles as a backend-equivalence check.
fn digest_on_both_backends(digest: impl Fn(QueueBackend) -> u64) -> u64 {
    let wheel = digest(QueueBackend::Wheel);
    let heap = digest(QueueBackend::Heap);
    assert_eq!(
        wheel, heap,
        "wheel and heap backends must be observationally identical"
    );
    wheel
}

#[test]
fn netsim_report_is_bit_identical_per_seed() {
    let digest_42 = digest_on_both_backends(|b| netsim_digest(42, b));
    assert_eq!(digest_42, digest_on_both_backends(|b| netsim_digest(42, b)));
    assert_ne!(digest_42, digest_on_both_backends(|b| netsim_digest(43, b)));
}

#[test]
fn netsim_report_matches_golden_digest() {
    // Captured from the zero-copy event core, on the heap queue; the
    // timer wheel must reproduce it bit-for-bit. Must only change with a
    // deliberate, documented change to simulation semantics.
    assert_eq!(
        digest_on_both_backends(|b| netsim_digest(42, b)),
        GOLDEN_NETSIM_SEED42
    );
}

#[test]
fn middleware_solution_is_bit_identical_per_seed() {
    assert_eq!(
        solution_digest(Solution::MwCallback, 7),
        solution_digest(Solution::MwCallback, 7)
    );
}

#[test]
fn middleware_solution_matches_golden_digest() {
    assert_eq!(
        solution_digest(Solution::MwCallback, 7),
        GOLDEN_MW_CALLBACK_SEED7
    );
}

#[test]
fn protocol_solution_is_bit_identical_per_seed() {
    assert_eq!(
        solution_digest(Solution::ProtoCallback, 7),
        solution_digest(Solution::ProtoCallback, 7)
    );
}

#[test]
fn protocol_solution_matches_golden_digest() {
    assert_eq!(
        solution_digest(Solution::ProtoCallback, 7),
        GOLDEN_PROTO_CALLBACK_SEED7
    );
}

/// The Chatter scenario on a deterministic (perfect) link, at a given
/// shard count. Link randomness never changes an outcome on such links,
/// so every shard count must be byte-identical to one shard — see
/// `svckit-netsim`'s `shard` module docs for the envelope argument.
fn sharded_netsim_digest(seed: u64, shards: u32) -> u64 {
    let mut sim = Simulator::new(
        SimConfig::new(seed)
            .default_link(LinkConfig::perfect(Duration::from_millis(2)))
            .shards(shards),
    );
    sim.add_process(
        PartId::new(1),
        Box::new(Chatter {
            peer: PartId::new(2),
            remaining: 60,
        }),
    )
    .unwrap();
    sim.add_process(
        PartId::new(2),
        Box::new(Chatter {
            peer: PartId::new(1),
            remaining: 30,
        }),
    )
    .unwrap();
    let report = sim.run_to_quiescence(Duration::from_secs(60)).unwrap();
    assert!(report.is_quiescent());
    fnv1a(format!("{report:?}").as_bytes())
}

fn sharded_solution_digest(solution: Solution, seed: u64, shards: u32) -> u64 {
    let params = RunParams::default()
        .subscribers(6)
        .resources(2)
        .rounds(3)
        .seed(seed)
        .link(LinkConfig::perfect(Duration::from_micros(500)))
        .shards(shards);
    let outcome = run_solution(solution, &params);
    assert!(outcome.completed, "{solution:?} workload must complete");
    assert!(outcome.conformant, "{solution:?} trace must conform");
    fnv1a(format!("{outcome:?}").as_bytes())
}

#[test]
fn sharded_netsim_is_byte_identical_to_single() {
    let single = sharded_netsim_digest(42, 1);
    assert_eq!(single, sharded_netsim_digest(42, 2));
    assert_eq!(single, sharded_netsim_digest(42, 4));
    assert_eq!(single, GOLDEN_SHARDED_NETSIM_SEED42);
}

#[test]
fn sharded_solutions_are_byte_identical_to_single() {
    for solution in [Solution::MwCallback, Solution::ProtoCallback] {
        let single = sharded_solution_digest(solution, 7, 1);
        assert_eq!(
            single,
            sharded_solution_digest(solution, 7, 2),
            "{solution:?}"
        );
        assert_eq!(
            single,
            sharded_solution_digest(solution, 7, 4),
            "{solution:?}"
        );
    }
    assert_eq!(
        sharded_solution_digest(Solution::MwCallback, 7, 4),
        GOLDEN_SHARDED_MW_CALLBACK_SEED7
    );
}

/// One analyzer run over every repository target: the full report and the
/// diagnostics-only report, as the analyzer CLI would write them.
fn analyzer_reports(backend: Backend, engine: Engine) -> (String, String) {
    let options = ServicePassOptions {
        backend,
        engine,
        ..ServicePassOptions::default()
    };
    let report = AnalysisReport::run(&all_targets(), &options);
    (report.to_json(), report.to_diag_json())
}

/// Backend-matrix golden: across backend {explicit, symbolic} × engine
/// {dfa, interp}, the diagnostics JSON is byte-identical (one digest for
/// all four cells), and the full `ANALYZE_report.json` is engine-invariant
/// under the explicit backend. Under the symbolic backend the full report
/// carries per-engine `ldd` blocks — the DFA engine's diagram statistics,
/// the interpreter's explicit-fallback counts — so each engine pins its
/// own digest.
#[test]
fn analyzer_reports_match_golden_digests_across_backends() {
    let mut diag_digests = Vec::new();
    let mut full_digests = Vec::new();
    for backend in [Backend::Explicit, Backend::Symbolic] {
        for engine in [Engine::Dfa, Engine::Interp] {
            let (full, diag) = analyzer_reports(backend, engine);
            diag_digests.push(fnv1a(diag.as_bytes()));
            full_digests.push(fnv1a(full.as_bytes()));
        }
    }
    assert!(
        diag_digests.iter().all(|&d| d == diag_digests[0]),
        "diagnostics must be byte-identical across the backend × engine matrix"
    );
    assert_eq!(diag_digests[0], GOLDEN_ANALYZE_DIAG);
    assert_eq!(
        full_digests[0], full_digests[1],
        "the explicit full report must be engine-invariant"
    );
    assert_eq!(full_digests[0], GOLDEN_ANALYZE_FULL_EXPLICIT);
    assert_eq!(full_digests[2], GOLDEN_ANALYZE_FULL_SYMBOLIC_DFA);
    assert_eq!(full_digests[3], GOLDEN_ANALYZE_FULL_SYMBOLIC_INTERP);
}

const GOLDEN_NETSIM_SEED42: u64 = 13_274_634_582_242_808_967;
// Sharded-engine goldens: captured on the sequential engine
// (`shards = 1`) over a deterministic link; every shard count must
// reproduce them. See CHANGELOG 0.7.0.
const GOLDEN_SHARDED_NETSIM_SEED42: u64 = 6_719_042_289_313_812_165;
const GOLDEN_SHARDED_MW_CALLBACK_SEED7: u64 = 2_345_727_650_575_110_908;
// Solution digests re-captured when `FloorMetrics` gained the
// `outstanding_at_end` field (a schema addition: the digest covers the
// outcome's Debug form; the netsim digest above was unaffected, so
// simulation semantics did not move). See CHANGELOG 0.5.0.
const GOLDEN_MW_CALLBACK_SEED7: u64 = 2_203_843_261_686_461_361;
const GOLDEN_PROTO_CALLBACK_SEED7: u64 = 16_702_283_514_672_870_395;
// Analyzer backend-matrix goldens: captured with the 0.11.0 symbolic LDD
// backend (full report gained the `backend` key, symbolic runs a
// per-target `ldd` block). The diag digest is shared by all four
// backend × engine cells; the full-report digests are per cell. See
// CHANGELOG 0.11.0. The two symbolic full-report digests were
// re-captured in 0.19.0, when the `ldd` block began to come from a
// count-only search: only its `peak_nodes` and `cache_hits` changed.
// The interpreter cell was re-captured in 0.20.0, when the symbolic
// backend began to run on the DFA slot layout only: an interpreter
// explorer now answers a symbolic request with the explicit search, so
// each service target's `ldd` block holds the configured search's
// `states`/`transitions` and zero `ldd_nodes`/`peak_nodes`/`cache_hits`.
// Nothing else in the report moved (the diag digest is unchanged). The
// DFA symbolic digest was re-captured in 0.22.0, when the count-only LDD
// search began to chain event images instead of building BFS plies: only
// the `ldd` blocks' `peak_nodes` and `cache_hits` moved, and the diag
// digest did not.
const GOLDEN_ANALYZE_DIAG: u64 = 2_698_182_463_670_502_418;
const GOLDEN_ANALYZE_FULL_EXPLICIT: u64 = 5_519_753_541_190_147_950;
const GOLDEN_ANALYZE_FULL_SYMBOLIC_DFA: u64 = 7_792_356_294_717_392_782;
const GOLDEN_ANALYZE_FULL_SYMBOLIC_INTERP: u64 = 6_871_264_713_137_135_742;
