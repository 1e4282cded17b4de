//! Hot-path benchmark binary, the workspace's one micro-benchmark
//! harness: times the two engines every experiment funnels through — the
//! `svckit-lts` constraint-automaton explorer and the `svckit-netsim`
//! discrete-event core — plus the building blocks above them (PDU codec
//! round-trips, LTS composition and trace refinement, a full conformance
//! check of a solution trace), and emits machine-readable medians so the
//! repo's perf trajectory is trackable across PRs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p svckit-bench --bin hotpath -- \
//!     [--out <output.json>] [--threads <n>] \
//!     [--obs-out <path>] [--obs-format jsonl|chrome] [--quiet|-v]
//! ```
//!
//! Writes `BENCH_hotpath.json` (or `--out`): a flat JSON object mapping
//! bench name to median nanoseconds per iteration, plus two obs keys —
//! `obs_disabled_overhead` (percent cost of an installed-but-idle
//! recorder, measured A/B in-process so it is machine-independent) and
//! `obs_sites_enabled` (1 when built with `--features obs`, else 0).
//! One sidecar, `<out>.stats.json`, holds the exact exploration counts
//! as three blocks nested the way `ANALYZE_report.json` nests them per
//! target: `"por"` (full-vs-reduced, the shared [`PorStats`] schema),
//! `"sym"` (the symmetry quotient, [`SymStats`]) and `"ldd"` (the
//! symbolic backend, [`LddStats`]), plus a `"walk"` block: the 4 × 2
//! floor's orbits and transitions read off its symbolic reached set, and
//! the key prefixes that walk visited and kept. It carries counts only,
//! no timings, so it is byte-identical on every host.
//! `--threads` sets the worker count of the sweep-harness bench entry
//! (default: all cores). Every output path is checked for writability
//! before the first bench runs: an unwritable one prints `error: …` and
//! exits 1.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant as WallInstant;

use svckit::codec::{PduRegistry, PduSchema};
use svckit::floorctl::{
    floor_control_service, floor_event_universe, run_solution, AdmissionGate, RunParams, Solution,
};
use svckit::lts::explorer::{ExploreOptions, Reduction, ServiceExplorer};
use svckit::lts::{Backend, Lts, LtsBuilder, Symmetry};
use svckit::middleware::{Compiled, Engine, ADMISSION_BOUND};
use svckit::model::conformance::{check_trace, CheckOptions};
use svckit::model::{Duration, PartId, Value, ValueType};
use svckit::netsim::{Context, LinkConfig, Process, QueueBackend, SimConfig, Simulator, TimerId};
use svckit::obs::with_recorder;
use svckit_bench::scale::{run_scale_soak, ScaleConfig};
use svckit_sweep::{
    check_flags, chrome_trace, default_threads, ensure_writable, fail, flag_usize, outln,
    output_flags, run_sweep, verbosity, write_file, JsonWriter, LddStats, ObsFormat, PorStats,
    Recorder, SweepSpec, SymStats, VERBOSITY_SWITCHES,
};

use std::hint::black_box;

/// The path of the statistics sidecar next to `out_path`.
fn stats_path(out_path: &str) -> String {
    match out_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.stats.json"),
        None => format!("{out_path}.stats.json"),
    }
}

/// Events per second through one admission gate replaying `events`
/// `passes` times: the median of five timed samples after a warm-up.
/// With `fresh_gate` every pass starts from a new gate over the same
/// compiled tables (as every deployment does), so interning each distinct
/// occurrence is part of the cost; otherwise one gate serves all passes
/// (the steady state).
fn admission_evps(
    events: &[svckit::model::PrimitiveEvent],
    passes: usize,
    fresh_gate: bool,
) -> f64 {
    let compiled = Arc::new(
        Compiled::compile(&floor_control_service(), ADMISSION_BOUND)
            .expect("floor-control constraints compile"),
    );
    let new_gate = || AdmissionGate::with_compiled(Arc::clone(&compiled), Engine::Dfa);
    let mut gate = new_gate();
    let mut run = || {
        let t0 = WallInstant::now();
        for _ in 0..passes {
            if fresh_gate {
                gate = new_gate();
            }
            for event in events {
                black_box(gate.admit(event.sap(), event.primitive(), event.args()));
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(gate.stats().rejected, 0, "replayed trace is conformant");
        (passes * events.len()) as f64 / elapsed
    };
    run(); // warmup
    let mut evps: Vec<f64> = (0..5).map(|_| run()).collect();
    evps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    evps[evps.len() / 2]
}

/// Times `f` for `samples` runs after `warmup` runs; returns median ns.
fn median_ns<F: FnMut()>(warmup: usize, samples: usize, mut f: F) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = WallInstant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// [`median_ns`] for a routine too short to time alone: each of the
/// `samples` runs calls `f` `batch` times; returns median ns per call.
fn median_ns_batched<F: FnMut()>(batch: usize, samples: usize, mut f: F) -> f64 {
    median_ns(1, samples, || {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// B2-style burst: one sender fires `n` copies of a `size`-byte payload at
/// a sink, exercising send → schedule → deliver with payload duplication.
fn netsim_burst(n: u32, size: usize, backend: QueueBackend) {
    struct BurstSender {
        peer: PartId,
        n: u32,
        size: usize,
    }
    impl Process for BurstSender {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.n {
                ctx.send(self.peer, vec![0u8; self.size]);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_>, _: PartId, _: svckit::netsim::Payload) {}
    }
    struct Sink;
    impl Process for Sink {
        fn on_message(&mut self, _: &mut Context<'_>, _: PartId, _: svckit::netsim::Payload) {}
    }
    let link = LinkConfig::reliable_datagram(Duration::from_millis(1), Duration::from_micros(200))
        .with_duplication(0.5);
    let mut sim = Simulator::new(SimConfig::new(7).default_link(link).queue_backend(backend));
    sim.add_process(
        PartId::new(1),
        Box::new(BurstSender {
            peer: PartId::new(2),
            n,
            size,
        }),
    )
    .unwrap();
    sim.add_process(PartId::new(2), Box::new(Sink)).unwrap();
    black_box(sim.run_to_quiescence(Duration::from_secs(60)).unwrap());
}

/// Two chattering nodes ping-ponging 2×1000 messages.
fn netsim_pingpong(backend: QueueBackend) {
    struct Echo {
        peer: PartId,
        remaining: u32,
    }
    impl Process for Echo {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if self.remaining > 0 {
                ctx.send(self.peer, vec![0u8; 16]);
            }
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_>,
            from: PartId,
            payload: svckit::netsim::Payload,
        ) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(from, payload);
            }
        }
    }
    let mut sim = Simulator::new(
        SimConfig::new(1)
            .default_link(LinkConfig::lan())
            .queue_backend(backend),
    );
    sim.add_process(
        PartId::new(1),
        Box::new(Echo {
            peer: PartId::new(2),
            remaining: 1000,
        }),
    )
    .unwrap();
    sim.add_process(
        PartId::new(2),
        Box::new(Echo {
            peer: PartId::new(1),
            remaining: 1000,
        }),
    )
    .unwrap();
    black_box(sim.run_to_quiescence(Duration::from_secs(600)).unwrap());
}

/// Timer-heavy workload, the wheel's home turf: many short timers armed
/// and cancelled. 64 nodes each keep 2048 timers live (131072 pending in
/// the queue at all times), and every firing cancels a neighbour, re-arms
/// it, and re-decides its own deadline several times — the op mix of
/// retransmission backoff recalculation, where every pass but the last
/// leaves a stale generation for the queue to pop and drop. The queue
/// stays ~131k entries (~6 MB) deep, so every reference-heap push/pop
/// sifts `O(log n)` through out-of-cache memory, while the wheel serves
/// the same traffic from its lowest slots in `O(1)`; per-node timer
/// tables stay small enough to be cache-resident, so queue cost — not
/// bookkeeping — dominates the measurement.
fn netsim_timer_churn(backend: QueueBackend) {
    const NODES: u64 = 64;
    const TIMERS_PER: u64 = 2_048;
    const FIRES_PER: u32 = 1_600; // ~102k fires in total
    const SPREAD: u64 = 50_000;
    const REARMS: u64 = 16;
    struct Churner {
        node: u64,
        fires: u32,
    }
    impl Process for Churner {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for i in 0..TIMERS_PER {
                ctx.set_timer(
                    Duration::from_micros(50 + (self.node * 31 + i * 37) % SPREAD),
                    TimerId(i),
                );
            }
        }
        fn on_message(&mut self, _: &mut Context<'_>, _: PartId, _: svckit::netsim::Payload) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerId) {
            self.fires += 1;
            if self.fires >= FIRES_PER {
                return;
            }
            let victim = TimerId((timer.0 + 1) % TIMERS_PER);
            ctx.cancel_timer(victim);
            let spread = u64::from(self.fires % 997) + self.node * 7;
            ctx.set_timer(
                Duration::from_micros(50 + (timer.0 * 53 + spread * 61) % SPREAD),
                victim,
            );
            for pass in 0..REARMS {
                ctx.cancel_timer(timer);
                ctx.set_timer(
                    Duration::from_micros(50 + (timer.0 * 97 + spread * 13 + pass * 17) % SPREAD),
                    timer,
                );
            }
        }
    }
    let mut sim = Simulator::new(SimConfig::new(5).queue_backend(backend));
    for node in 0..NODES {
        sim.add_process(PartId::new(node + 1), Box::new(Churner { node, fires: 0 }))
            .unwrap();
    }
    black_box(sim.run_to_quiescence(Duration::from_secs(60)).unwrap());
}

/// Multi-slice run: repeatedly extends the simulation, stressing the
/// per-slice `SimReport` construction (trace snapshot cost).
fn netsim_sliced_report() {
    struct Ticker {
        peer: PartId,
        remaining: u32,
    }
    impl Process for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.peer, vec![1u8; 8]);
        }
        fn on_message(&mut self, ctx: &mut Context<'_>, from: PartId, _: svckit::netsim::Payload) {
            ctx.record_primitive(
                svckit::model::Sap::new("probe", ctx.id()),
                "tick",
                vec![svckit::model::Value::Id(self.remaining as u64)],
            );
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(from, vec![1u8; 8]);
            }
        }
    }
    let mut sim = Simulator::new(SimConfig::new(3).default_link(LinkConfig::lan()));
    sim.add_process(
        PartId::new(1),
        Box::new(Ticker {
            peer: PartId::new(2),
            remaining: 400,
        }),
    )
    .unwrap();
    sim.add_process(
        PartId::new(2),
        Box::new(Ticker {
            peer: PartId::new(1),
            remaining: 400,
        }),
    )
    .unwrap();
    for _ in 0..50 {
        black_box(sim.run_to_quiescence(Duration::from_millis(20)).unwrap());
    }
}

/// A `n`-state cycle whose transitions cycle through four labels
/// `<label>0` … `<label>3`.
fn lts_cycle(n: usize, label: &str) -> Lts<String> {
    let mut b = LtsBuilder::new();
    let states: Vec<_> = (0..n).map(|i| b.add_state(format!("s{i}"))).collect();
    for i in 0..n {
        b.add_transition(states[i], format!("{label}{}", i % 4), states[(i + 1) % n]);
    }
    b.build(states[0])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(
        &args,
        &["out", "obs-out", "obs-format", "threads"],
        VERBOSITY_SWITCHES,
    )
    .unwrap_or_else(|e| fail(&e));
    let (out_path, obs) = output_flags(&args, "BENCH_hotpath.json").unwrap_or_else(|e| fail(&e));
    let stats_path = stats_path(&out_path);
    ensure_writable(&stats_path).unwrap_or_else(|e| fail(&e));
    let threads = flag_usize(&args, "threads", default_threads()).unwrap_or_else(|e| fail(&e));
    let verbose = verbosity(&args);
    outln!("hotpath: medians to {out_path}, exact counts to {stats_path}");
    let mut results: Vec<(&str, f64)> = Vec::new();
    let mut record = |name: &'static str, ns: f64| {
        outln!("{name:<36} median {}", fmt_ns(ns));
        results.push((name, ns));
    };

    // --- Explorer hot paths: floor control, 4 SAPs × 2 resources. -------
    // Pinned to the interpreter so the pre-0.8.0 keys keep their meaning;
    // `explorer/dfa_allowed` below runs the same walk on the compiled
    // engine, and perfgate holds the ratio between the two. The
    // interpreter's memo lives as long as the explorer, so every timed
    // call after the warm-up runs on warm tables.
    let service = floor_control_service();
    let universe = floor_event_universe(4, 2);
    let explorer = ServiceExplorer::with_engine(&service, universe, 1, Engine::Interp);

    record(
        "explorer/to_lts_4x2",
        median_ns(1, 7, || {
            black_box(explorer.to_lts(10_000));
        }),
    );

    let service_lts = explorer.to_lts(10_000);
    outln!(
        "    (service LTS: {} states, {} transitions)",
        service_lts.state_count(),
        service_lts.transition_count()
    );
    record(
        "explorer/verify_lts_4x2",
        median_ns(1, 7, || {
            black_box(explorer.verify_lts(&service_lts).is_ok());
        }),
    );

    record(
        "explorer/allowed_2k_steps",
        median_ns(1, 7, || {
            // Deterministic walk: at each state take allowed()[k] round-robin.
            let mut state = explorer.initial_state();
            for k in 0..2_000usize {
                let allowed = explorer.allowed(&state);
                if allowed.is_empty() {
                    break;
                }
                let event = allowed[k % allowed.len()].clone();
                state = explorer.step(&state, &event).expect("allowed event steps");
            }
            black_box(state);
        }),
    );

    // The same 2000-step round-robin walk on the compiled DFA tables:
    // allowed() and step() are array lookups instead of memoized
    // interpreter calls.
    let dfa_explorer =
        ServiceExplorer::with_engine(&service, floor_event_universe(4, 2), 1, Engine::Dfa);
    record(
        "explorer/dfa_allowed",
        median_ns(1, 7, || {
            let mut state = dfa_explorer.initial_state();
            for k in 0..2_000usize {
                let allowed = dfa_explorer.allowed(&state);
                if allowed.is_empty() {
                    break;
                }
                let event = allowed[k % allowed.len()].clone();
                state = dfa_explorer
                    .step(&state, &event)
                    .expect("allowed event steps");
            }
            black_box(state);
        }),
    );

    // Exhaustive exploration with ample-set partial-order reduction, the
    // analyzer's hot path: floor control, 3 SAPs × 2 resources, window 2.
    let por_universe = floor_event_universe(3, 2);
    let por_explorer = ServiceExplorer::new(&service, por_universe, 2);
    let por_options = ExploreOptions {
        reduction: Reduction::AmpleSets,
        progress: service.progress_primitives(),
        ..ExploreOptions::default()
    };
    let por_report = por_explorer.explore(&por_options);
    let full_report = por_explorer.explore(&ExploreOptions {
        reduction: Reduction::Full,
        ..por_options.clone()
    });
    outln!(
        "    (POR: {} states / {} transitions vs full {} / {})",
        por_report.states,
        por_report.transitions,
        full_report.states,
        full_report.transitions
    );
    let por_stats = PorStats {
        full_states: full_report.states as u64,
        full_transitions: full_report.transitions as u64,
        reduced_states: por_report.states as u64,
        reduced_transitions: por_report.transitions as u64,
        ample_hist: por_report.ample_hist.clone(),
    };
    record(
        "por_reduction",
        median_ns(1, 7, || {
            black_box(por_explorer.explore(&por_options).states);
        }),
    );

    // Symmetry quotient on top of ample sets: floor control, 3 SAPs × 4
    // resources, window 2 — the issue's reduction floor. Product states
    // are canonicalized under the user-permutation group before hashing,
    // so the quotient explores one representative per orbit.
    let sym_explorer = ServiceExplorer::new(&service, floor_event_universe(3, 4), 2);
    let sym_options = ExploreOptions {
        reduction: Reduction::AmpleSets,
        progress: service.progress_primitives(),
        symmetry: Symmetry::On,
        // Past the default bound so the unreduced side finishes (~101 k
        // states) and the perfgated reduction ratio is exact.
        max_states: 200_000,
        ..ExploreOptions::default()
    };
    let sym_report = sym_explorer.explore(&sym_options);
    let nosym_report = sym_explorer.explore(&ExploreOptions {
        symmetry: Symmetry::Off,
        ..sym_options.clone()
    });
    outln!(
        "    (symmetry: {} states / {} transitions vs unreduced {} / {}; \
         {} orbit group(s), {} canon hit(s), {} state(s) saved)",
        sym_report.states,
        sym_report.transitions,
        nosym_report.states,
        nosym_report.transitions,
        sym_report.orbit_count,
        sym_report.canon_hits,
        sym_report.sym_states_saved,
    );
    let sym_stats = SymStats {
        full_states: nosym_report.states as u64,
        full_transitions: nosym_report.transitions as u64,
        full_truncated: nosym_report.truncated,
        quotient_states: sym_report.states as u64,
        quotient_transitions: sym_report.transitions as u64,
        orbit_count: sym_report.orbit_count as u64,
        canon_hits: sym_report.canon_hits,
        states_saved: sym_report.sym_states_saved,
    };
    record(
        "explorer/sym_reduction",
        median_ns(1, 7, || {
            black_box(sym_explorer.explore(&sym_options).states);
        }),
    );

    // Symbolic LDD reachability: the full (unreduced, unquotiented) floor
    // space at 6 SAPs × 2 resources — ~26 M concrete states, far past any
    // explicit bound — reached as a decision-diagram fixpoint. The timing
    // key tracks the fixpoint itself; `ldd_nodes_peak` is a data key
    // (a count, exact and machine-independent) that perfgate holds as a
    // bounded-nodes floor: the whole point of the backend is that node
    // counts stay flat while concrete states explode.
    let ldd_explorer = ServiceExplorer::new(&service, floor_event_universe(6, 2), 2);
    let ldd_options = ExploreOptions {
        backend: Backend::Symbolic,
        reduction: Reduction::Full,
        symmetry: Symmetry::Off,
        progress: service.progress_primitives(),
        ..ExploreOptions::default()
    };
    let ldd_report = ldd_explorer.explore(&ldd_options);
    assert!(
        ldd_report.peak_nodes > 0,
        "the symbolic fixpoint must complete within the default node budget"
    );
    outln!(
        "    (ldd: {} states / {} transitions in {} node(s), peak {}, {} cache hit(s))",
        ldd_report.states,
        ldd_report.transitions,
        ldd_report.ldd_nodes,
        ldd_report.peak_nodes,
        ldd_report.cache_hits,
    );
    let ldd_stats = LddStats {
        states: ldd_report.states as u64,
        transitions: ldd_report.transitions as u64,
        ldd_nodes: ldd_report.ldd_nodes as u64,
        peak_nodes: ldd_report.peak_nodes as u64,
        cache_hits: ldd_report.cache_hits,
    };
    record(
        "explorer/ldd_reach",
        median_ns(1, 5, || {
            black_box(ldd_explorer.explore(&ldd_options).states);
        }),
    );

    // The walk over a symbolic reached set: the 4 × 2 floor's orbits and
    // their enabled events, read off the count-only fixpoint the way the
    // analyzer reads its unreduced counterpart. The sidecar pins the
    // walk's exact work next to its counts.
    let walk_explorer = ServiceExplorer::new(&service, floor_event_universe(4, 2), 2);
    let walk = walk_explorer
        .symbolic_counts(&ExploreOptions {
            max_states: 200_000,
            reduction: Reduction::Full,
            symmetry: Symmetry::On,
            progress: service.progress_primitives(),
            ..ExploreOptions::default()
        })
        .expect("the 4 x 2 fixpoint fits the default node budget")
        .full
        .expect("the 4 x 2 orbits fit the bound");
    outln!(
        "    (walk: {} orbits / {} transitions, {} prefixes visited, {} kept)",
        walk.states,
        walk.transitions,
        walk.prefixes_visited,
        walk.prefixes_kept,
    );

    // --- Netsim hot paths. ----------------------------------------------
    // pingpong and timer_churn also run on the reference heap backend:
    // the `_heap` keys document the wheel's win on the same workload and
    // let perfgate hold the ratio, not just the absolute medians.
    record(
        "netsim/burst_2000x256B",
        median_ns(1, 9, || netsim_burst(2_000, 256, QueueBackend::Wheel)),
    );
    record(
        "netsim/pingpong_2000",
        median_ns(1, 9, || netsim_pingpong(QueueBackend::Wheel)),
    );
    record(
        "netsim/pingpong_2000_heap",
        median_ns(1, 9, || netsim_pingpong(QueueBackend::Heap)),
    );
    record(
        "netsim/timer_churn",
        median_ns(1, 9, || netsim_timer_churn(QueueBackend::Wheel)),
    );
    record(
        "netsim/timer_churn_heap",
        median_ns(1, 9, || netsim_timer_churn(QueueBackend::Heap)),
    );
    record(
        "netsim/sliced_report_50x",
        median_ns(1, 9, netsim_sliced_report),
    );

    // --- Building blocks: codec, LTS algebra, conformance check. --------
    // Batch sizes keep each sample at roughly 0.1–1 ms, far above the
    // clock's resolution.
    // PDU encode + decode round-trips: a two-id `request` and a `pass`
    // carrying a 32-id set.
    let mut registry = PduRegistry::new();
    for schema in [
        PduSchema::new(1, "request")
            .field("subid", ValueType::Id)
            .field("resid", ValueType::Id),
        PduSchema::new(2, "pass").field("avail", ValueType::Set(Box::new(ValueType::Id))),
    ] {
        registry
            .register(schema)
            .expect("distinct PDU ids and names");
    }
    let request_args = [Value::Id(42), Value::Id(7)];
    let pass_args = [Value::id_set(1..=32)];
    for (name, pdu, args, batch) in [
        (
            "codec/request_roundtrip",
            "request",
            &request_args[..],
            2_000,
        ),
        ("codec/pass32_roundtrip", "pass", &pass_args[..], 200),
    ] {
        record(
            name,
            median_ns_batched(batch, 21, || {
                let bytes = registry
                    .encode(pdu, black_box(args))
                    .expect("the arguments match the schema");
                black_box(registry.decode(&bytes).expect("encoded bytes decode"));
            }),
        );
    }

    // Interleaving composition of two 20-state cycles (400 product
    // states), and trace refinement of a 40-state cycle by its twin.
    let (left, right) = (lts_cycle(20, "a"), lts_cycle(20, "b"));
    let no_sync = BTreeSet::new();
    record(
        "lts/compose_interleave_20x20",
        median_ns_batched(4, 21, || {
            black_box(left.compose(&right, &no_sync));
        }),
    );
    let (spec, imp) = (lts_cycle(40, "a"), lts_cycle(40, "a"));
    record(
        "lts/trace_refines_cycle40",
        median_ns_batched(16, 21, || {
            black_box(imp.trace_refines(&spec).is_ok());
        }),
    );

    // Every constraint of the floor-control service checked over a
    // proto-callback trace (8 × 2 × 5).
    let conformance_run = run_solution(
        Solution::ProtoCallback,
        &RunParams::default().subscribers(8).resources(2).rounds(5),
    );
    assert!(conformance_run.conformant);
    record(
        "conformance/check_240_event_trace",
        median_ns_batched(16, 21, || {
            black_box(check_trace(
                &service,
                black_box(&conformance_run.trace),
                &CheckOptions::default(),
            ));
        }),
    );

    // --- End-to-end experiment proxy (exp_fig4 middleware path). --------
    let params = RunParams::default().subscribers(8).resources(2).rounds(4);
    record(
        "solution/mw_callback_8x2x4",
        median_ns(1, 7, || {
            black_box(run_solution(Solution::MwCallback, &params));
        }),
    );
    record(
        "solution/proto_callback_8x2x4",
        median_ns(1, 7, || {
            black_box(run_solution(Solution::ProtoCallback, &params));
        }),
    );

    // --- Sweep harness (the full E2-style grid path). --------------------
    let grid = SweepSpec::new("hotpath")
        .solutions(Solution::PAPER)
        .variation(
            "base",
            RunParams::default().subscribers(4).resources(2).rounds(2),
        )
        .seeds([1, 2, 3]);
    record(
        "sweep/paper6_3seeds",
        median_ns(1, 5, || {
            black_box(run_sweep(&grid, threads).results.len());
        }),
    );

    // --- Runtime admission path (middleware dispatch validation). --------
    // `mw_admission_evps` records **events per second** through a single
    // admission gate replaying a real mw-callback trace — the steady-state
    // per-dispatch cost of validating primitive occurrences against the
    // compiled service. The workload ran to quiescence, so the gate ends
    // each replay in its initial (quiescent) state and the passes chain
    // conformantly. `mw_admission_evps_96x8` replays the 96 × 8 × 50
    // mw-callback trace (the `floor_long` shape) through a fresh gate per
    // pass, as every deployment builds one, so interning its 2 304
    // distinct occurrences is part of the cost. Higher is better, so
    // perfgate holds both as floors (FLOOR_KEYS) like the soak throughput
    // key.
    {
        let replay = run_solution(Solution::MwCallback, &params);
        // Long enough (~10^5 admits per sample) that scheduler noise on
        // the 1-vCPU reference box stays well inside the perfgate band.
        let median = admission_evps(replay.trace.events(), 1000, false);
        outln!("{:<36} median {median:.0} events/sec", "mw_admission_evps");
        results.push(("mw_admission_evps", median));

        let large = RunParams::default().subscribers(96).resources(8).rounds(50);
        let replay = run_solution(Solution::MwCallback, &large);
        // 14 400 occurrences a pass.
        let median = admission_evps(replay.trace.events(), 8, true);
        outln!(
            "{:<36} median {median:.0} events/sec",
            "mw_admission_evps_96x8"
        );
        results.push(("mw_admission_evps_96x8", median));
    }

    // --- Scale soak: the sharded-core target workload. -------------------
    // `netsim/soak_100k_evps` records **events per second** — higher is
    // better, so perfgate holds a floor on it instead of the usual
    // lower-is-better ratio band. Measured on the sequential engine
    // (shards = 1); shard-count identity is proved separately by CI's
    // `soak --clients … --shards 4` cmp, and any parallel speedup is a
    // bonus on top of this floor, never a substitute for it.
    {
        let cfg = ScaleConfig::default(); // 100k clients, 4 servers, 2 rounds
        run_scale_soak(&cfg); // warmup
        let mut evps: Vec<f64> = (0..3)
            .map(|_| {
                let out = run_scale_soak(&cfg);
                assert!(out.quiescent, "scale soak must reach quiescence");
                out.events_per_sec
            })
            .collect();
        evps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = evps[evps.len() / 2];
        outln!(
            "{:<36} median {median:.0} events/sec",
            "netsim/soak_100k_evps"
        );
        results.push(("netsim/soak_100k_evps", median));
    }

    // --- Obs overhead: same workload with and without a recorder --------
    // installed, interleaved A/B in one process. The *percent* difference
    // is machine-independent, so perfgate can hold it to an absolute bound
    // (≤3% when the instrumentation sites are compiled out) instead of
    // ratio-comparing nanoseconds against a baseline from other hardware.
    // The workload is the netsim hot loop *plus* one full middleware
    // request/grant cycle, so the bound also covers the causal-tracing
    // machinery: context minting, side-band propagation through sends,
    // timers and retransmissions, and every trace.* span site.
    let obs_workload = || {
        netsim_pingpong(QueueBackend::Wheel);
        let params = RunParams::default()
            .subscribers(4)
            .resources(2)
            .rounds(2)
            .seed(9);
        black_box(run_solution(Solution::MwCallback, &params));
    };
    for _ in 0..2 {
        obs_workload();
    }
    let mut control: Vec<f64> = Vec::new();
    let mut wrapped: Vec<f64> = Vec::new();
    for _ in 0..15 {
        let t0 = WallInstant::now();
        obs_workload();
        control.push(t0.elapsed().as_nanos() as f64);
        let t0 = WallInstant::now();
        black_box(with_recorder(Recorder::new(), obs_workload));
        wrapped.push(t0.elapsed().as_nanos() as f64);
    }
    // Min-of-N, not median: both sides run identical code when sites are
    // compiled out, so the fastest sample approximates the shared noise
    // floor and the comparison stays well inside the 3% bound; medians
    // wander several points run-to-run from scheduler jitter alone.
    let best = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
    let (control_best, wrapped_best) = (best(control), best(wrapped));
    let overhead_pct = (wrapped_best - control_best) / control_best * 100.0;
    let sites = f64::from(u8::from(svckit::obs::sites_enabled()));
    outln!(
        "{:<36} {overhead_pct:+.2}% (recorder installed vs not; sites {})",
        "obs_disabled_overhead",
        if sites > 0.0 {
            "enabled"
        } else {
            "compiled out"
        }
    );
    results.push(("obs_disabled_overhead", overhead_pct));
    results.push(("obs_sites_enabled", sites));

    // The symmetry state counts as data keys (counts, not nanoseconds):
    // perfgate holds full/quotient as a cross-key reduction floor, which —
    // unlike the timing keys — is exact and machine-independent.
    outln!(
        "{:<36} {} states",
        "explorer/sym_states_full",
        nosym_report.states
    );
    results.push(("explorer/sym_states_full", nosym_report.states as f64));
    outln!(
        "{:<36} {} states",
        "explorer/sym_states_quotient",
        sym_report.states
    );
    results.push(("explorer/sym_states_quotient", sym_report.states as f64));

    // The symbolic node high-water mark as a data key (a count, not a
    // latency): perfgate holds it as an absolute bounded-nodes floor for
    // the 6×2 fixpoint above.
    outln!("{:<36} {} nodes", "ldd_nodes_peak", ldd_report.peak_nodes);
    results.push(("ldd_nodes_peak", ldd_report.peak_nodes as f64));

    // --- Machine-readable output. ---------------------------------------
    let mut json = JsonWriter::pretty();
    json.begin_object();
    for (name, ns) in &results {
        json.key(name).float(*ns, 1);
    }
    json.end_object();
    write_file(&out_path, json.finish()).unwrap_or_else(|e| fail(&e));
    outln!("\nwrote {out_path}");

    // The statistics sidecar: the schemas `svckit-analyze` shares, nested
    // as its report nests them per target.
    let mut stats_json = JsonWriter::pretty();
    stats_json.begin_object();
    stats_json.key("por");
    por_stats.write(&mut stats_json);
    stats_json.key("sym");
    sym_stats.write(&mut stats_json);
    stats_json.key("ldd");
    ldd_stats.write(&mut stats_json);
    stats_json.key("walk");
    stats_json.begin_object();
    stats_json.key("orbits").uint(walk.states as u64);
    stats_json.key("transitions").uint(walk.transitions as u64);
    stats_json
        .key("prefixes_visited")
        .uint(walk.prefixes_visited);
    stats_json.key("prefixes_kept").uint(walk.prefixes_kept);
    stats_json.end_object();
    stats_json.end_object();
    write_file(&stats_path, stats_json.finish()).unwrap_or_else(|e| fail(&e));
    outln!("wrote {stats_path}");

    // Optional obs capture: one instrumented pingpong + POR exploration.
    if let Some((obs_path, format)) = obs {
        let (_, recorder) = with_recorder(Recorder::new(), || {
            netsim_pingpong(QueueBackend::Wheel);
            black_box(por_explorer.explore(&por_options).states);
        });
        let text = match format {
            ObsFormat::Jsonl => recorder.jsonl("hotpath"),
            ObsFormat::Chrome => chrome_trace([(0u64, "hotpath", &recorder)]),
        };
        write_file(&obs_path, text).unwrap_or_else(|e| fail(&e));
        verbose.info(&format!("wrote obs {obs_path} ({format:?})"));
        if svckit::obs::sites_enabled() {
            verbose.sink_summary("hotpath", &recorder);
        }
    }
}
