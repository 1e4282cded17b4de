//! The traced per-layer run.
//!
//! Every workload's inputs run twice in one process: once untraced
//! through the public entry points, once with the benchmark driving the
//! same work itself through each layer's public functions, with a span
//! around every call. The two must produce byte-identical outputs (sweep
//! JSON, run traces and counters, soak JSON, analyzer JSON). Each
//! per-layer metric comes from the workload the prediction table ties
//! that layer to, so every traced run prints the full set;
//! `obs.trace_overhead_pct` compares the selected workload's two runs.
//!
//! Floor runs are driven exactly as `run_solution_with` drives them:
//! deploy, apply faults with `partition`/`heal`, run 250 ms slices, scan
//! the trace for `free`, then `check_trace` and `FloorMetrics`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use svckit::codec::PduRegistry;
use svckit::dfa::{AdmissionGate, Engine};
use svckit::floorctl::{
    floor_control_service, mw, proto, run_solution, FaultAction, FloorMetrics, RunOptions,
    RunOutcome, RunParams, Solution,
};
use svckit::lts::explorer::{ExploreOptions, Reduction, ServiceExplorer};
use svckit::lts::{Backend, Symmetry};
use svckit::middleware::{MwCounters, MwSystem};
use svckit::model::conformance::{check_trace, CheckOptions};
use svckit::model::{Duration, Value, ValueType};
use svckit::netsim::SimReport;
use svckit::protocol::{ProtoCounters, ReliabilityConfig, Stack};
use svckit_analyze::{
    analyze_protocol, analyze_service, progress_primitives, verify_implementation,
    AnalysisReport, ServiceAnalysis, TargetReport,
};
use svckit_bench::scale::run_scale_soak;
use svckit_sweep::{aggregate, run_sweep, CellResult, CellTarget, Recorder, SweepReport, SweepSpec};

use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{
    compile_floor_service, floor_failed, floor_params, outcome_bytes, soak_config, sweep_failures,
    sweep_specs, verify_options, verify_targets,
};
use crate::Metric;

/// What the traced run reports.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub notes: Vec<String>,
    pub params: Vec<(&'static str, String)>,
}

/// Layer counters summed over driven floor runs.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    mw: MwCounters,
    proto: ProtoCounters,
    admission_checked: u64,
    admission_rejected: u64,
    msgs_dropped: u64,
    msgs_duplicated: u64,
    slices: u64,
    trace_events: u64,
    grants: u64,
    mw_grants: u64,
}

impl Counts {
    fn absorb(&mut self, o: &Counts) {
        self.mw.absorb(&o.mw);
        self.proto.absorb(&o.proto);
        self.admission_checked += o.admission_checked;
        self.admission_rejected += o.admission_rejected;
        self.msgs_dropped += o.msgs_dropped;
        self.msgs_duplicated += o.msgs_duplicated;
        self.slices += o.slices;
        self.trace_events += o.trace_events;
        self.grants += o.grants;
        self.mw_grants += o.mw_grants;
    }
}

enum Deployment {
    Middleware(MwSystem),
    Protocol(Stack),
}

impl Deployment {
    fn new(solution: Solution, params: &RunParams, reliability: Option<ReliabilityConfig>) -> Self {
        match solution {
            Solution::MwCallback => Deployment::Middleware(mw::callback::deploy(params)),
            Solution::MwPolling => Deployment::Middleware(mw::polling::deploy(params)),
            Solution::MwToken => Deployment::Middleware(mw::token::deploy(params)),
            Solution::MwQueue => Deployment::Middleware(mw::queue::deploy(params)),
            Solution::ProtoCallback => Deployment::Protocol(
                proto::callback::deploy_with_reliability(params, reliability),
            ),
            Solution::ProtoPolling => Deployment::Protocol(proto::polling::deploy(params)),
            Solution::ProtoToken => Deployment::Protocol(proto::token::deploy(params)),
        }
    }

    fn run_slice(&mut self, slice: Duration) -> SimReport {
        match self {
            Deployment::Middleware(s) => s.run_to_quiescence(slice).expect("deployment has nodes"),
            Deployment::Protocol(s) => s.run_to_quiescence(slice).expect("deployment has nodes"),
        }
    }

    fn apply(&mut self, action: FaultAction) {
        match (self, action) {
            (Deployment::Middleware(s), FaultAction::Partition(a, b)) => s.partition(a, b),
            (Deployment::Middleware(s), FaultAction::Heal(a, b)) => s.heal(a, b),
            (Deployment::Protocol(s), FaultAction::Partition(a, b)) => s.partition(a, b),
            (Deployment::Protocol(s), FaultAction::Heal(a, b)) => s.heal(a, b),
        }
    }
}

fn slice_span(solution: Solution) -> &'static str {
    match solution {
        Solution::MwCallback => "floorctl.slice.mw-callback",
        Solution::MwPolling => "floorctl.slice.mw-polling",
        Solution::MwToken => "floorctl.slice.mw-token",
        Solution::MwQueue => "floorctl.slice.mw-queue",
        Solution::ProtoCallback => "floorctl.slice.proto-callback",
        Solution::ProtoPolling => "floorctl.slice.proto-polling",
        Solution::ProtoToken => "floorctl.slice.proto-token",
    }
}

/// One floor run, driven step by step with a span around each call.
fn drive(
    tr: &mut Tracer,
    solution: Solution,
    params: &RunParams,
    options: &RunOptions,
    counts: &mut Counts,
) -> RunOutcome {
    let run = tr.begin("floorctl.run");
    let mut deployment =
        tr.time("floorctl.deploy", || Deployment::new(solution, params, options.reliability));
    let expected_frees = params.expected_grants();
    let slice = Duration::from_millis(250);
    let mut schedule = options.faults.clone();
    schedule.sort_by_key(|f| f.at);
    let mut next_fault = 0usize;
    let mut elapsed = Duration::ZERO;
    // As in `run_solution_with`, the previous slice's report stays alive
    // while the next slice runs: the simulator's copy-on-write trace is
    // then cloned once per slice, and that cost belongs in the slice span.
    let mut report;
    loop {
        while next_fault < schedule.len() && schedule[next_fault].at <= elapsed {
            let action = schedule[next_fault].action;
            tr.time("netsim.fault", || deployment.apply(action));
            next_fault += 1;
        }
        let step = match schedule.get(next_fault) {
            Some(f) => slice.min(Duration::from_micros(
                f.at.as_micros() - elapsed.as_micros(),
            )),
            None => slice,
        };
        report = tr.time(slice_span(solution), || deployment.run_slice(step));
        counts.slices += 1;
        elapsed += step;
        let frees = tr.time("floorctl.free_scan", || report.trace().count_of("free")) as u64;
        if frees >= expected_frees || report.is_quiescent() || elapsed >= params.cap() {
            break;
        }
    }
    let completed =
        tr.time("floorctl.free_scan", || report.trace().count_of("free")) as u64 >= expected_frees;
    let check_options = CheckOptions {
        allow_pending_liveness: !completed,
        ..CheckOptions::default()
    };
    let service = floor_control_service();
    let check = tr.time("model.check_trace", || {
        check_trace(&service, report.trace(), &check_options)
    });
    let (app_events, infra_events) = match &deployment {
        Deployment::Middleware(system) => {
            let totals = system.total_counters();
            let broker = system.broker_counters().unwrap_or_default();
            counts.mw.absorb(&totals);
            if let Some(stats) = system.admission_stats() {
                counts.admission_checked += stats.checked;
                counts.admission_rejected += stats.rejected;
            }
            let app = totals.dispatches + totals.replies + totals.deliveries - broker.deliveries;
            (app, broker.deliveries)
        }
        Deployment::Protocol(stack) => {
            let totals = stack.total_counters();
            counts.proto.absorb(&totals);
            (report.trace().count_of("granted") as u64, totals.pdus_received)
        }
    };
    let floor = tr.time("floorctl.metrics", || FloorMetrics::from_trace(report.trace()));
    counts.msgs_dropped += report.metrics().messages_dropped();
    counts.msgs_duplicated += report.metrics().messages_duplicated();
    counts.trace_events += report.trace().len() as u64;
    counts.grants += floor.grants();
    if solution.is_middleware() {
        counts.mw_grants += floor.grants();
    }
    tr.end(run);
    RunOutcome {
        solution,
        completed,
        conformant: check.is_conformant(),
        violations: check.violations().len(),
        floor,
        trace: report.trace().clone(),
        end_time: report.end_time(),
        transport_messages: report.metrics().messages_sent(),
        transport_bytes: report.metrics().bytes_sent(),
        app_events,
        infra_events,
    }
}

/// Tallies of one equivalence comparison.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

impl Check {
    fn same(&mut self, what: &str, a: &str, b: &str) {
        if a != b {
            self.mismatches.push(what.to_owned());
        }
    }
}

// ---- sweep_faults --------------------------------------------------------

struct SweepPart {
    untraced_s: f64,
    traced_s: f64,
    tracer: Tracer,
    counts: Counts,
    cells: u64,
    workers: u64,
    busy_s: f64,
    idle_s: f64,
    merge_s: f64,
}

/// The traced counterpart of `run_sweep`: the same atomic-cursor worker
/// pool, each worker driving its cells and recording its own spans.
fn drive_sweep(spec: &SweepSpec, workers: usize, origin: Instant) -> (SweepReport, Tracer, Counts) {
    let cells = spec.cells();
    let threads = workers.clamp(1, cells.len().max(1));
    let started = Instant::now();
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<(RunOutcome, std::time::Duration)>>> =
        Mutex::new(cells.iter().map(|_| None).collect());
    let per_thread: Vec<(Tracer, Counts)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (cursor, cells, slots) = (&cursor, &cells, &slots);
                scope.spawn(move || {
                    let mut tr = Tracer::new(origin, 1 + t as u32);
                    let mut counts = Counts::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        let cell_started = Instant::now();
                        let variation = &spec.variations[cell.variation];
                        let params = variation.params.clone().seed(cell.seed);
                        let options = RunOptions {
                            reliability: variation.reliability,
                            faults: cell
                                .campaign
                                .map(|c| spec.campaigns[c].events.clone())
                                .unwrap_or_default(),
                        };
                        let CellTarget::Solution(solution) = spec.targets[cell.target] else {
                            unreachable!("the benchmark's sweeps run solutions only")
                        };
                        let outcome = drive(&mut tr, solution, &params, &options, &mut counts);
                        slots.lock().expect("no worker panics")[i] =
                            Some((outcome, cell_started.elapsed()));
                    }
                    (tr, counts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker"))
            .collect()
    });
    let results: Vec<CellResult> = cells
        .iter()
        .zip(slots.into_inner().expect("no worker panics"))
        .map(|(cell, slot)| {
            let (outcome, wall) = slot.expect("every cell ran");
            CellResult {
                cell: *cell,
                target_label: spec.targets[cell.target].to_string(),
                variation_label: spec.variations[cell.variation].label.clone(),
                campaign_label: spec.campaign_label(cell.campaign).to_string(),
                outcome,
                obs: Recorder::new(),
                wall,
            }
        })
        .collect();
    let groups = aggregate(&results);
    let report = SweepReport {
        name: spec.name.clone(),
        threads,
        wall: started.elapsed(),
        results,
        groups,
    };
    let mut tracer = Tracer::new(origin, 0);
    let mut counts = Counts::default();
    for (tr, c) in per_thread {
        tracer.absorb(tr);
        counts.absorb(&c);
    }
    (report, tracer, counts)
}

fn sweep_part(seed: u64, workers: usize, origin: Instant, check: &mut Check) -> SweepPart {
    let specs = sweep_specs(seed);
    let t = Instant::now();
    let untraced = specs.each_ref().map(|spec| run_sweep(spec, workers));
    let untraced_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut tracer = Tracer::new(origin, 0);
    let mut counts = Counts::default();
    let mut traced = Vec::new();
    for spec in &specs {
        let (report, tr, c) = drive_sweep(spec, workers, origin);
        tracer.absorb(tr);
        counts.absorb(&c);
        traced.push(report);
    }
    let traced_s = t.elapsed().as_secs_f64();

    let mut part = SweepPart {
        untraced_s,
        traced_s,
        tracer,
        counts,
        cells: 0,
        workers: 0,
        busy_s: 0.0,
        idle_s: 0.0,
        merge_s: 0.0,
    };
    for (u, tr) in untraced.iter().zip(&traced) {
        let t = Instant::now();
        let json = part.tracer.time("sweep.merge", || u.to_json());
        part.merge_s += t.elapsed().as_secs_f64();
        check.same(&format!("sweep {} JSON", u.name), &json, &tr.to_json());
        let busy: f64 = u.results.iter().map(|r| r.wall.as_secs_f64()).sum();
        part.cells += u.results.len() as u64;
        part.workers = part.workers.max(u.threads as u64);
        part.busy_s += busy;
        part.idle_s += u.threads as f64 * u.wall.as_secs_f64() - busy;
        check.attempted += u.results.len() as u64;
        check.failed += sweep_failures(u) + sweep_failures(tr);
    }
    part
}

// ---- floor_long ----------------------------------------------------------

struct FloorPart {
    untraced_s: f64,
    traced_s: f64,
    tracer: Tracer,
    counts: Counts,
    admit_ns: f64,
    encode_ns: f64,
    decode_ns: f64,
}

/// Replays each middleware run's trace through a fresh admission gate.
/// Returns ns per admitted occurrence; conformant traces admit every one.
fn replay_gates(outcomes: &[RunOutcome], check: &mut Check) -> f64 {
    let compiled = std::sync::Arc::new(compile_floor_service());
    let (mut ns, mut n) = (0u128, 0u64);
    for o in outcomes.iter().filter(|o| o.solution.is_middleware()) {
        let gate = AdmissionGate::with_compiled(compiled.clone(), Engine::default());
        let t = Instant::now();
        for e in o.trace.iter() {
            std::hint::black_box(gate.admit(e.sap(), e.primitive(), e.args()));
        }
        ns += t.elapsed().as_nanos();
        let stats = gate.stats();
        n += stats.checked;
        if stats.rejected > 0 {
            check.mismatches.push(format!("{} trace rejected on replay", o.solution));
        }
    }
    ns as f64 / n.max(1) as f64
}

fn arg_for(ty: &ValueType, ids: &[Value], primitive: &str) -> Value {
    match ty {
        ValueType::Bool => Value::Bool(primitive == "free"),
        ValueType::Set(_) => Value::Set(ids.iter().cloned().collect()),
        _ => ids.first().cloned().unwrap_or(Value::Id(0)),
    }
}

/// Encodes and decodes every PDU of each protocol run's registry, with
/// arguments taken from that run's trace. Returns (encode, decode) ns.
fn codec_round_trips(outcomes: &[RunOutcome], check: &mut Check) -> (f64, f64) {
    let mut pdus: Vec<(PduRegistry, Vec<(String, Vec<Value>)>)> = Vec::new();
    for o in outcomes {
        let registry = match o.solution {
            Solution::ProtoCallback => proto::callback::registry(),
            Solution::ProtoPolling => proto::polling::registry(),
            Solution::ProtoToken => proto::token::registry(),
            _ => continue,
        };
        let mut list = Vec::new();
        for e in o.trace.iter() {
            let ids: Vec<Value> = e.args().iter().filter(|a| a.as_id().is_some()).cloned().collect();
            for schema in registry.schemas() {
                let args = schema
                    .fields()
                    .iter()
                    .map(|f| arg_for(f.ty(), &ids, e.primitive()))
                    .collect();
                list.push((schema.name().to_owned(), args));
            }
        }
        pdus.push((registry, list));
    }
    let (mut enc_ns, mut dec_ns, mut n) = (0u128, 0u128, 0usize);
    for (registry, list) in &pdus {
        let t = Instant::now();
        let encoded: Vec<Vec<u8>> = list
            .iter()
            .map(|(name, args)| registry.encode(name, args).expect("schema-typed arguments"))
            .collect();
        enc_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let decoded: Vec<_> = encoded
            .iter()
            .map(|bytes| registry.decode(bytes).expect("own encoding decodes"))
            .collect();
        dec_ns += t.elapsed().as_nanos();
        n += list.len();
        let round_trips = list
            .iter()
            .zip(&decoded)
            .all(|((name, args), pdu)| pdu.name() == name && pdu.args() == args.as_slice());
        if !round_trips {
            check.mismatches.push("codec round trip".into());
        }
    }
    (enc_ns as f64 / n.max(1) as f64, dec_ns as f64 / n.max(1) as f64)
}

fn floor_part(seed: u64, origin: Instant, check: &mut Check) -> FloorPart {
    let params = floor_params(seed);
    let t = Instant::now();
    let untraced: Vec<RunOutcome> =
        Solution::ALL.iter().map(|&s| run_solution(s, &params)).collect();
    let untraced_s = t.elapsed().as_secs_f64();

    let mut tracer = Tracer::new(origin, 0);
    let mut counts = Counts::default();
    let t = Instant::now();
    let traced: Vec<RunOutcome> = Solution::ALL
        .iter()
        .map(|&s| drive(&mut tracer, s, &params, &RunOptions::default(), &mut counts))
        .collect();
    let traced_s = t.elapsed().as_secs_f64();

    for (u, tr) in untraced.iter().zip(&traced) {
        check.same(&format!("{} run", u.solution), &outcome_bytes(u), &outcome_bytes(tr));
        check.attempted += 1;
        check.failed += u64::from(floor_failed(u) || floor_failed(tr));
    }
    let admit_ns = replay_gates(&traced, check);
    let (encode_ns, decode_ns) = codec_round_trips(&traced, check);
    FloorPart {
        untraced_s,
        traced_s,
        tracer,
        counts,
        admit_ns,
        encode_ns,
        decode_ns,
    }
}

// ---- soak_scale ----------------------------------------------------------

struct SoakPart {
    untraced_s: f64,
    traced_s: f64,
    run_s: f64,
    build_s: f64,
    out: svckit_bench::scale::ScaleOutcome,
}

fn soak_part(seed: u64, origin: Instant, check: &mut Check) -> SoakPart {
    let cfg = soak_config(seed);
    let t = Instant::now();
    let untraced = run_scale_soak(&cfg);
    let untraced_s = t.elapsed().as_secs_f64();
    let mut tr = Tracer::new(origin, 0);
    let out = tr.time("netsim.soak", || run_scale_soak(&cfg));
    let traced_s = tr.total_s("netsim.soak");
    check.same(
        "soak JSON",
        &untraced.to_canonical_json(),
        &out.to_canonical_json(),
    );
    check.attempted += 1;
    check.failed += u64::from(!untraced.quiescent || !out.quiescent);
    SoakPart {
        untraced_s,
        traced_s,
        run_s: out.wall_secs,
        build_s: traced_s - out.wall_secs,
        out,
    }
}

// ---- verify_u4 -----------------------------------------------------------

struct VerifyPart {
    untraced_s: f64,
    traced_s: f64,
    tracer: Tracer,
    unique_services: u64,
    metrics: Vec<Metric>,
}

/// The traced counterpart of `AnalysisReport::run`.
fn drive_analysis(
    tr: &mut Tracer,
    targets: &[svckit_analyze::Target],
    options: &svckit_analyze::ServicePassOptions,
) -> (AnalysisReport, usize) {
    let mut cache: BTreeMap<(String, usize), ServiceAnalysis> = BTreeMap::new();
    let mut reports = Vec::new();
    for target in targets {
        let key = (target.service.name().to_owned(), target.universe.len());
        let analysis = cache
            .entry(key)
            .or_insert_with(|| {
                tr.time("analyze.service_pass", || {
                    analyze_service(&target.service, target.universe.clone(), options)
                })
            })
            .clone();
        let mut diagnostics = analysis.diagnostics;
        if let Some(decl) = &target.protocol {
            diagnostics.extend(tr.time("analyze.protocol_pass", || {
                analyze_protocol(&target.service, decl)
            }));
        }
        if let Some(implementation) = &target.implementation {
            diagnostics.extend(tr.time("analyze.verify_impl", || {
                verify_implementation(&target.service, &target.universe, implementation, options)
            }));
        }
        reports.push(TargetReport {
            target: target.name.clone(),
            kind: target.kind,
            states: analysis.states,
            transitions: analysis.transitions,
            diagnostics,
            notes: target.notes.clone(),
            por: analysis.por,
            sym: analysis.sym,
            ldd: analysis.ldd,
        });
    }
    let report = AnalysisReport {
        reduction: options.reduction,
        backend: options.backend,
        targets: reports,
    };
    (report, cache.len())
}

fn flip_symmetry(s: Symmetry) -> Symmetry {
    match s {
        Symmetry::On => Symmetry::Off,
        Symmetry::Off => Symmetry::On,
    }
}

fn flip_reduction(r: Reduction) -> Reduction {
    match r {
        Reduction::Full => Reduction::AmpleSets,
        Reduction::AmpleSets => Reduction::Full,
    }
}

fn verify_part(origin: Instant, check: &mut Check) -> VerifyPart {
    let targets = verify_targets();
    let options = verify_options();
    let t = Instant::now();
    let untraced = AnalysisReport::run(&targets, &options);
    let untraced_s = t.elapsed().as_secs_f64();

    let mut tracer = Tracer::new(origin, 0);
    let t = Instant::now();
    let (traced, unique) = drive_analysis(&mut tracer, &targets, &options);
    let traced_s = t.elapsed().as_secs_f64();
    check.same("analyzer JSON", &untraced.to_json(), &traced.to_json());
    check.same("analyzer diag JSON", &untraced.to_diag_json(), &traced.to_diag_json());
    check.attempted += 1;
    check.failed += u64::from(untraced.errors() + untraced.warnings() > 0);

    // Every exploration the service pass makes, timed one by one, for
    // each unique (service, universe); the state counts must match what
    // the analyzer reported for that target.
    let mut seen = std::collections::BTreeSet::new();
    let (mut states, mut explore_s) = ([0u64; 3], [0f64; 3]);
    let (mut truncated, mut canon_hits) = (0u64, 0u64);
    let (mut ldd_s, mut peak_nodes, mut final_nodes, mut cache_hits) = (0f64, 0u64, 0u64, 0u64);
    for (target, report) in targets.iter().zip(&traced.targets) {
        if !seen.insert((target.service.name().to_owned(), target.universe.len())) {
            continue;
        }
        let explorer = ServiceExplorer::with_engine(
            &target.service,
            target.universe.clone(),
            options.max_outstanding,
            options.engine,
        );
        let configured = ExploreOptions {
            max_states: options.max_states,
            reduction: options.reduction,
            progress: progress_primitives(&target.service),
            symmetry: options.symmetry,
            ..ExploreOptions::default()
        };
        let sets = [
            ("lts.explore.configured", configured.clone()),
            (
                "lts.explore.sym_flip",
                ExploreOptions {
                    symmetry: flip_symmetry(options.symmetry),
                    ..configured.clone()
                },
            ),
            (
                "lts.explore.por_flip",
                ExploreOptions {
                    reduction: flip_reduction(options.reduction),
                    ..configured.clone()
                },
            ),
        ];
        let mut runs = Vec::new();
        for (i, (span, opts)) in sets.iter().enumerate() {
            let t = Instant::now();
            let r = tracer.time(span, || explorer.explore(opts));
            explore_s[i] += t.elapsed().as_secs_f64();
            states[i] += r.states as u64;
            truncated += u64::from(r.truncated);
            runs.push(r);
        }
        canon_hits += runs[0].canon_hits;
        if runs[0].states != report.states
            || runs[1].states as u64 != report.sym.full_states
            || runs[2].states as u64 != report.por.full_states
        {
            check
                .mismatches
                .push(format!("{} exploration counts", target.name));
        }
        let symbolic = ExploreOptions {
            backend: Backend::Symbolic,
            ..configured
        };
        let t = Instant::now();
        let r = tracer.time("ldd.explore", || explorer.explore(&symbolic));
        ldd_s += t.elapsed().as_secs_f64();
        peak_nodes = peak_nodes.max(r.peak_nodes as u64);
        final_nodes += r.ldd_nodes as u64;
        cache_hits += r.cache_hits;
        if r.ldd_nodes as u64 != report.ldd.ldd_nodes {
            check.mismatches.push(format!("{} LDD counts", target.name));
        }
    }
    let total_states: u64 = states.iter().sum();
    let total_s: f64 = explore_s.iter().sum();
    let metrics = vec![
        Metric::new("lts.explore_s.configured", explore_s[0], "s"),
        Metric::new("lts.explore_s.sym_flip", explore_s[1], "s"),
        Metric::new("lts.explore_s.por_flip", explore_s[2], "s"),
        Metric::new("lts.states.configured", states[0] as f64, "count"),
        Metric::new("lts.states.sym_flip", states[1] as f64, "count"),
        Metric::new("lts.states.por_flip", states[2] as f64, "count"),
        Metric::new("lts.states_per_s", total_states as f64 / total_s, "1/s"),
        Metric::new("lts.truncated", truncated as f64, "count"),
        Metric::new("lts.canon_hits", canon_hits as f64, "count"),
        Metric::new("ldd.explore_s", ldd_s, "s"),
        Metric::new("ldd.peak_nodes", peak_nodes as f64, "count"),
        Metric::new("ldd.final_nodes", final_nodes as f64, "count"),
        Metric::new("ldd.cache_hits", cache_hits as f64, "count"),
    ];
    VerifyPart {
        untraced_s,
        traced_s,
        tracer,
        unique_services: unique as u64,
        metrics,
    }
}

// ---- the whole traced run ------------------------------------------------

fn compile_s() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(compile_floor_service());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::Path::new(&root)
        .join("perfbench")
        .join(format!("spans-{workload}-seed{seed}.json"))
}

pub fn run(selected: &str, seed: u64, workers: usize) -> Traced {
    let origin = Instant::now();
    let mut check = Check::default();
    let dfa_compile_s = compile_s();
    let sweep = sweep_part(seed, workers, origin, &mut check);
    let floor = floor_part(seed, origin, &mut check);
    let soak = soak_part(seed, origin, &mut check);
    let verify = verify_part(origin, &mut check);

    let overheads = [
        ("sweep_faults", sweep.untraced_s, sweep.traced_s),
        ("floor_long", floor.untraced_s, floor.traced_s),
        ("soak_scale", soak.untraced_s, soak.traced_s),
        ("verify_u4", verify.untraced_s, verify.traced_s),
    ];
    let pct = |u: f64, t: f64| (t - u) / u * 100.0;
    let (_, u, t) = overheads
        .iter()
        .find(|(name, ..)| *name == selected)
        .copied()
        .expect("workload names are checked on entry");

    let f = &floor.tracer;
    let fc = &floor.counts;
    let sc = &sweep.counts;
    let slice_names: Vec<&'static str> = Solution::ALL.iter().map(|&s| slice_span(s)).collect();
    let slice_s: f64 = slice_names.iter().map(|n| f.self_s(n)).sum();
    let check_s = f.self_s("model.check_trace");
    let out = &soak.out;

    let mut metrics = vec![
        Metric::new("netsim.run_s", soak.run_s, "s"),
        Metric::new("netsim.ns_per_event", soak.run_s * 1e9 / out.events as f64, "ns"),
        Metric::new("netsim.build_s", soak.build_s, "s"),
        Metric::new("netsim.events", out.events as f64, "count"),
        Metric::new("netsim.peak_pending", out.peak_pending as f64, "count"),
        Metric::new("netsim.msgs_sent", out.messages_sent as f64, "count"),
        Metric::new("netsim.msgs_delivered", out.messages_delivered as f64, "count"),
        Metric::new("netsim.msgs_dropped", sc.msgs_dropped as f64, "count"),
        Metric::new("netsim.msgs_duplicated", sc.msgs_duplicated as f64, "count"),
        Metric::new("netsim.bytes_sent", out.bytes_sent as f64, "B"),
        Metric::new("floorctl.deploy_s", sweep.tracer.self_s("floorctl.deploy"), "s"),
        Metric::new("floorctl.slice_s", slice_s, "s"),
    ];
    for (solution, name) in Solution::ALL.iter().zip(&slice_names) {
        metrics.push(Metric::new(
            format!("floorctl.slice_s.{solution}"),
            f.self_s(name),
            "s",
        ));
    }
    metrics.extend([
        Metric::new("floorctl.slices", fc.slices as f64, "count"),
        Metric::new("floorctl.free_scan_s", f.self_s("floorctl.free_scan"), "s"),
        Metric::new("floorctl.metrics_s", f.self_s("floorctl.metrics"), "s"),
        Metric::new("floorctl.grants", fc.grants as f64, "count"),
        Metric::new("model.check_trace_s", check_s, "s"),
        Metric::new("model.trace_events", fc.trace_events as f64, "count"),
        Metric::new(
            "model.ns_per_checked_event",
            check_s * 1e9 / fc.trace_events as f64,
            "ns",
        ),
        Metric::new("dfa.compile_s", dfa_compile_s, "s"),
        Metric::new("dfa.admit_ns", floor.admit_ns, "ns"),
        Metric::new(
            "dfa.admitted",
            (fc.admission_checked - fc.admission_rejected) as f64,
            "count",
        ),
        Metric::new("dfa.rejected", fc.admission_rejected as f64, "count"),
        Metric::new("middleware.dispatches", fc.mw.dispatches as f64, "count"),
        Metric::new("middleware.replies", fc.mw.replies as f64, "count"),
        Metric::new("middleware.deliveries", fc.mw.deliveries as f64, "count"),
        Metric::new("middleware.timeouts", fc.mw.timeouts as f64, "count"),
        Metric::new("middleware.dispatch_errors", fc.mw.dispatch_errors as f64, "count"),
        Metric::new("middleware.marshalled_bytes", fc.mw.marshalled_bytes as f64, "B"),
        Metric::new(
            "middleware.bytes_per_grant",
            fc.mw.marshalled_bytes as f64 / fc.mw_grants as f64,
            "B",
        ),
        Metric::new("protocol.pdus_sent", sc.proto.pdus_sent as f64, "count"),
        Metric::new("protocol.pdu_bytes_sent", sc.proto.pdu_bytes_sent as f64, "B"),
        Metric::new("protocol.retransmissions", sc.proto.retransmissions as f64, "count"),
        Metric::new(
            "protocol.retransmit_ratio",
            sc.proto.retransmissions as f64 / sc.proto.pdus_sent as f64,
            "ratio",
        ),
        Metric::new(
            "protocol.duplicates_suppressed",
            sc.proto.duplicates_suppressed as f64,
            "count",
        ),
        Metric::new("protocol.decode_errors", sc.proto.decode_errors as f64, "count"),
        Metric::new("codec.encode_ns", floor.encode_ns, "ns"),
        Metric::new("codec.decode_ns", floor.decode_ns, "ns"),
        Metric::new("sweep.cells", sweep.cells as f64, "count"),
        Metric::new("sweep.workers", sweep.workers as f64, "count"),
        Metric::new("sweep.busy_s", sweep.busy_s, "s"),
        Metric::new("sweep.idle_s", sweep.idle_s, "s"),
        Metric::new("sweep.merge_s", sweep.merge_s, "s"),
    ]);
    metrics.extend(verify.metrics);
    let v = &verify.tracer;
    metrics.extend([
        Metric::new("analyze.service_pass_s", v.self_s("analyze.service_pass"), "s"),
        Metric::new("analyze.protocol_pass_s", v.self_s("analyze.protocol_pass"), "s"),
        Metric::new("analyze.unique_services", verify.unique_services as f64, "count"),
        Metric::new("obs.trace_overhead_pct", pct(u, t), "%"),
    ]);

    // All spans on one timeline, written once the run is over.
    let mut all = Tracer::new(origin, 0);
    all.absorb(sweep.tracer);
    all.absorb(floor.tracer);
    all.absorb(verify.tracer);
    let mut notes = Vec::new();
    let path = spans_path(selected, seed);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, all.to_chrome_json()));
    match written {
        Ok(()) => notes.push(format!("spans: wrote {}", path.display())),
        Err(e) => notes.push(format!("spans: cannot write {}: {e}", path.display())),
    }
    for (name, (self_s, n)) in all.self_times() {
        notes.push(format!("self: {name} {self_s:.6} s over {n} span(s)"));
    }
    for (name, u, t) in overheads {
        notes.push(format!(
            "overhead: {name} untraced {u:.4} s traced {t:.4} s ({:+.2} %)",
            pct(u, t)
        ));
    }
    for m in &check.mismatches {
        notes.push(format!("MISMATCH: {m}"));
    }
    Traced {
        correct: check.mismatches.is_empty() && check.failed == 0,
        attempted: check.attempted,
        failed: check.failed + check.mismatches.len() as u64,
        metrics,
        notes,
        params: vec![("traced_parts", "sweep_faults,floor_long,soak_scale,verify_u4".into())],
    }
}
