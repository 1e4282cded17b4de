//! The four workloads: their inputs (derived from the workload seed),
//! their set-up, and their untraced timed operations through the public
//! entry points users call (`run_sweep`, `run_solution`,
//! `run_scale_soak`, `AnalysisReport::run`).

use std::time::Instant;

use svckit::dfa::{Compiled, ADMISSION_BOUND};
use svckit::floorctl::{
    floor_control_service, mw, proto, run_solution, FaultEvent, RunOutcome, RunParams, Solution,
};
use svckit::model::Duration;
use svckit::netsim::{DeterministicRng, LinkConfig};
use svckit::protocol::ReliabilityConfig;
use svckit_analyze::{
    all_targets, scale_floor_targets, AnalysisReport, Backend, ServicePassOptions, Target,
};
use svckit_bench::scale::{run_scale_soak, ScaleConfig};
use svckit_sweep::{run_sweep, write_outcome, JsonWriter, SweepReport, SweepSpec};

use crate::stats::{fnv1a, median, quantile};

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["sweep_faults", "floor_long", "soak_scale", "verify_u4"];

/// The seed whose outputs are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// Digests of each workload's canonical output at [`DEFAULT_SEED`] (the
/// analyzer's at every seed). A change that only claims speed must leave
/// these untouched.
pub fn pinned_digest(workload: &str) -> Option<u64> {
    match workload {
        "sweep_faults" => Some(0x65e8_0841_08dc_4705),
        "floor_long" => Some(0x5847_58a1_a134_7689),
        "soak_scale" => Some(0xc0ce_6063_7991_cecb),
        "verify_u4" => Some(0x2571_dea7_b644_c412),
        _ => unreachable!("workload names are checked on entry"),
    }
}

/// The digest a run at `seed` must reproduce, when one is pinned.
pub fn expected_digest(workload: &str, seed: u64) -> Option<u64> {
    if seed == DEFAULT_SEED || workload == "verify_u4" {
        pinned_digest(workload)
    } else {
        None
    }
}

// ---- sweep_faults -------------------------------------------------------

/// Seeds (and campaigns) per sweep: the grid holds 13 × n² cells.
pub const SWEEP_SEEDS: u64 = 10;
/// Subscribers per sweep cell, as in the `soak` binary.
pub const SWEEP_SUBSCRIBERS: u64 = 4;

/// The cell seeds of one workload seed: ten consecutive values, so the
/// default seed runs the `soak --seeds 10` grid exactly.
fn sweep_cell_seeds(seed: u64) -> Vec<u64> {
    let base = seed.wrapping_sub(1).wrapping_mul(SWEEP_SEEDS);
    (1..=SWEEP_SEEDS).map(|i| base.wrapping_add(i)).collect()
}

/// One partition/heal campaign per cell seed, generated as the `soak`
/// binary does: a random subscriber↔controller or subscriber↔subscriber
/// cut early in the run, healed a few milliseconds later except for every
/// fourth campaign. The never-healed share is fixed by the campaign's
/// position rather than its seed, so every workload seed carries the same
/// number of cells that stall until the time cap.
fn campaign_from_seed(seed: u64, position: u64, subscribers: u64) -> (String, Vec<FaultEvent>) {
    let mut rng = DeterministicRng::new(seed.wrapping_mul(0x9E37_79B9));
    let a = proto::subscriber_part(1 + rng.next_below(subscribers));
    let b = if rng.coin(0.5) {
        proto::controller_part()
    } else {
        let mut k = 1 + rng.next_below(subscribers);
        if proto::subscriber_part(k) == a {
            k = 1 + (k % subscribers);
        }
        proto::subscriber_part(k)
    };
    let cut_at = Duration::from_micros(1_000 + rng.next_below(8_000));
    let mut events = vec![FaultEvent::partition(cut_at, a, b)];
    let label = if position.is_multiple_of(4) {
        format!("s{seed}:cut")
    } else {
        let heal_at = Duration::from_micros(cut_at.as_micros() + 2_000 + rng.next_below(10_000));
        events.push(FaultEvent::heal(heal_at, a, b));
        format!("s{seed}:cut-heal")
    };
    (label, events)
}

/// The paper grid (six solutions × {lan, lossy10} × campaigns × seeds)
/// and the reliable leg (ProtoCallback with retransmission over a lossy,
/// duplicating link).
pub fn sweep_specs(seed: u64) -> [SweepSpec; 2] {
    let base = RunParams::default()
        .subscribers(SWEEP_SUBSCRIBERS)
        .resources(2)
        .rounds(3)
        .time_cap(Duration::from_secs(60));
    let lossy = LinkConfig::lossy(Duration::from_millis(1), Duration::from_micros(200), 0.10);
    let mut spec = SweepSpec::new("soak")
        .solutions(Solution::PAPER)
        .variation("lan", base.clone())
        .variation("lossy10", base.clone().link(lossy.clone()))
        .seeds(sweep_cell_seeds(seed));
    let mut reliable = SweepSpec::new("soak_reliable")
        .solutions([Solution::ProtoCallback])
        .variation_with_reliability(
            "lossy10+dup5+rel",
            base.link(lossy.with_duplication(0.05)),
            ReliabilityConfig::new(Duration::from_millis(8)),
        )
        .seeds(sweep_cell_seeds(seed));
    for (position, cell_seed) in (1..).zip(sweep_cell_seeds(seed)) {
        let (label, events) = campaign_from_seed(cell_seed, position, SWEEP_SUBSCRIBERS);
        spec = spec.campaign(label.clone(), events.clone());
        reliable = reliable.campaign(label, events);
    }
    [spec, reliable]
}

/// Failed cells of one sweep: non-conformant cells, plus cells of the
/// reliable leg whose partition healed but which did not complete.
pub fn sweep_failures(report: &SweepReport) -> u64 {
    report
        .results
        .iter()
        .filter(|r| {
            !r.outcome.conformant
                || (r.variation_label.ends_with("+rel")
                    && r.campaign_label.ends_with(":cut-heal")
                    && !r.outcome.completed)
        })
        .count() as u64
}

// ---- floor_long ---------------------------------------------------------

pub const FLOOR_SUBSCRIBERS: u64 = 96;
pub const FLOOR_RESOURCES: u64 = 8;
pub const FLOOR_ROUNDS: u32 = 50;

pub fn floor_params(seed: u64) -> RunParams {
    RunParams::default()
        .subscribers(FLOOR_SUBSCRIBERS)
        .resources(FLOOR_RESOURCES)
        .rounds(FLOOR_ROUNDS)
        .link(LinkConfig::lan())
        .seed(DeterministicRng::new(seed ^ 0xF100_0001).next_u64())
}

/// The canonical bytes of one run: its summary block plus its trace.
pub fn outcome_bytes(outcome: &RunOutcome) -> String {
    let mut w = JsonWriter::pretty();
    write_outcome(&mut w, outcome);
    format!("{}{}", w.finish(), outcome.trace)
}

pub fn floor_failed(outcome: &RunOutcome) -> bool {
    !outcome.completed || !outcome.conformant
}

/// Builds (and drops) one deployment of `solution`: the set-up cost of a
/// run, paid again inside every `run_solution` call.
pub fn deploy_once(solution: Solution, params: &RunParams, reliability: Option<ReliabilityConfig>) {
    match solution {
        Solution::MwCallback => drop(mw::callback::deploy(params)),
        Solution::MwPolling => drop(mw::polling::deploy(params)),
        Solution::MwToken => drop(mw::token::deploy(params)),
        Solution::MwQueue => drop(mw::queue::deploy(params)),
        Solution::ProtoCallback => drop(proto::callback::deploy_with_reliability(
            params,
            reliability,
        )),
        Solution::ProtoPolling => drop(proto::polling::deploy(params)),
        Solution::ProtoToken => drop(proto::token::deploy(params)),
    }
}

/// Compiles the floor-control service into admission tables, as every
/// middleware deployment's gate needs.
pub fn compile_floor_service() -> Compiled {
    Compiled::compile(&floor_control_service(), ADMISSION_BOUND)
        .expect("floor-control constraints compile")
}

// ---- soak_scale ---------------------------------------------------------

pub const SOAK_CLIENTS: u64 = 20_000;
pub const SOAK_SERVERS: u64 = 4;
pub const SOAK_ROUNDS: u32 = 4;

pub fn soak_config(seed: u64) -> ScaleConfig {
    ScaleConfig {
        clients: SOAK_CLIENTS,
        servers: SOAK_SERVERS,
        rounds: SOAK_ROUNDS,
        shards: 1,
        seed: DeterministicRng::new(seed ^ 0x50A4_0001).next_u64(),
        ..ScaleConfig::default()
    }
}

// ---- verify_u4 ----------------------------------------------------------

pub const VERIFY_USERS: u64 = 4;

/// Every analyzer target with the floor-control universes scaled to six
/// users. The analyzer is deterministic: the seed does not enter.
pub fn verify_targets() -> Vec<Target> {
    let mut targets = all_targets();
    scale_floor_targets(&mut targets, VERIFY_USERS);
    targets
}

pub fn verify_options() -> ServicePassOptions {
    ServicePassOptions {
        backend: Backend::Symbolic,
        ..ServicePassOptions::default()
    }
}

pub fn verify_failed(report: &AnalysisReport, expected: Option<u64>) -> bool {
    report.errors() > 0
        || report.warnings() > 0
        || expected.is_some_and(|d| d != fnv1a(report.to_diag_json().as_bytes()))
}

// ---- the untraced measurement ------------------------------------------


/// The timed runs of one kind of operation (one kind per workload, except
/// one per solution on `floor_long`).
#[derive(Debug, Default)]
pub struct Kind {
    pub name: String,
    /// Wall seconds of each timed run.
    pub wall_s: Vec<f64>,
    /// Units of work of each timed run (cells, grants, events, analyzer
    /// passes).
    pub work: Vec<f64>,
}

/// What one untraced run of a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall seconds of every set-up, the first counted from process start.
    pub setup_samples: Vec<f64>,
    /// Operations attempted (sweep cells, floor runs, soaks, analyzer
    /// passes), the warm-up included.
    pub attempted: u64,
    pub failed: u64,
    /// Timed runs by kind of operation; the warm-up is not among them.
    pub kinds: Vec<Kind>,
    /// Digest of every pass's canonical output.
    pub digests: Vec<u64>,
    /// The workload's own metric names for its numbers.
    pub named: Vec<(&'static str, f64, &'static str)>,
    pub params: Vec<(&'static str, String)>,
}

impl Measured {
    fn record(&mut self, name: &str, wall_s: f64, work: f64) {
        let i = match self.kinds.iter().position(|k| k.name == name) {
            Some(i) => i,
            None => {
                self.kinds.push(Kind {
                    name: name.to_owned(),
                    ..Kind::default()
                });
                self.kinds.len() - 1
            }
        };
        self.kinds[i].wall_s.push(wall_s);
        self.kinds[i].work.push(work);
    }

    /// Median set-up seconds.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_samples)
    }

    /// Wall seconds of one pass (one operation of every kind): the sum of
    /// each kind's median. Medians per kind, so that a pass the host slowed
    /// down does not count against all seven floor solutions at once.
    pub fn pass_s(&self) -> f64 {
        self.kinds.iter().map(|k| median(&k.wall_s)).sum()
    }

    /// Units of work per second of [`Measured::pass_s`].
    pub fn throughput(&self) -> f64 {
        let work: f64 = self.kinds.iter().map(|k| median(&k.work)).sum();
        work / self.pass_s()
    }

    /// Timed operations.
    pub fn timed_ops(&self) -> usize {
        self.kinds.iter().map(|k| k.wall_s.len()).sum()
    }

    /// Times `setup` over and over for about 10 ms. Called between
    /// operations, so that set-up samples spread over the whole run and
    /// their median does not hang on the host's load in one second of it.
    fn sample_setup(&mut self, mut setup: impl FnMut()) {
        let started = Instant::now();
        loop {
            let t = Instant::now();
            setup();
            self.setup_samples.push(t.elapsed().as_secs_f64());
            if started.elapsed().as_secs_f64() >= 0.01 {
                return;
            }
        }
    }
}

/// Runs `pass` once as a warm-up (`timed == false`: output checked,
/// nothing recorded), then again and again: at least `min_passes` timed
/// times, then only while one more pass of median length still ends
/// within `seconds` of the start.
fn repeat(
    m: &mut Measured,
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut(&mut Measured, bool),
) {
    let started = Instant::now();
    pass(m, false);
    let mut pass_s = Vec::new();
    while pass_s.len() < min_passes || started.elapsed().as_secs_f64() + median(&pass_s) <= seconds
    {
        let t = Instant::now();
        pass(m, true);
        pass_s.push(t.elapsed().as_secs_f64());
    }
}

pub fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
    workers: usize,
    process_start: Instant,
) -> Measured {
    let expected = expected_digest(workload, seed);
    let mut m = Measured::default();
    match workload {
        "sweep_faults" => {
            let build = || {
                let specs = sweep_specs(seed);
                let base = specs[0].variations[0].params.clone();
                let reliability = specs[1].variations[0].reliability;
                std::hint::black_box(compile_floor_service());
                for solution in Solution::ALL {
                    deploy_once(solution, &base, reliability);
                }
                specs
            };
            let specs = build();
            m.setup_samples.push(process_start.elapsed().as_secs_f64());
            let mut cell_s = Vec::new();
            repeat(&mut m, seconds, 1, |m, timed| {
                let t = Instant::now();
                let reports = specs.each_ref().map(|spec| run_sweep(spec, workers));
                let wall = t.elapsed().as_secs_f64();
                let mut bytes = String::new();
                let mut cells = 0;
                for report in &reports {
                    cells += report.results.len();
                    m.failed += sweep_failures(report);
                    if timed {
                        cell_s.extend(report.results.iter().map(|r| r.wall.as_secs_f64()));
                    }
                    bytes.push_str(&report.to_json());
                }
                m.attempted += cells as u64;
                m.digests.push(fnv1a(bytes.as_bytes()));
                if timed {
                    m.record("sweep", wall, cells as f64);
                }
                m.sample_setup(|| drop(build()));
            });
            m.named = vec![
                ("sweep_cells_per_s", m.throughput(), "1/s"),
                ("cell_ms_p50", quantile(&cell_s, 0.5) * 1e3, "ms"),
                ("cell_ms_p99", quantile(&cell_s, 0.99) * 1e3, "ms"),
            ];
            m.params = vec![
                ("cell_seeds", format!("{:?}", sweep_cell_seeds(seed))),
                ("subscribers", SWEEP_SUBSCRIBERS.to_string()),
                ("resources", "2".into()),
                ("rounds", "3".into()),
                ("links", "lan,lossy10,lossy10+dup5+rel".into()),
                ("cells_per_pass", (specs[0].cells().len() + specs[1].cells().len()).to_string()),
                ("cells_timed", cell_s.len().to_string()),
                ("passes", m.digests.len().to_string()),
            ];
        }
        "floor_long" => {
            let params = floor_params(seed);
            let build = || {
                std::hint::black_box(compile_floor_service());
                for solution in Solution::ALL {
                    deploy_once(solution, &params, None);
                }
            };
            build();
            m.setup_samples.push(process_start.elapsed().as_secs_f64());
            // One pass runs each of the seven solutions once; each solution
            // is a kind of its own.
            repeat(&mut m, seconds, 3, |m, timed| {
                let mut bytes = String::new();
                for solution in Solution::ALL {
                    let t = Instant::now();
                    let outcome = run_solution(solution, &params);
                    let wall = t.elapsed().as_secs_f64();
                    m.attempted += 1;
                    m.failed += u64::from(floor_failed(&outcome));
                    if timed {
                        m.record(&solution.to_string(), wall, outcome.floor.grants() as f64);
                    }
                    bytes.push_str(&outcome_bytes(&outcome));
                }
                m.digests.push(fnv1a(bytes.as_bytes()));
                m.sample_setup(build);
            });
            m.named = vec![("floor_grants_per_s", m.throughput(), "1/s")];
            m.params = vec![
                ("subscribers", FLOOR_SUBSCRIBERS.to_string()),
                ("resources", FLOOR_RESOURCES.to_string()),
                ("rounds", FLOOR_ROUNDS.to_string()),
                ("link", "lan".into()),
                ("run_seed", params.seed_value().to_string()),
                ("passes", m.digests.len().to_string()),
            ];
        }
        "soak_scale" => {
            let cfg = soak_config(seed);
            // A soak builds its processes inside the call: its set-up is
            // the call's wall time less the run's.
            repeat(&mut m, seconds, 3, |m, timed| {
                let t = Instant::now();
                let out = run_scale_soak(&cfg);
                m.setup_samples.push(t.elapsed().as_secs_f64() - out.wall_secs);
                m.attempted += 1;
                m.failed += u64::from(!out.quiescent);
                m.digests.push(fnv1a(out.to_canonical_json().as_bytes()));
                if timed {
                    m.record("soak", out.wall_secs, out.events as f64);
                }
            });
            m.named = vec![("soak_events_per_s", m.throughput(), "1/s")];
            m.params = vec![
                ("clients", cfg.clients.to_string()),
                ("servers", cfg.servers.to_string()),
                ("rounds", cfg.rounds.to_string()),
                ("shards", cfg.shards.to_string()),
                ("soak_seed", cfg.seed.to_string()),
                ("soaks", m.digests.len().to_string()),
            ];
        }
        "verify_u4" => {
            let build = || (verify_targets(), verify_options());
            let (targets, options) = build();
            m.setup_samples.push(process_start.elapsed().as_secs_f64());
            repeat(&mut m, seconds, 3, |m, timed| {
                let t = Instant::now();
                let report = AnalysisReport::run(&targets, &options);
                let wall = t.elapsed().as_secs_f64();
                m.attempted += 1;
                m.failed += u64::from(verify_failed(&report, expected));
                m.digests.push(fnv1a(report.to_diag_json().as_bytes()));
                if timed {
                    m.record("analyzer", wall, 1.0);
                }
                m.sample_setup(|| drop(build()));
            });
            m.named = vec![("verify_s", m.pass_s(), "s")];
            m.params = vec![
                ("targets", targets.len().to_string()),
                ("users", VERIFY_USERS.to_string()),
                ("backend", "symbolic".into()),
                ("reduction", "ample-sets".into()),
                ("symmetry", "on".into()),
                ("max_states", options.max_states.to_string()),
                ("analyzer_runs", m.digests.len().to_string()),
            ];
        }
        _ => unreachable!("workload names are checked on entry"),
    }
    m
}
