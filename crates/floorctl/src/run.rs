//! The unified run harness for all six solutions.

use std::sync::Arc;

use svckit_middleware::{AdmissionGate, Monitor, MwSystem};
use svckit_model::conformance::{check_trace, CheckOptions};
use svckit_model::{Duration, Instant, PartId, Trace};
use svckit_netsim::SimReport;
use svckit_protocol::{ReliabilityConfig, Stack};

use crate::metrics::FloorMetrics;
use crate::params::{RunParams, Solution};
use crate::service::floor_compiled;
use crate::{mw, proto};

/// A network fault (or repair) injected into a running deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Drop every message between the two nodes (both directions) until a
    /// matching [`FaultAction::Heal`] is applied.
    Partition(PartId, PartId),
    /// Undo a partition between the two nodes.
    Heal(PartId, PartId),
}

/// A scheduled change to the simulated network, applied between run slices
/// once at least `at` simulated time has elapsed since the run started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Elapsed simulated time (from run start) at which the action applies.
    pub at: Duration,
    /// What happens to the network.
    pub action: FaultAction,
}

impl FaultEvent {
    /// A partition of `a` and `b` scheduled at `at`.
    pub fn partition(at: Duration, a: PartId, b: PartId) -> Self {
        FaultEvent {
            at,
            action: FaultAction::Partition(a, b),
        }
    }

    /// A heal of `a` and `b` scheduled at `at`.
    pub fn heal(at: Duration, a: PartId, b: PartId) -> Self {
        FaultEvent {
            at,
            action: FaultAction::Heal(a, b),
        }
    }
}

/// Optional environment knobs for [`run_solution_with`], beyond the workload
/// parameters in [`RunParams`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Stop-and-wait reliability sub-layer between the protocol entities and
    /// the lower-level service. Honoured by [`Solution::ProtoCallback`] (the
    /// one stack assembled with a reliability sub-layer, ablation A3);
    /// ignored by every other solution.
    pub reliability: Option<ReliabilityConfig>,
    /// Fault campaign: partitions and heals applied mid-run. Events are
    /// applied in `at` order (ties keep their listed order).
    pub faults: Vec<FaultEvent>,
}

/// Everything measured about one solution run: completion, conformance,
/// service-level metrics and transport-level costs.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Which solution ran.
    pub solution: Solution,
    /// Whether the workload completed (every round granted and freed)
    /// within the time cap.
    pub completed: bool,
    /// Whether the recorded trace conforms to the floor-control service
    /// definition.
    pub conformant: bool,
    /// Number of conformance violations (0 when `conformant`).
    pub violations: usize,
    /// Service-level metrics (grants, latencies, fairness).
    pub floor: FloorMetrics,
    /// The recorded service-primitive trace.
    pub trace: Trace,
    /// Simulated time when the run stopped.
    pub end_time: Instant,
    /// Transport-level messages sent (including middleware-internal and
    /// token-circulation traffic).
    pub transport_messages: u64,
    /// Transport-level payload bytes sent.
    pub transport_bytes: u64,
    /// Coordination events handled by *application parts* (component
    /// dispatches/replies/deliveries in the middleware paradigm; `granted`
    /// indications in the protocol paradigm). Numerator of the Figure 7
    /// scattering metric.
    pub app_events: u64,
    /// Coordination events handled inside the *interaction system*
    /// (broker deliveries; PDUs processed by protocol entities).
    pub infra_events: u64,
}

impl RunOutcome {
    /// Fraction of coordination events handled by application parts —
    /// 1.0 means all interaction functionality is scattered across the
    /// application (Figure 7's middleware picture); small values mean the
    /// service provider absorbs it.
    pub fn scattering(&self) -> f64 {
        let total = self.app_events + self.infra_events;
        if total == 0 {
            return 0.0;
        }
        self.app_events as f64 / total as f64
    }

    /// Transport messages per grant, or 0 when nothing was granted.
    pub fn messages_per_grant(&self) -> f64 {
        if self.floor.grants() == 0 {
            return 0.0;
        }
        self.transport_messages as f64 / self.floor.grants() as f64
    }
}

enum Deployment {
    Middleware(MwSystem),
    Protocol(Stack),
}

impl Deployment {
    fn run_slice(&mut self, slice: Duration) -> SimReport {
        match self {
            Deployment::Middleware(system) => system
                .run_to_quiescence(slice)
                .expect("deployments always have nodes"),
            Deployment::Protocol(stack) => stack
                .run_to_quiescence(slice)
                .expect("deployments always have nodes"),
        }
    }

    fn apply_fault(&mut self, action: FaultAction) {
        match (self, action) {
            (Deployment::Middleware(system), FaultAction::Partition(a, b)) => {
                system.partition(a, b)
            }
            (Deployment::Middleware(system), FaultAction::Heal(a, b)) => system.heal(a, b),
            (Deployment::Protocol(stack), FaultAction::Partition(a, b)) => stack.partition(a, b),
            (Deployment::Protocol(stack), FaultAction::Heal(a, b)) => stack.heal(a, b),
        }
    }
}

/// Runs one solution under the given parameters until its workload
/// completes, the system quiesces, or the simulated-time cap is reached.
pub fn run_solution(solution: Solution, params: &RunParams) -> RunOutcome {
    run_solution_with(solution, params, &RunOptions::default())
}

/// [`run_solution`] with extra environment knobs: an optional reliability
/// sub-layer and a fault campaign (partition/heal schedule) driven through
/// the simulator between run slices.
pub fn run_solution_with(
    solution: Solution,
    params: &RunParams,
    options: &RunOptions,
) -> RunOutcome {
    let deployment = match solution {
        Solution::MwCallback => Deployment::Middleware(mw::callback::deploy(params)),
        Solution::MwPolling => Deployment::Middleware(mw::polling::deploy(params)),
        Solution::MwToken => Deployment::Middleware(mw::token::deploy(params)),
        Solution::MwQueue => Deployment::Middleware(mw::queue::deploy(params)),
        Solution::ProtoCallback => Deployment::Protocol(proto::callback::deploy_with_reliability(
            params,
            options.reliability,
        )),
        Solution::ProtoPolling => Deployment::Protocol(proto::polling::deploy(params)),
        Solution::ProtoToken => Deployment::Protocol(proto::token::deploy(params)),
    };
    run_deployment(deployment, solution, params, &options.faults)
}

/// Runs an already-assembled middleware deployment (e.g. an MDA-derived
/// platform-specific implementation) under the standard floor-control
/// harness. The `label` identifies which solution family the deployment
/// realizes, for reporting.
pub fn run_middleware_deployment(
    system: MwSystem,
    label: Solution,
    params: &RunParams,
) -> RunOutcome {
    run_deployment(Deployment::Middleware(system), label, params, &[])
}

/// [`run_middleware_deployment`] with a fault campaign applied mid-run.
pub fn run_middleware_deployment_with(
    system: MwSystem,
    label: Solution,
    params: &RunParams,
    faults: &[FaultEvent],
) -> RunOutcome {
    run_deployment(Deployment::Middleware(system), label, params, faults)
}

/// Running totals of the trace primitives the harness watches, and the
/// run's conformance monitor.
///
/// Slices advance the simulated clock monotonically, so a slice only ever
/// appends to the trace and earlier events never move. Tallying just the
/// events appended since the last slice keeps the totals exact, and the
/// monitor's verdict incremental, at O(new events) per slice.
#[derive(Debug)]
struct Tally {
    /// Length of the trace prefix already tallied.
    seen: usize,
    frees: u64,
    grants: u64,
    monitor: Monitor,
}

impl Tally {
    /// A tally whose monitor shares the interning tables of `gate`, when
    /// the gate checks against the same compiled floor-control tables;
    /// otherwise the monitor keeps its own.
    fn new(gate: Option<&Arc<AdmissionGate>>) -> Self {
        let compiled = floor_compiled();
        let monitor = match gate {
            Some(gate) if Arc::ptr_eq(&gate.compiled(), &compiled) => {
                Monitor::sharing(Arc::clone(gate))
            }
            _ => Monitor::new(compiled),
        };
        Tally {
            seen: 0,
            frees: 0,
            grants: 0,
            monitor,
        }
    }

    fn absorb(&mut self, trace: &Trace) {
        for event in &trace.events()[self.seen..] {
            match event.primitive() {
                "free" => self.frees += 1,
                "granted" => self.grants += 1,
                _ => {}
            }
            self.monitor
                .observe(event.sap(), event.primitive(), event.args());
        }
        self.seen = trace.len();
    }
}

fn run_deployment(
    mut deployment: Deployment,
    solution: Solution,
    params: &RunParams,
    faults: &[FaultEvent],
) -> RunOutcome {
    let expected_frees = params.expected_grants();
    let slice = Duration::from_millis(250);
    let mut schedule = faults.to_vec();
    schedule.sort_by_key(|f| f.at); // stable: equal times keep listed order
    let mut next_fault = 0usize;
    let mut elapsed = Duration::ZERO;
    let gate = match &deployment {
        Deployment::Middleware(system) => system.admission_gate(),
        Deployment::Protocol(_) => None,
    };
    let mut tally = Tally::new(gate);
    // Each slice's report is dropped before the next slice runs: a report
    // still holding the simulator's copy-on-write trace would make the next
    // append deep-copy the whole trace.
    let report = loop {
        while next_fault < schedule.len() && schedule[next_fault].at <= elapsed {
            deployment.apply_fault(schedule[next_fault].action);
            next_fault += 1;
        }
        // Never run past the next scheduled fault: the slice shrinks so the
        // fault lands at (simulated) schedule time, not at a 250 ms boundary.
        let step = match schedule.get(next_fault) {
            Some(f) => slice.min(Duration::from_micros(
                f.at.as_micros() - elapsed.as_micros(),
            )),
            None => slice,
        };
        let report = deployment.run_slice(step);
        elapsed += step;
        tally.absorb(report.trace());
        if tally.frees >= expected_frees || report.is_quiescent() || elapsed >= params.cap() {
            break report;
        }
    };
    debug_assert_eq!(tally.frees, report.trace().count_of("free") as u64);
    debug_assert_eq!(tally.grants, report.trace().count_of("granted") as u64);

    let (app_events, infra_events) = match &deployment {
        Deployment::Middleware(system) => {
            let totals = system.total_counters();
            let broker = system.broker_counters().unwrap_or_default();
            let app = totals.dispatches + totals.replies + totals.deliveries - broker.deliveries;
            (app, broker.deliveries)
        }
        Deployment::Protocol(stack) => (tally.grants, stack.total_counters().pdus_received),
    };
    // The simulator shares the trace with the report; once it is gone the
    // trace moves into the outcome without a copy.
    drop(deployment);
    let end_time = report.end_time();
    let transport_messages = report.metrics().messages_sent();
    let transport_bytes = report.metrics().bytes_sent();
    let trace = report.into_trace();

    let completed = tally.frees >= expected_frees;
    let (conformant, violations) = verdict(&tally.monitor, &trace, completed);

    RunOutcome {
        solution,
        completed,
        conformant,
        violations,
        floor: FloorMetrics::from_trace(&trace),
        trace,
        end_time,
        transport_messages,
        transport_bytes,
        app_events,
        infra_events,
    }
}

/// The run's `(conformant, violations)` verdict. A clean monitor settles
/// it without re-reading the trace; only a flagged run pays for
/// [`check_trace`], which supplies the exact violation list (and stays
/// authoritative past the monitor's compiled obligation bound). Debug
/// builds check every run both ways.
fn verdict(monitor: &Monitor, trace: &Trace, completed: bool) -> (bool, usize) {
    debug_assert_eq!(monitor.events(), trace.len());
    let clean = monitor.is_clean(completed);
    if clean && !cfg!(debug_assertions) {
        return (true, 0);
    }
    let options = CheckOptions {
        // Incomplete runs were cut off mid-flight; outstanding requests are
        // pending, not wrong.
        allow_pending_liveness: !completed,
    };
    let report = check_trace(floor_compiled().service(), trace, &options);
    debug_assert!(!clean || report.is_conformant(), "clean monitor, {report}");
    debug_assert!(
        clean || !report.is_conformant() || monitor.hit_bound(),
        "monitor flagged a conformant trace below its bound"
    );
    (report.is_conformant(), report.violations().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::floor_control_service;
    use svckit_netsim::DeterministicRng;

    fn small() -> RunParams {
        RunParams::default().subscribers(3).resources(2).rounds(2)
    }

    #[test]
    fn all_six_solutions_complete_and_conform() {
        for solution in Solution::ALL {
            let outcome = run_solution(solution, &small());
            assert!(outcome.completed, "{solution} did not complete");
            assert!(
                outcome.conformant,
                "{solution} violated the service ({} violations)",
                outcome.violations
            );
            assert_eq!(outcome.floor.grants(), 6, "{solution}");
            assert_eq!(outcome.floor.frees(), 6, "{solution}");
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_outcome() {
        let a = run_solution(Solution::MwCallback, &small());
        let b = run_solution(Solution::MwCallback, &small());
        assert_eq!(a.transport_messages, b.transport_messages);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn middleware_scatters_interaction_functionality_protocol_does_not() {
        let mw = run_solution(Solution::MwPolling, &small());
        let proto = run_solution(Solution::ProtoPolling, &small());
        assert!(
            mw.scattering() > 0.9,
            "middleware scattering {}",
            mw.scattering()
        );
        assert!(
            proto.scattering() < 0.5,
            "protocol scattering {}",
            proto.scattering()
        );
    }

    #[test]
    fn partition_heal_campaign_recovers_with_reliability() {
        // Partition a subscriber from the controller mid-run; the
        // stop-and-wait sub-layer retransmits through the outage, so after
        // heal the workload completes and the trace still conforms.
        let params = small().time_cap(Duration::from_secs(120));
        let options = RunOptions {
            reliability: Some(ReliabilityConfig::new(Duration::from_millis(8))),
            faults: vec![
                FaultEvent::partition(
                    Duration::from_millis(3),
                    crate::proto::subscriber_part(1),
                    crate::proto::controller_part(),
                ),
                FaultEvent::heal(
                    Duration::from_millis(9),
                    crate::proto::subscriber_part(1),
                    crate::proto::controller_part(),
                ),
            ],
        };
        let outcome = run_solution_with(Solution::ProtoCallback, &params, &options);
        assert!(outcome.completed, "heal should let the run finish");
        assert!(outcome.conformant, "{} violations", outcome.violations);
        assert_eq!(outcome.floor.grants(), 6);
    }

    #[test]
    fn unhealed_partition_stays_safe() {
        // Without a reliability sub-layer a partition stalls the affected
        // subscriber; the run is cut off incomplete but must stay free of
        // safety violations.
        let params = small();
        let options = RunOptions {
            reliability: None,
            faults: vec![FaultEvent::partition(
                Duration::from_millis(2),
                crate::mw::subscriber_part(1),
                crate::mw::controller_part(),
            )],
        };
        let outcome = run_solution_with(Solution::MwCallback, &params, &options);
        assert!(!outcome.completed);
        assert!(outcome.conformant, "{} violations", outcome.violations);
    }

    #[test]
    fn fault_campaign_is_deterministic() {
        let params = small();
        let options = RunOptions {
            reliability: Some(ReliabilityConfig::new(Duration::from_millis(8))),
            faults: vec![
                FaultEvent::partition(
                    Duration::from_millis(3),
                    crate::proto::subscriber_part(2),
                    crate::proto::controller_part(),
                ),
                FaultEvent::heal(
                    Duration::from_millis(7),
                    crate::proto::subscriber_part(2),
                    crate::proto::controller_part(),
                ),
            ],
        };
        let a = run_solution_with(Solution::ProtoCallback, &params, &options);
        let b = run_solution_with(Solution::ProtoCallback, &params, &options);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.transport_messages, b.transport_messages);
    }

    #[test]
    fn running_tallies_match_a_full_rescan_under_random_faults() {
        // Seeded partition/heal campaigns shrink and multiply the run
        // slices; the per-slice tallies must still agree with a rescan of
        // the final trace.
        for seed in 1..=6u64 {
            let params = small().seed(seed).time_cap(Duration::from_secs(2));
            let mut rng = DeterministicRng::new(seed);
            let mut faults = Vec::new();
            for _ in 0..3 {
                let k = 1 + rng.next_below(3);
                let a = crate::proto::subscriber_part(k);
                let b = if rng.coin(0.5) {
                    crate::proto::controller_part()
                } else {
                    crate::proto::subscriber_part(1 + k % 3)
                };
                let cut = rng.next_below(8_000);
                faults.push(FaultEvent::partition(Duration::from_micros(cut), a, b));
                if rng.coin(0.75) {
                    let heal = cut + 1_000 + rng.next_below(700_000);
                    faults.push(FaultEvent::heal(Duration::from_micros(heal), a, b));
                }
            }
            let options = RunOptions {
                reliability: Some(ReliabilityConfig::new(Duration::from_millis(8))),
                faults,
            };
            for solution in Solution::ALL {
                let outcome = run_solution_with(solution, &params, &options);
                let frees = outcome.trace.count_of("free") as u64;
                assert_eq!(
                    outcome.completed,
                    frees >= params.expected_grants(),
                    "{solution} seed {seed}"
                );
                if !solution.is_middleware() {
                    assert_eq!(
                        outcome.app_events,
                        outcome.trace.count_of("granted") as u64,
                        "{solution} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_monitor_verdict_matches_check_trace_on_clean_and_broken_traces() {
        let service = floor_control_service();
        let outcome = run_solution(Solution::MwCallback, &small());
        // Drop the first `free`: its holder never releases, so the next
        // grant of that resource breaks mutual exclusion and the
        // unanswered grant breaks liveness.
        let events = outcome.trace.events();
        let first_free = events
            .iter()
            .position(|e| e.primitive() == "free")
            .expect("a completed run frees");
        let broken: Trace = events
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != first_free)
            .map(|(_, e)| e.clone())
            .collect();
        // Both monitor kinds: its own tables, and a fresh gate's.
        let gate = crate::mw::admission_gate();
        for ((trace, conformant), gate) in [(&outcome.trace, true), (&broken, false)]
            .into_iter()
            .flat_map(|case| [(case, None), (case, Some(&gate))])
        {
            // Two slices' worth of absorbing, as the run loop does.
            let mut tally = Tally::new(gate);
            let half: Trace = trace.events()[..trace.len() / 2].iter().cloned().collect();
            tally.absorb(&half);
            tally.absorb(trace);
            for completed in [false, true] {
                let options = CheckOptions {
                    allow_pending_liveness: !completed,
                };
                let report = check_trace(&service, trace, &options);
                assert_eq!(report.is_conformant(), conformant);
                assert_eq!(
                    verdict(&tally.monitor, trace, completed),
                    (conformant, report.violations().len()),
                    "completed={completed}"
                );
            }
        }
    }

    #[test]
    fn token_solutions_cost_more_transport_than_callback() {
        let params = small();
        let callback = run_solution(Solution::ProtoCallback, &params);
        let token = run_solution(Solution::ProtoToken, &params);
        assert!(
            token.transport_messages > callback.transport_messages,
            "token {} vs callback {}",
            token.transport_messages,
            callback.transport_messages
        );
    }
}
