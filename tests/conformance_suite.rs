//! Integration: the formal side — trace conformance, the constraint
//! automaton, LTS refinement, and property-based tests that the checker
//! accepts exactly the right traces.

use proptest::prelude::*;

use svckit::floorctl::{
    floor_control_service, floor_event_universe, run_solution, RunParams, Solution,
};
use svckit::lts::explorer::{AbstractEvent, ServiceExplorer};
use svckit::lts::LtsBuilder;
use svckit::model::conformance::{check_trace, CheckOptions};
use svckit::model::{Instant, PartId, PrimitiveEvent, Sap, Trace, Value};

fn sap(k: u64) -> Sap {
    Sap::new("subscriber", PartId::new(k))
}

fn ev(t: u64, k: u64, primitive: &str, res: u64) -> PrimitiveEvent {
    PrimitiveEvent::new(
        Instant::from_micros(t),
        sap(k),
        primitive,
        vec![Value::Id(res)],
    )
}

#[test]
fn mutating_a_real_trace_breaks_conformance() {
    // Take a genuinely conformant execution and inject a second `granted`
    // for a held resource: the checker must catch exactly that.
    let outcome = run_solution(
        Solution::ProtoCallback,
        &RunParams::default().subscribers(3).resources(1).rounds(2),
    );
    assert!(outcome.conformant);
    let service = floor_control_service();

    let mut sabotaged = Trace::new();
    let mut injected = false;
    for event in outcome.trace.events() {
        sabotaged.push(event.clone());
        if !injected && event.primitive() == "granted" {
            // Duplicate grant at a different access point.
            let other = if event.sap().part() == PartId::new(1) {
                2
            } else {
                1
            };
            sabotaged.push(PrimitiveEvent::new(
                event.time(),
                sap(other),
                "granted",
                event.args().to_vec(),
            ));
            injected = true;
        }
    }
    assert!(injected);
    let report = check_trace(&service, &sabotaged, &CheckOptions::default());
    assert!(!report.is_conformant());
    assert!(report
        .violations()
        .iter()
        .any(|v| v.message().contains("already held")));
}

#[test]
fn dropping_a_free_is_caught_as_unfulfilled_liveness() {
    let outcome = run_solution(
        Solution::MwCallback,
        &RunParams::default().subscribers(3).resources(1).rounds(2),
    );
    let service = floor_control_service();
    let truncated: Trace = outcome
        .trace
        .events()
        .iter()
        .filter(|e| {
            // Remove the last free.
            !(e.primitive() == "free"
                && outcome
                    .trace
                    .events()
                    .iter()
                    .rfind(|x| x.primitive() == "free")
                    .map(|last| last == *e)
                    .unwrap_or(false))
        })
        .cloned()
        .collect();
    let report = check_trace(&service, &truncated, &CheckOptions::default());
    assert!(!report.is_conformant());
    assert!(report
        .violations()
        .iter()
        .any(|v| v.message().contains("never followed")));
}

#[test]
fn explorer_accepts_every_solution_trace_as_a_path() {
    // Each recorded trace must be a path through the service's constraint
    // automaton (the state-space view of conformance).
    let service = floor_control_service();
    let params = RunParams::default().subscribers(3).resources(2).rounds(2);
    let universe = floor_event_universe(3, 2);
    let explorer = ServiceExplorer::new(&service, universe, 8);
    for solution in Solution::ALL {
        let outcome = run_solution(solution, &params);
        let mut state = explorer.initial_state();
        for event in outcome.trace.events() {
            let abstract_event = AbstractEvent::new(
                event.sap().clone(),
                event.primitive(),
                event.args().to_vec(),
            );
            state = explorer
                .step(&state, &abstract_event)
                .unwrap_or_else(|v| panic!("{solution}: {v} at {event}"));
        }
        assert!(state.is_quiescent(&explorer), "{solution} left obligations");
    }
}

/// Runs `solution` on `shards` simulator shards and fingerprints
/// everything the conformance machinery consumes: the recorded
/// service-primitive trace plus the run's floor metrics, via their debug
/// rendering.
fn solution_fingerprint(solution: Solution, shards: u32) -> String {
    let params = RunParams::default()
        .subscribers(3)
        .resources(2)
        .rounds(2)
        .shards(shards);
    let outcome = run_solution(solution, &params);
    assert!(outcome.conformant, "{solution} must stay conformant");
    format!("{:?} {:?}", outcome.trace, outcome.floor)
}

#[test]
fn every_solution_trace_is_shard_count_invariant() {
    // One parametrized check per solution: two and four shards draw link
    // randomness from the same per-pair streams, so even on the default
    // jittered LAN they must yield byte-identical traces and metrics.
    for solution in Solution::ALL {
        assert_eq!(
            solution_fingerprint(solution, 2),
            solution_fingerprint(solution, 4),
            "{solution} diverged between shard counts"
        );
    }
}

#[test]
fn bad_implementation_lts_is_rejected_with_counterexample() {
    let service = floor_control_service();
    let universe = floor_event_universe(2, 1);
    let explorer = ServiceExplorer::new(&service, universe, 2);

    // An implementation that grants without request and to two holders.
    let mut b = LtsBuilder::new();
    let s0 = b.add_state("s0");
    let s1 = b.add_state("s1");
    let s2 = b.add_state("s2");
    let grant = |k: u64| AbstractEvent::new(sap(k), "granted", vec![Value::Id(1)]);
    let request = |k: u64| AbstractEvent::new(sap(k), "request", vec![Value::Id(1)]);
    b.add_transition(s0, request(1), s1);
    b.add_transition(s1, grant(1), s2);
    b.add_transition(s2, grant(2), s2); // double grant, no request
    let implementation = b.build(s0);

    let err = explorer.verify_lts(&implementation).unwrap_err();
    assert_eq!(err.trace().len(), 3);
    let text = err.to_string();
    assert!(text.contains("granted"), "{text}");
}

proptest! {
    /// Any prefix of events produced by walking the explorer's `allowed`
    /// sets is conformant as a trace: the automaton and the trace checker
    /// agree on the safety fragment.
    #[test]
    fn explorer_paths_are_checker_safe(choices in proptest::collection::vec(0usize..64, 0..40)) {
        let service = floor_control_service();
        let universe = floor_event_universe(2, 2);
        let explorer = ServiceExplorer::new(&service, universe, 2);
        let mut state = explorer.initial_state();
        let mut trace = Trace::new();
        let mut t = 0;
        for pick in choices {
            let allowed = explorer.allowed(&state);
            if allowed.is_empty() {
                break;
            }
            let event = allowed[pick % allowed.len()].clone();
            state = explorer.step(&state, &event).expect("allowed events step");
            t += 1;
            trace.push(PrimitiveEvent::new(
                Instant::from_micros(t),
                event.sap.clone(),
                event.primitive.clone(),
                event.args.clone(),
            ));
        }
        let options = CheckOptions { allow_pending_liveness: true };
        let report = check_trace(&service, &trace, &options);
        prop_assert!(report.is_conformant(), "{report}");
    }

    /// Shuffling grants onto the wrong access point is always caught.
    #[test]
    fn misdirected_grants_are_rejected(res in 1u64..3, thief in 2u64..4) {
        let service = floor_control_service();
        let trace: Trace = [
            ev(1, 1, "request", res),
            ev(2, thief, "granted", res), // grant at a sap that never asked
        ]
        .into_iter()
        .collect();
        let options = CheckOptions { allow_pending_liveness: true };
        let report = check_trace(&service, &trace, &options);
        prop_assert!(!report.is_conformant());
    }
}
