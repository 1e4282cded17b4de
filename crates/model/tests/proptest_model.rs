//! Property-based tests of the conformance checker: totality on arbitrary
//! traces, and soundness on constructively-built conformant traces.

use proptest::prelude::*;

use svckit_model::conformance::{check_trace, CheckOptions};
use svckit_model::{
    Constraint, ConstraintScope, Direction, Instant, PartId, PrimitiveEvent, PrimitiveSpec, Sap,
    ServiceDefinition, Trace, Value,
};

fn floor_control() -> ServiceDefinition {
    ServiceDefinition::builder("floor-control")
        .role("subscriber", 2, usize::MAX)
        .primitive(PrimitiveSpec::new("request", Direction::FromUser).param_id("resid"))
        .primitive(PrimitiveSpec::new("granted", Direction::ToUser).param_id("resid"))
        .primitive(PrimitiveSpec::new("free", Direction::FromUser).param_id("resid"))
        .constraint(
            Constraint::eventually_follows("request", "granted", ConstraintScope::SameSap)
                .keyed(&[0]),
        )
        .constraint(
            Constraint::precedes("request", "granted", ConstraintScope::SameSap).keyed(&[0]),
        )
        .constraint(Constraint::precedes("granted", "free", ConstraintScope::SameSap).keyed(&[0]))
        .constraint(Constraint::mutual_exclusion("granted", "free").keyed(&[0]))
        .build()
        .unwrap()
}

fn arb_event() -> impl Strategy<Value = PrimitiveEvent> {
    (
        0u64..10_000,
        1u64..5,
        prop_oneof![
            Just("request"),
            Just("granted"),
            Just("free"),
            Just("bogus")
        ],
        1u64..4,
    )
        .prop_map(|(t, part, primitive, res)| {
            PrimitiveEvent::new(
                Instant::from_micros(t),
                Sap::new("subscriber", PartId::new(part)),
                primitive,
                vec![Value::Id(res)],
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The checker never panics, whatever the trace.
    #[test]
    fn checker_is_total(events in proptest::collection::vec(arb_event(), 0..60)) {
        let mut trace: Trace = events.into_iter().collect();
        trace.sort_by_time();
        let service = floor_control();
        let _ = check_trace(&service, &trace, &CheckOptions::default());
        let _ = check_trace(
            &service,
            &trace,
            &CheckOptions { allow_pending_liveness: true },
        );
    }

    /// Serialized round-robin usage of one resource is always conformant,
    /// for any number of subscribers and rounds.
    #[test]
    fn serialized_rounds_always_conform(subs in 2u64..6, rounds in 1u32..5) {
        let service = floor_control();
        let mut trace = Trace::new();
        let mut t = 0u64;
        for _ in 0..rounds {
            for s in 1..=subs {
                let sap = Sap::new("subscriber", PartId::new(s));
                for primitive in ["request", "granted", "free"] {
                    t += 1;
                    trace.push(PrimitiveEvent::new(
                        Instant::from_micros(t),
                        sap.clone(),
                        primitive,
                        vec![Value::Id(1)],
                    ));
                }
            }
        }
        let report = check_trace(&service, &trace, &CheckOptions::default());
        prop_assert!(report.is_conformant(), "{report}");
    }

    /// Inserting one overlapping grant into a serialized trace always
    /// breaks conformance.
    #[test]
    fn overlapping_grant_always_violates(subs in 2u64..6) {
        let service = floor_control();
        let mut trace = Trace::new();
        let sap = |k| Sap::new("subscriber", PartId::new(k));
        // sub 1 requests and is granted…
        trace.push(PrimitiveEvent::new(Instant::from_micros(1), sap(1), "request", vec![Value::Id(1)]));
        trace.push(PrimitiveEvent::new(Instant::from_micros(2), sap(1), "granted", vec![Value::Id(1)]));
        // …then some other subscriber is granted the same resource while held.
        trace.push(PrimitiveEvent::new(Instant::from_micros(3), sap(subs), "request", vec![Value::Id(1)]));
        trace.push(PrimitiveEvent::new(Instant::from_micros(4), sap(subs), "granted", vec![Value::Id(1)]));
        trace.push(PrimitiveEvent::new(Instant::from_micros(5), sap(1), "free", vec![Value::Id(1)]));
        trace.push(PrimitiveEvent::new(Instant::from_micros(6), sap(subs), "free", vec![Value::Id(1)]));
        let report = check_trace(&service, &trace, &CheckOptions::default());
        prop_assert!(!report.is_conformant());
    }

    /// Violation indices always point into the trace.
    #[test]
    fn violation_indices_are_in_bounds(events in proptest::collection::vec(arb_event(), 0..60)) {
        let mut trace: Trace = events.into_iter().collect();
        trace.sort_by_time();
        let report = check_trace(&floor_control(), &trace, &CheckOptions::default());
        for violation in report.violations() {
            if let Some(index) = violation.event_index() {
                prop_assert!(index < trace.len());
            }
        }
    }
}
