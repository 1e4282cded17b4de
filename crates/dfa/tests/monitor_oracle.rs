//! Property-based oracle for the conformance monitor: for random services
//! and random traces — including occurrences of unknown primitives, with
//! the wrong arity or argument type, and at access points of undeclared
//! roles — the online [`Monitor`] must agree with the post-hoc
//! `check_trace`:
//!
//! 1. a clean monitor means `check_trace` finds the trace conformant;
//! 2. below the compiled obligation bound, the monitor is clean exactly
//!    when `check_trace` reports no violation;
//! 3. the monitor's first violation is the earliest safety (non-liveness)
//!    violation `check_trace` reports.
//!
//! Traces stay shorter than [`ADMISSION_BOUND`], so no counter can reach
//! the bound and all three properties must hold on every case. A monitor
//! sharing an admission gate's tables must reach the same verdict as one
//! with its own, even when the gate interned the occurrences in another
//! order.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::{arb_constraint, service, NAMES};
use svckit_dfa::{AdmissionGate, Compiled, Engine, Monitor, ADMISSION_BOUND};
use svckit_model::conformance::{check_trace, CheckOptions};
use svckit_model::{Instant, PartId, PrimitiveEvent, Sap, ServiceDefinition, Trace, Value};

/// One occurrence from raw draws: mostly well-formed, sometimes at an
/// undeclared role, of an unknown primitive, or with bad arguments — but
/// always well-formed when `schema_faults` is off, so that half the cases
/// exercise the constraints alone.
fn event(i: usize, (s, p, a): (u64, usize, u64), schema_faults: bool) -> PrimitiveEvent {
    let (s, p, a) = if schema_faults {
        (s, p, a)
    } else {
        (s % 6, p % 7, a % 7)
    };
    let sap = match s {
        0..=5 => Sap::new("user", PartId::new(1 + s % 2)),
        _ => Sap::new("admin", PartId::new(1)),
    };
    let primitive = match p {
        0..=6 => NAMES[p % NAMES.len()],
        _ => "zz",
    };
    let args = match a {
        0..=6 => vec![Value::Id(1 + a % 2)],
        7 => Vec::new(),
        _ => vec![Value::Bool(true)],
    };
    PrimitiveEvent::new(Instant::from_micros(i as u64), sap, primitive, args)
}

/// A monitor over the whole trace: with its own tables, or sharing those
/// of a gate that first admitted the trace backwards.
fn monitor_over(svc: &ServiceDefinition, trace: &Trace, shared: bool) -> Monitor {
    let compiled = Arc::new(Compiled::compile(svc, ADMISSION_BOUND).expect("known kinds compile"));
    let mut monitor = if shared {
        let gate = AdmissionGate::with_compiled(compiled, Engine::Dfa);
        for e in trace.events().iter().rev() {
            gate.admit(e.sap(), e.primitive(), e.args());
        }
        Monitor::sharing(Arc::new(gate))
    } else {
        Monitor::new(compiled)
    };
    for e in trace {
        monitor.observe(e.sap(), e.primitive(), e.args());
    }
    monitor
}

fn check(svc: &ServiceDefinition, trace: &Trace, complete: bool) -> usize {
    let options = CheckOptions {
        allow_pending_liveness: !complete,
    };
    check_trace(svc, trace, &options).violations().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_monitor_agrees_with_check_trace(
        constraints in proptest::collection::vec(arb_constraint(), 1..5),
        draws in proptest::collection::vec((0u64..7, 0usize..8, 0u64..9), 1..60),
        schema_faults in any::<bool>(),
    ) {
        let Some(svc) = service(&constraints) else { return; };
        let trace: Trace = draws
            .iter()
            .enumerate()
            .map(|(i, &d)| event(i, d, schema_faults))
            .collect();
        let monitor = monitor_over(&svc, &trace, false);
        let shared = monitor_over(&svc, &trace, true);
        prop_assert_eq!(monitor.events(), trace.len());
        prop_assert!(!monitor.hit_bound(), "traces stay below the bound");
        for complete in [false, true] {
            let violations = check(&svc, &trace, complete);
            // (1) and (2): clean exactly when conformant.
            prop_assert_eq!(
                monitor.is_clean(complete),
                violations == 0,
                "complete={} violations={}",
                complete,
                violations
            );
            prop_assert_eq!(shared.is_clean(complete), violations == 0);
        }
        // (3): with liveness left pending, only safety violations remain.
        let safety = check_trace(
            &svc,
            &trace,
            &CheckOptions {
                allow_pending_liveness: true,
            },
        );
        let earliest = safety.violations().iter().filter_map(|v| v.event_index()).min();
        prop_assert_eq!(monitor.first_violation(), earliest);
        prop_assert_eq!(shared.first_violation(), earliest);
    }
}
