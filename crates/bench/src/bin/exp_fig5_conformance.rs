//! E3 (Figure 5): the floor-control service definition as an executable
//! artefact — every solution's trace checked against it, plus negative
//! controls showing the checker rejects broken behaviour.

use std::time::Instant as WallInstant;

use svckit::floorctl::{floor_control_service, run_solution, RunParams, Solution};
use svckit::model::conformance::{check_trace, CheckOptions};
use svckit::model::{Instant, PartId, PrimitiveEvent, Sap, Trace, Value};
use svckit_bench::{print_header, print_row};
use svckit_sweep::{check_flags, fail, outln};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, &[], &[]).unwrap_or_else(|e| fail(&e));
    outln!("E3 — service definition and conformance (Figure 5)\n");
    let service = floor_control_service();
    outln!("service `{}`:", service.name());
    for p in service.primitives() {
        outln!("  {p}");
    }
    for c in service.constraints() {
        outln!("  {c}");
    }
    outln!();

    let params = RunParams::default()
        .subscribers(6)
        .resources(2)
        .rounds(4)
        .seed(5);
    let widths = [16, 9, 9, 12, 12];
    print_header(
        &["solution", "events", "conforms", "violations", "check-time"],
        &widths,
    );
    for solution in Solution::ALL {
        let outcome = run_solution(solution, &params);
        let t0 = WallInstant::now();
        let report = check_trace(&service, &outcome.trace, &CheckOptions::default());
        let elapsed = t0.elapsed();
        print_row(
            &[
                solution.to_string(),
                outcome.trace.len().to_string(),
                report.is_conformant().to_string(),
                report.violations().len().to_string(),
                format!("{}us", elapsed.as_micros()),
            ],
            &widths,
        );
        assert!(report.is_conformant(), "{solution}");
    }

    outln!("\nnegative controls:");
    let sap = |k| Sap::new("subscriber", PartId::new(k));
    let ev = |t, k, p: &str, r| {
        PrimitiveEvent::new(Instant::from_micros(t), sap(k), p, vec![Value::Id(r)])
    };
    let cases: Vec<(&str, Trace)> = vec![
        (
            "double grant",
            [
                ev(1, 1, "request", 1),
                ev(2, 2, "request", 1),
                ev(3, 1, "granted", 1),
                ev(4, 2, "granted", 1),
            ]
            .into_iter()
            .collect(),
        ),
        (
            "free before grant",
            [ev(1, 1, "free", 1)].into_iter().collect(),
        ),
        (
            "grant without request",
            [ev(1, 1, "granted", 1)].into_iter().collect(),
        ),
        (
            "unanswered request",
            [ev(1, 1, "request", 1)].into_iter().collect(),
        ),
    ];
    for (name, trace) in cases {
        let report = check_trace(&service, &trace, &CheckOptions::default());
        outln!(
            "  {name:<22} -> {} violation(s): {}",
            report.violations().len(),
            report
                .violations()
                .first()
                .map(|v| v.message().to_owned())
                .unwrap_or_default()
        );
        assert!(!report.is_conformant(), "{name} should be rejected");
    }
}
