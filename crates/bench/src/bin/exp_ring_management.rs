//! E11 (extension): the ring management functionality the paper sets aside
//! ("we assume the set of subscribers is known a priori, so that we can
//! ignore ring management functionality"), implemented and measured.
//!
//! Subscribers join a running token ring, are served, and leave — all
//! below the service boundary; the floor-control service definition never
//! changes.

use svckit::floorctl::proto::subscriber_part;
use svckit::floorctl::proto::token_dynamic::{deploy, DynamicRingConfig};
use svckit::floorctl::{floor_control_service, FloorMetrics, RunParams};
use svckit::model::conformance::{check_trace, CheckOptions};
use svckit::model::Duration;
use svckit_bench::{print_header, print_row};
use svckit_sweep::{check_flags, fail, outln};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, &[], &[]).unwrap_or_else(|e| fail(&e));
    outln!("E11 — token-ring membership management (extension of Figure 6 (c))\n");
    let widths = [9, 8, 8, 8, 11, 11];
    print_header(
        &[
            "founders", "joiners", "grants", "conforms", "mean-lat", "pdu-msgs",
        ],
        &widths,
    );

    for (founders, joiners) in [(2u64, 0u64), (2, 2), (2, 4), (4, 4), (4, 8)] {
        let params = RunParams::default()
            .subscribers(founders)
            .resources(2)
            .rounds(2)
            .seed(60 + founders + joiners);
        let config = DynamicRingConfig {
            founders,
            joiners,
            join_delay: Duration::from_millis(3),
            joiner_rounds: 2,
        };
        let mut stack = deploy(&params, &config);
        let expected = founders * 2 + joiners * 2;
        let mut report = stack.run_to_quiescence(Duration::from_millis(50)).unwrap();
        for _ in 0..600 {
            if report.trace().count_of("free") as u64 >= expected {
                break;
            }
            // Drop the old report first so the next slice appends to the
            // trace in place instead of copying it.
            drop(report);
            report = stack.run_to_quiescence(Duration::from_millis(50)).unwrap();
        }
        let metrics = FloorMetrics::from_trace(report.trace());
        let check = check_trace(
            &floor_control_service(),
            report.trace(),
            &CheckOptions::default(),
        );
        assert_eq!(metrics.grants(), expected, "{founders}+{joiners}");
        assert!(check.is_conformant(), "{check}");
        // Every joiner was actually served at its own access point.
        for j in 1..=joiners {
            let sap = svckit::model::Sap::new("subscriber", subscriber_part(founders + j));
            let served = report
                .trace()
                .events()
                .iter()
                .filter(|e| e.primitive() == "granted" && e.sap() == &sap)
                .count();
            assert_eq!(served, 2, "joiner {j} of {founders}+{joiners}");
        }
        print_row(
            &[
                founders.to_string(),
                joiners.to_string(),
                metrics.grants().to_string(),
                check.is_conformant().to_string(),
                metrics.mean_latency().to_string(),
                stack.total_counters().pdus_sent.to_string(),
            ],
            &widths,
        );
    }
    outln!();
    outln!("Every configuration serves all founders and joiners and conforms to");
    outln!("the unchanged service definition: membership churn is absorbed by");
    outln!("the interaction system, invisible at the access points.");
}
