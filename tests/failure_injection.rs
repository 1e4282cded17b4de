//! Integration: failure injection — temporary network partitions between a
//! subscriber and the controller, with and without a reliability sub-layer
//! under the protocol entities.

use svckit::floorctl::proto::{callback, controller_part, subscriber_part};
use svckit::floorctl::{floor_control_service, FloorMetrics, RunParams};
use svckit::model::conformance::{check_trace, CheckOptions};
use svckit::model::Duration;
use svckit::netsim::LinkConfig;
use svckit::protocol::ReliabilityConfig;

fn params() -> RunParams {
    RunParams::default()
        .subscribers(3)
        .resources(2)
        .rounds(3)
        // A datagram link: what the reliability layer is for.
        .link(LinkConfig::reliable_datagram(
            Duration::from_millis(1),
            Duration::from_micros(100),
        ))
        .seed(41)
}

#[test]
fn reliability_layer_rides_out_a_partition() {
    let p = params();
    let mut stack = callback::deploy_with_reliability(
        &p,
        Some(ReliabilityConfig::new(Duration::from_millis(10))),
    );

    // Let the system make some progress…
    let r1 = stack.run_to_quiescence(Duration::from_millis(20)).unwrap();
    let grants_before = r1.trace().count_of("granted");
    // Each report is dropped before the next slice, so the simulator keeps
    // appending to its trace in place instead of copying it.
    drop(r1);

    // …then cut subscriber 1 off from the controller for a while.
    stack.partition(subscriber_part(1), controller_part());
    let r2 = stack.run_to_quiescence(Duration::from_millis(100)).unwrap();
    // The cut produced drops; retransmissions are piling up.
    assert!(r2.metrics().messages_dropped() > 0);
    drop(r2);

    // Heal and finish: every round completes and the trace conforms.
    stack.heal(subscriber_part(1), controller_part());
    let mut report = stack.run_to_quiescence(Duration::from_secs(60)).unwrap();
    for _ in 0..10 {
        if report.is_quiescent() {
            break;
        }
        drop(report);
        report = stack.run_to_quiescence(Duration::from_secs(60)).unwrap();
    }
    assert!(report.is_quiescent());
    let metrics = FloorMetrics::from_trace(report.trace());
    assert_eq!(metrics.grants(), 9, "all rounds served after healing");
    assert_eq!(metrics.frees(), 9);
    assert!(metrics.grants() as usize >= grants_before);
    assert!(stack.total_counters().retransmissions > 0);

    let check = check_trace(
        &floor_control_service(),
        report.trace(),
        &CheckOptions::default(),
    );
    assert!(check.is_conformant(), "{check}");
}

#[test]
fn without_reliability_a_partition_loses_work() {
    let p = params();
    let mut stack = callback::deploy_with_reliability(&p, None);

    let _ = stack.run_to_quiescence(Duration::from_millis(5)).unwrap();
    stack.partition(subscriber_part(1), controller_part());
    let _ = stack.run_to_quiescence(Duration::from_millis(100)).unwrap();
    stack.heal(subscriber_part(1), controller_part());
    let report = stack.run_to_quiescence(Duration::from_secs(60)).unwrap();

    // Messages were dropped on the floor, so some rounds can never finish:
    // the subscriber is still waiting for a grant that was lost.
    let metrics = FloorMetrics::from_trace(report.trace());
    assert!(
        metrics.grants() < 9,
        "expected lost work, got {} grants",
        metrics.grants()
    );

    // The safety constraints still hold — nothing *wrong* happened, work
    // just stalled. Only liveness is pending.
    let options = CheckOptions {
        allow_pending_liveness: true,
    };
    let check = check_trace(&floor_control_service(), report.trace(), &options);
    assert!(check.is_conformant(), "{check}");
    assert!(check.pending_obligations() > 0);
}
