//! Golden tests for the sweep subsystem's central promise: parallel
//! execution changes wall-clock time only, never a single output byte —
//! and fault campaigns behave deterministically and idempotently.

use svckit::floorctl::{FaultEvent, RunParams, Solution};
use svckit::model::Duration;
use svckit::protocol::ReliabilityConfig;
use svckit_sweep::{run_sweep, SweepSpec};

fn proto_sub(k: u64) -> svckit::model::PartId {
    svckit::floorctl::proto::subscriber_part(k)
}

fn proto_ctl() -> svckit::model::PartId {
    svckit::floorctl::proto::controller_part()
}

#[test]
fn four_thread_sweep_json_is_byte_identical_to_serial() {
    let spec = SweepSpec::new("golden")
        .solutions([
            Solution::MwCallback,
            Solution::MwToken,
            Solution::ProtoCallback,
            Solution::ProtoToken,
        ])
        .platform("corba-like")
        .variation(
            "base",
            RunParams::default().subscribers(3).resources(2).rounds(2),
        )
        .variation(
            "contended",
            RunParams::default().subscribers(4).resources(1).rounds(2),
        )
        .seeds([11, 12, 13]);

    let serial = run_sweep(&spec, 1).to_json();
    let parallel = run_sweep(&spec, 4).to_json();
    assert_eq!(serial.as_bytes(), parallel.as_bytes());
}

#[test]
fn fault_campaign_cells_stay_conformant_through_partition_and_heal() {
    let spec = SweepSpec::new("faults")
        .solutions([Solution::ProtoCallback])
        .variation_with_reliability(
            "reliable",
            RunParams::default()
                .subscribers(3)
                .resources(1)
                .rounds(2)
                .time_cap(Duration::from_secs(120)),
            ReliabilityConfig::new(Duration::from_millis(8)),
        )
        .campaign("none", [])
        .campaign(
            "cut-heal",
            [
                FaultEvent::partition(Duration::from_millis(3), proto_sub(1), proto_ctl()),
                FaultEvent::heal(Duration::from_millis(9), proto_sub(1), proto_ctl()),
            ],
        )
        .seeds([21, 22]);

    let report = run_sweep(&spec, 2);
    assert_eq!(report.results.len(), 4);
    for r in &report.results {
        assert!(
            r.outcome.conformant,
            "{}/{} seed {} violated the service",
            r.target_label, r.campaign_label, r.cell.seed
        );
        assert!(
            r.outcome.completed,
            "{}/{} seed {} did not recover",
            r.target_label, r.campaign_label, r.cell.seed
        );
    }
    let fault_free = &report.groups[0];
    let faulted = &report.groups[1];
    assert_eq!(fault_free.campaign, "none");
    assert_eq!(faulted.campaign, "cut-heal");
    // The outage costs time (retransmissions through a dead link), never
    // correctness.
    assert!(faulted.latency_p99 >= fault_free.latency_p99);
}

#[test]
fn duplicate_partition_events_are_idempotent() {
    let base = RunParams::default()
        .subscribers(3)
        .resources(1)
        .rounds(2)
        .time_cap(Duration::from_secs(120));
    let cut = FaultEvent::partition(Duration::from_millis(3), proto_sub(2), proto_ctl());
    let heal = FaultEvent::heal(Duration::from_millis(9), proto_sub(2), proto_ctl());

    let once = SweepSpec::new("idem")
        .solutions([Solution::ProtoCallback])
        .variation_with_reliability(
            "reliable",
            base.clone(),
            ReliabilityConfig::new(Duration::from_millis(8)),
        )
        .campaign("cut-heal", [cut, heal])
        .seeds([31]);
    // The same partition applied twice must behave exactly like applying
    // it once: heal restores the original link, not a doubly-degraded one.
    let twice = SweepSpec::new("idem")
        .solutions([Solution::ProtoCallback])
        .variation_with_reliability(
            "reliable",
            base,
            ReliabilityConfig::new(Duration::from_millis(8)),
        )
        .campaign("cut-heal", [cut, cut, heal])
        .seeds([31]);

    let a = run_sweep(&once, 1).to_json();
    let b = run_sweep(&twice, 1).to_json();
    assert_eq!(a, b);
}

/// A small grid for the obs golden tests: two solutions, faults, two seeds.
fn obs_spec() -> SweepSpec {
    SweepSpec::new("obs-golden")
        .solutions([Solution::MwCallback, Solution::ProtoCallback])
        .variation(
            "base",
            RunParams::default().subscribers(3).resources(2).rounds(2),
        )
        .campaign("none", [])
        .campaign(
            "cut-heal",
            [
                FaultEvent::partition(Duration::from_millis(3), proto_sub(1), proto_ctl()),
                FaultEvent::heal(Duration::from_millis(9), proto_sub(1), proto_ctl()),
            ],
        )
        .seeds([41, 42])
}

#[test]
fn obs_output_is_byte_identical_across_thread_counts() {
    // Each cell records into its worker's thread-local recorder and the
    // merge is in spec order, so every sink format must be unaffected by
    // the worker count — the property CI also checks end-to-end via `cmp`.
    let serial = run_sweep(&obs_spec(), 1);
    let parallel = run_sweep(&obs_spec(), 4);
    assert_eq!(
        serial.obs_jsonl().as_bytes(),
        parallel.obs_jsonl().as_bytes()
    );
    assert_eq!(
        serial.obs_chrome().as_bytes(),
        parallel.obs_chrome().as_bytes()
    );
}

/// A grid for the causal-trace goldens. Deterministic links only: the
/// sequential engine draws jitter from one global RNG stream while the
/// sharded engine draws per-pair, so byte-identity across `--shards`
/// holds exactly on the jitter-free envelope (like the shard oracle).
fn trace_spec(shards: u32) -> SweepSpec {
    use svckit::netsim::LinkConfig;
    SweepSpec::new("trace-golden")
        .solutions([
            Solution::MwCallback,
            Solution::MwQueue,
            Solution::ProtoCallback,
        ])
        .variation(
            "det",
            RunParams::default()
                .subscribers(3)
                .resources(2)
                .rounds(2)
                .link(LinkConfig::perfect(Duration::from_micros(500))),
        )
        .seeds([51, 52])
        .shards(shards)
}

#[test]
fn trace_output_is_byte_identical_across_threads_and_shards() {
    // Same ids, same spans, same summary — whether cells run serially,
    // on four workers, or inside the sharded simulator. This is the
    // end-to-end form of the property CI `cmp`s on the fig4_trace spec.
    let base = run_sweep(&trace_spec(1), 1);
    let chrome = base.obs_chrome();
    let summary = base.trace_summary_json();
    let threads4 = run_sweep(&trace_spec(1), 4);
    assert_eq!(chrome.as_bytes(), threads4.obs_chrome().as_bytes());
    assert_eq!(summary.as_bytes(), threads4.trace_summary_json().as_bytes());
    let shards4 = run_sweep(&trace_spec(4), 2);
    assert_eq!(chrome.as_bytes(), shards4.obs_chrome().as_bytes());
    assert_eq!(summary.as_bytes(), shards4.trace_summary_json().as_bytes());
}

#[test]
fn trace_trees_nest_and_breakdowns_sum_exactly() {
    let report = run_sweep(&trace_spec(2), 2);
    let mut complete = 0u64;
    for r in &report.results {
        for tree in svckit::obs::trace_trees(r.obs.events()) {
            tree.check_nesting()
                .unwrap_or_else(|e| panic!("{}: {e}", r.target_label));
            if let Some(b) = tree.breakdown() {
                complete += 1;
                assert_eq!(
                    b.handler_us + b.queue_us + b.link_us + b.retransmit_us,
                    b.end_to_end_us,
                    "attribution must sum to end-to-end for trace {:#x} of {}",
                    b.trace_id,
                    r.target_label
                );
                assert!(b.link_us > 0, "every request crosses at least one link");
            }
        }
        if svckit::obs::sites_enabled() {
            // Every part issues `request`s that terminate in `granted`s;
            // only the unanswered `free` indications stay incomplete.
            assert!(
                r.outcome.floor.grants() > 0,
                "{} recorded no grants",
                r.target_label
            );
        }
    }
    if svckit::obs::sites_enabled() {
        assert!(complete > 0, "no completed request trees captured");
    } else {
        assert_eq!(complete, 0);
    }
}

#[test]
fn obs_virtual_timestamps_repeat_across_same_seed_runs() {
    // Timestamps are simulator virtual time, never wall clock: repeating
    // the same seeds must reproduce every span and counter byte-for-byte.
    let a = run_sweep(&obs_spec(), 2);
    let b = run_sweep(&obs_spec(), 2);
    assert_eq!(a.obs_jsonl(), b.obs_jsonl());
    assert_eq!(a.obs_chrome(), b.obs_chrome());

    // With instrumentation compiled in, the capture is real, not vacuously
    // equal-because-empty.
    if svckit::obs::sites_enabled() {
        let total = a.obs_total();
        assert!(total.counter("net.events") > 0);
        assert!(!total.events().is_empty());
        assert!(!total.links().is_empty());
    } else {
        assert!(a.obs_total().is_empty());
    }
}
