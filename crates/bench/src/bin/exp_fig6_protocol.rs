//! E4 (Figure 6): the three protocol solutions — callback, polling,
//! token PDU sets — over the reliable-datagram lower-level service, with
//! the A3 ablation (unreliable lower service + retransmission layer).
//!
//! The N-grid runs through the `svckit-sweep` harness (`--threads <n>`,
//! `SWEEP_fig6_protocol.json`). A3 keeps driving the stack directly: its
//! rows report retransmission counters, which live below the service
//! boundary and are not part of a `RunOutcome`.

use svckit::floorctl::{RunParams, Solution};
use svckit::model::Duration;
use svckit::netsim::LinkConfig;
use svckit_bench::{fmt_f, print_header, print_row};
use svckit_sweep::{
    check_flags, default_threads, fail, flag_usize, flag_value, outln, output_flags, run_sweep,
    verbosity, SweepSpec, VERBOSITY_SWITCHES,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(
        &args,
        &["threads", "out", "obs-out", "obs-format", "filter"],
        VERBOSITY_SWITCHES,
    )
    .unwrap_or_else(|e| fail(&e));
    let threads = flag_usize(&args, "threads", default_threads()).unwrap_or_else(|e| fail(&e));
    let (out, obs) = output_flags(&args, "SWEEP_fig6_protocol.json").unwrap_or_else(|e| fail(&e));

    outln!("E4 — protocol-centred solutions (Figure 6)\n");
    let mut spec = SweepSpec::new("fig6_protocol").solutions([
        Solution::ProtoCallback,
        Solution::ProtoPolling,
        Solution::ProtoToken,
    ]);
    for n in [2u64, 4, 8, 16, 32] {
        spec = spec.variation(
            format!("N={n}"),
            RunParams::default()
                .subscribers(n)
                .resources(2)
                .rounds(4)
                .seed(200 + n)
                .time_cap(Duration::from_secs(300)),
        );
    }
    if let Some(needle) = flag_value(&args, "filter") {
        spec = spec.filter(needle);
    }
    let report = run_sweep(&spec, threads);

    let widths = [15, 5, 7, 11, 11, 10, 11];
    print_header(
        &[
            "solution",
            "N",
            "grants",
            "mean-lat",
            "p99-lat",
            "msgs/grant",
            "bytes/grant",
        ],
        &widths,
    );
    let mut current_variation = String::new();
    for r in &report.results {
        let outcome = &r.outcome;
        assert!(
            outcome.completed,
            "{} {}",
            r.target_label, r.variation_label
        );
        assert!(
            outcome.conformant,
            "{} {}",
            r.target_label, r.variation_label
        );
        if !current_variation.is_empty() && current_variation != r.variation_label {
            outln!();
        }
        current_variation = r.variation_label.clone();
        let bytes_per_grant = outcome.transport_bytes as f64 / outcome.floor.grants() as f64;
        print_row(
            &[
                r.target_label.clone(),
                r.variation_label.trim_start_matches("N=").to_string(),
                outcome.floor.grants().to_string(),
                outcome.floor.mean_latency().to_string(),
                outcome.floor.p99_latency().to_string(),
                fmt_f(outcome.messages_per_grant()),
                fmt_f(bytes_per_grant),
            ],
            &widths,
        );
    }
    outln!();

    outln!("A3 — lower-level service reliability ablation (callback protocol, N=4)\n");
    outln!("The same protocol entities run over progressively worse datagram");
    outln!("services; a reliability sub-layer (stop-and-wait) is layered in between");
    outln!("for the lossy rows — the layering principle, executably.\n");
    let widths = [26, 7, 11, 10, 14];
    print_header(
        &[
            "lower-level service",
            "grants",
            "mean-lat",
            "msgs",
            "retransmitted",
        ],
        &widths,
    );

    use svckit::floorctl::proto::callback;
    use svckit::protocol::ReliabilityConfig;
    for (label, link, reliability) in [
        (
            "reliable stream",
            LinkConfig::reliable_stream(Duration::from_millis(1), Duration::from_micros(100)),
            None,
        ),
        (
            "reliable datagram",
            LinkConfig::reliable_datagram(Duration::from_millis(1), Duration::from_micros(100)),
            None,
        ),
        (
            "lossy 10% + retransmit",
            LinkConfig::lossy(Duration::from_millis(1), Duration::from_micros(100), 0.10),
            Some(ReliabilityConfig::new(Duration::from_millis(8))),
        ),
        (
            "lossy 30% + retransmit",
            LinkConfig::lossy(Duration::from_millis(1), Duration::from_micros(100), 0.30),
            Some(ReliabilityConfig::new(Duration::from_millis(8))),
        ),
    ] {
        let params = RunParams::default()
            .subscribers(4)
            .resources(2)
            .rounds(4)
            .link(link)
            .seed(9)
            .time_cap(Duration::from_secs(300));
        let mut stack = callback::deploy_with_reliability(&params, reliability);
        let mut sim_report = stack.run_to_quiescence(Duration::from_secs(60)).unwrap();
        while !sim_report.is_quiescent()
            && sim_report.end_time() < svckit::model::Instant::from_micros(300_000_000)
        {
            // Drop the old report first so the next slice appends to the
            // trace in place instead of copying it.
            drop(sim_report);
            sim_report = stack.run_to_quiescence(Duration::from_secs(60)).unwrap();
        }
        let metrics = svckit::floorctl::FloorMetrics::from_trace(sim_report.trace());
        let totals = stack.total_counters();
        print_row(
            &[
                label.to_string(),
                metrics.grants().to_string(),
                metrics.mean_latency().to_string(),
                sim_report.metrics().messages_sent().to_string(),
                totals.retransmissions.to_string(),
            ],
            &widths,
        );
        assert_eq!(metrics.grants(), 16, "{label}");
    }
    outln!();
    outln!("Shape: identical user-visible service; loss is absorbed below the");
    outln!("service boundary at the price of retransmissions and latency.");
    outln!();
    report.write_json(&out).unwrap_or_else(|e| fail(&e));

    let verbose = verbosity(&args);
    if let Some((obs_path, format)) = obs {
        report
            .write_obs(&obs_path, format)
            .unwrap_or_else(|e| fail(&e));
        verbose.info(&format!("wrote obs {obs_path} ({format:?})"));
    }
    if svckit::obs::sites_enabled() {
        verbose.sink_summary("fig6_protocol", &report.obs_total());
    }
}
