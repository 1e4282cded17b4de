//! E2 (Figure 4): the three middleware solutions — callback, polling,
//! token — swept over subscriber count and contention.
//!
//! The paper presents the three solutions qualitatively; this experiment
//! measures what each trades: messages per grant, grant latency, and how
//! the costs scale with the number of subscribers (ablation A1 sweeps the
//! polling interval; A2 is visible in the token rows' growth with N).
//!
//! The N-grid and the A1 ablation run through the `svckit-sweep` harness
//! (`--threads <n>` parallelizes the cells; the emitted
//! `SWEEP_fig4_middleware.json` is byte-identical for any thread count).
//! A5 drives the grant-policy knob directly — it deploys with a
//! non-default controller policy, which is not a sweep-spec dimension.

use svckit::floorctl::{RunParams, Solution};
use svckit::model::Duration;
use svckit::netsim::LinkConfig;
use svckit_bench::{fmt_f, print_header, print_row};
use svckit_sweep::{
    check_flags, default_threads, fail, flag_usize, flag_value, outln, output_flags, run_sweep,
    shards_flag, trace_flags, verbosity, SweepSpec, VERBOSITY_SWITCHES,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(
        &args,
        &[
            "threads",
            "out",
            "obs-out",
            "obs-format",
            "filter",
            "shards",
            "trace-out",
            "trace-summary",
        ],
        VERBOSITY_SWITCHES,
    )
    .unwrap_or_else(|e| fail(&e));
    let shards = shards_flag(&args).unwrap_or_else(|e| fail(&e));
    let threads = flag_usize(&args, "threads", default_threads()).unwrap_or_else(|e| fail(&e));
    let (out, obs) = output_flags(&args, "SWEEP_fig4_middleware.json").unwrap_or_else(|e| fail(&e));

    outln!("E2 — middleware-centred solutions (Figure 4)\n");
    let mut spec = SweepSpec::new("fig4_middleware").solutions([
        Solution::MwCallback,
        Solution::MwPolling,
        Solution::MwToken,
    ]);
    for n in [2u64, 4, 8, 16, 32] {
        spec = spec.variation(
            format!("N={n}"),
            RunParams::default()
                .subscribers(n)
                .resources(2)
                .rounds(4)
                .seed(100 + n)
                .time_cap(Duration::from_secs(300)),
        );
    }
    if let Some(needle) = flag_value(&args, "filter") {
        spec = spec.filter(needle);
    }
    if let Some(shards) = shards {
        // Sweep JSON is byte-identical across shard counts >= 2: link
        // randomness is per-pair, so partitioning cannot change it. The
        // E2 links are jittered, so shards >= 2 draw a different (equally
        // valid) sample than one shard's single global stream;
        // CI cmp's --shards 2 against --shards 4.
        spec = spec.shards(shards);
    }
    let report = run_sweep(&spec, threads);

    let widths = [13, 5, 5, 7, 11, 11, 10, 12];
    print_header(
        &[
            "solution",
            "N",
            "R",
            "grants",
            "mean-lat",
            "p99-lat",
            "msgs/grant",
            "fairness",
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
        print_row(
            &[
                r.target_label.clone(),
                r.variation_label.trim_start_matches("N=").to_string(),
                "2".to_string(),
                outcome.floor.grants().to_string(),
                outcome.floor.mean_latency().to_string(),
                outcome.floor.p99_latency().to_string(),
                fmt_f(outcome.messages_per_grant()),
                fmt_f(outcome.floor.fairness()),
            ],
            &widths,
        );
    }
    outln!();

    outln!("A1 — polling-interval ablation (N=8, one contended resource)\n");
    let mut ablation = SweepSpec::new("fig4_poll_interval").solutions([Solution::MwPolling]);
    for interval_ms in [1u64, 2, 5, 10, 20] {
        ablation = ablation.variation(
            format!("{interval_ms}ms"),
            RunParams::default()
                .subscribers(8)
                .resources(1)
                .rounds(3)
                .poll_interval(Duration::from_millis(interval_ms))
                .seed(7)
                .time_cap(Duration::from_secs(300)),
        );
    }
    let poll_report = run_sweep(&ablation, threads);
    let widths = [14, 11, 11, 10];
    print_header(
        &["poll-interval", "mean-lat", "p99-lat", "msgs/grant"],
        &widths,
    );
    for r in &poll_report.results {
        let outcome = &r.outcome;
        assert!(outcome.completed && outcome.conformant);
        print_row(
            &[
                r.variation_label.clone(),
                outcome.floor.mean_latency().to_string(),
                outcome.floor.p99_latency().to_string(),
                fmt_f(outcome.messages_per_grant()),
            ],
            &widths,
        );
    }
    outln!();

    outln!("A5 — grant-policy ablation (callback controller, N=8, one resource)\n");
    use svckit::floorctl::mw::callback::deploy_with_policy;
    use svckit::floorctl::{FloorMetrics, GrantPolicy};
    use svckit::model::conformance::{check_trace, CheckOptions};
    let widths = [8, 7, 11, 11, 11, 10];
    print_header(
        &[
            "policy", "grants", "mean-lat", "p99-lat", "max-lat", "conforms",
        ],
        &widths,
    );
    for policy in [GrantPolicy::Fifo, GrantPolicy::Lifo, GrantPolicy::Random] {
        let params = RunParams::default()
            .subscribers(8)
            .resources(1)
            .rounds(4)
            .seed(21)
            .time_cap(Duration::from_secs(600));
        let mut system = deploy_with_policy(&params, policy);
        let report = system.run_to_quiescence(params.cap()).unwrap();
        let metrics = FloorMetrics::from_trace(report.trace());
        let check = check_trace(
            &svckit::floorctl::floor_control_service(),
            report.trace(),
            &CheckOptions::default(),
        );
        print_row(
            &[
                policy.to_string(),
                metrics.grants().to_string(),
                metrics.mean_latency().to_string(),
                metrics.p99_latency().to_string(),
                metrics
                    .latencies()
                    .last()
                    .copied()
                    .unwrap_or(svckit::model::Duration::ZERO)
                    .to_string(),
                check.is_conformant().to_string(),
            ],
            &widths,
        );
    }
    outln!();
    outln!("Shape: shorter polling intervals buy latency with messages; the token");
    outln!("solution's cost grows with ring size even at fixed contention; grant");
    outln!("policy never affects safety (all conformant) but LIFO wrecks the tail.");
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
        verbose.sink_summary("fig4_middleware", &report.obs_total());
    }

    // T — causal traces for the four Figure-4 deployments. A separate
    // spec on *deterministic* links: one shard draws jitter from one
    // global stream and two or more shards draw per pair, so the
    // jittered E2 grid above cannot be byte-identical across --shards —
    // the jitter-free envelope is, and CI `cmp`s shards 1 vs 4 on both
    // files this block writes.
    if let Some(flags) = trace_flags(&args) {
        outln!("T — request traces, four Figure-4 deployments (N=8, deterministic links)\n");
        let mut trace_spec = SweepSpec::new("fig4_trace")
            .solutions([
                Solution::MwCallback,
                Solution::MwPolling,
                Solution::MwToken,
                Solution::MwQueue,
            ])
            .variation(
                "N=8",
                RunParams::default()
                    .subscribers(8)
                    .resources(2)
                    .rounds(4)
                    .link(LinkConfig::perfect(Duration::from_micros(500)))
                    .seed(108)
                    .time_cap(Duration::from_secs(300)),
            );
        if let Some(shards) = shards {
            trace_spec = trace_spec.shards(shards);
        }
        let trace_report = run_sweep(&trace_spec, threads);
        for r in &trace_report.results {
            assert!(r.outcome.completed && r.outcome.conformant);
        }
        trace_report
            .write_trace(&flags)
            .unwrap_or_else(|e| fail(&e));
        if !svckit::obs::sites_enabled() {
            verbose.info(
                "note: obs sites are compiled out; trace outputs are empty \
                 (rebuild with --features obs)",
            );
        }
    }
}
