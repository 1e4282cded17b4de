//! E10 (extension of Figure 10's "platform selection" step, and of
//! Section 5's QoS remark): measured, QoS-driven platform selection.
//!
//! The trajectory of Figure 10 begins by selecting a platform branch; the
//! paper gives no criterion. Here the criterion is an explicit QoS
//! specification, checked against *measured* realizations of the PIM on
//! each candidate.
//!
//! Rewired onto the `svckit-sweep` harness: every candidate platform is
//! measured once (4 cells, parallel with `--threads`,
//! `SWEEP_platform_selection.json`), then each QoS scenario is evaluated
//! against the shared measurements — instead of re-running every
//! realization per scenario as the serial `select_platform` does.

use svckit::floorctl::RunParams;
use svckit::mda::{catalog, transform, QosSpec, TransformPolicy};
use svckit::model::Duration;
use svckit_bench::{fmt_f, print_header, print_row};
use svckit_sweep::{
    check_flags, default_threads, fail, flag_usize, flag_value, outln, output_flags, run_sweep,
    verbosity, CellResult, SweepSpec, VERBOSITY_SWITCHES,
};

fn run_selection(label: &str, qos: &QosSpec, measured: &[(&CellResult, usize)]) {
    outln!("{label}: {qos}");
    let widths = [15, 9, 11, 11, 10, 7];
    print_header(
        &[
            "platform",
            "adapters",
            "mean-lat",
            "msgs/grant",
            "fairness",
            "passes",
        ],
        &widths,
    );
    let mut winner: Option<(&str, f64, usize)> = None;
    let mut any_failed = false;
    for (result, adapters) in measured {
        let outcome = &result.outcome;
        let platform = result.target_label.trim_start_matches("psm:");
        let passes = outcome.completed && outcome.conformant && qos.check(outcome).is_empty();
        any_failed |= !passes;
        if passes {
            let cost = outcome.messages_per_grant();
            let better = match winner {
                None => true,
                Some((_, best_cost, best_adapters)) => {
                    cost < best_cost || (cost == best_cost && *adapters < best_adapters)
                }
            };
            if better {
                winner = Some((platform, cost, *adapters));
            }
        }
        print_row(
            &[
                platform.to_string(),
                adapters.to_string(),
                outcome.floor.mean_latency().to_string(),
                fmt_f(outcome.messages_per_grant()),
                fmt_f(outcome.floor.fairness()),
                passes.to_string(),
            ],
            &widths,
        );
    }
    match winner {
        Some((platform, _, _)) => outln!("  -> selected: {platform}\n"),
        None => {
            assert!(any_failed);
            outln!("  -> no platform qualifies: every candidate misses the spec\n");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(
        &args,
        &["threads", "out", "obs-out", "obs-format", "filter"],
        VERBOSITY_SWITCHES,
    )
    .unwrap_or_else(|e| fail(&e));
    let threads = flag_usize(&args, "threads", default_threads()).unwrap_or_else(|e| fail(&e));
    let (out, obs) =
        output_flags(&args, "SWEEP_platform_selection.json").unwrap_or_else(|e| fail(&e));

    outln!("E10 — QoS-driven platform selection (Figure 10, selection step)\n");
    let params = RunParams::default()
        .subscribers(4)
        .resources(2)
        .rounds(3)
        .seed(55);

    let mut spec = SweepSpec::new("platform_selection").variation("4x2x3", params);
    let mut platforms = catalog::all_platforms();
    // `--filter` narrows the platform list itself (instead of the expanded
    // grid) so the adapter-count zip below stays aligned with the results.
    if let Some(needle) = flag_value(&args, "filter") {
        platforms.retain(|p| format!("psm:{}/4x2x3/none", p.name()).contains(&needle));
    }
    for platform in &platforms {
        spec = spec.platform(platform.name());
    }
    let report = run_sweep(&spec, threads);

    // Adapter counts come from the transformation alone — no run needed.
    let pim = catalog::floor_control_pim();
    let measured: Vec<(&CellResult, usize)> = report
        .results
        .iter()
        .zip(&platforms)
        .map(|(result, platform)| {
            let psm = transform(&pim, platform, TransformPolicy::RecursiveServiceDesign)
                .expect("catalog platforms realize the floor-control PIM");
            (result, psm.adapter_count())
        })
        .collect();

    run_selection("no requirements", &QosSpec::new(), &measured);
    run_selection(
        "latency-sensitive",
        &QosSpec::new().max_mean_grant_latency(Duration::from_micros(4_000)),
        &measured,
    );
    run_selection(
        "latency-sensitive and frugal",
        &QosSpec::new()
            .max_mean_grant_latency(Duration::from_micros(4_000))
            .max_messages_per_grant(7.0)
            .min_fairness(0.9),
        &measured,
    );
    run_selection(
        "impossible",
        &QosSpec::new().max_mean_grant_latency(Duration::from_micros(1)),
        &measured,
    );

    outln!("Shape: message counts tie across platform classes (the broker hop");
    outln!("replaces the RPC reply), but broker indirection costs latency — a");
    outln!("latency budget therefore selects the RPC branch of the trajectory.");
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
        verbose.sink_summary("platform_selection", &report.obs_total());
    }
}
