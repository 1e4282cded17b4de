//! E5 (Figure 7): "interaction functionality is scattered across
//! application parts" — measured.
//!
//! Metric: of all coordination events processed at run time, which fraction
//! is handled by application-part code (component operation dispatches,
//! replies and deliveries) versus by the interaction system (protocol
//! entities processing PDUs, brokers routing messages)?
//!
//! Runs through the `svckit-sweep` harness (`--threads <n>`,
//! `SWEEP_fig7_scattering.json`).

use svckit::floorctl::{RunParams, Solution};
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
    let (out, obs) = output_flags(&args, "SWEEP_fig7_scattering.json").unwrap_or_else(|e| fail(&e));

    outln!("E5 — interaction-functionality scattering (Figure 7)\n");
    let spec = SweepSpec::new("fig7_scattering")
        .solutions(Solution::ALL)
        .variation(
            "6x2x4",
            RunParams::default()
                .subscribers(6)
                .resources(2)
                .rounds(4)
                .seed(77),
        );
    let spec = match flag_value(&args, "filter") {
        Some(needle) => spec.filter(needle),
        None => spec,
    };
    let report = run_sweep(&spec, threads);

    let widths = [16, 11, 12, 12, 11];
    print_header(
        &[
            "solution",
            "app-events",
            "infra-events",
            "scattering",
            "paradigm",
        ],
        &widths,
    );
    for r in &report.results {
        let outcome = &r.outcome;
        assert!(
            outcome.completed && outcome.conformant,
            "{}",
            r.target_label
        );
        print_row(
            &[
                r.target_label.clone(),
                outcome.app_events.to_string(),
                outcome.infra_events.to_string(),
                fmt_f(outcome.scattering()),
                if outcome.solution.is_middleware() {
                    "middleware"
                } else {
                    "protocol"
                }
                .to_string(),
            ],
            &widths,
        );
    }
    outln!();
    outln!("Shape (paper, Section 5): in the middleware solutions essentially all");
    outln!("coordination lands in application components (scattering ~1.0, except");
    outln!("where a broker absorbs routing); in the protocol solutions the service");
    outln!("provider absorbs it and the user parts see only service primitives.");
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
        verbose.sink_summary("fig7_scattering", &report.obs_total());
    }
}
