//! E1 (Figures 1–3): both paradigm structures for the same application,
//! delivering the same service.
//!
//! The paper's Figures 1–3 are structural diagrams: a distributed
//! application (Fig. 1) realized either as user parts over protocol
//! entities over a lower-level service (Fig. 2) or as components over a
//! middleware platform (Fig. 3). This experiment constructs both structures
//! for the floor-control application and verifies the structural claims:
//! same service boundary, same observable behaviour class, different
//! provider structure.
//!
//! Runs through the `svckit-sweep` harness (`--threads <n>`,
//! `SWEEP_paradigms.json`).

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
    let (out, obs) = output_flags(&args, "SWEEP_paradigms.json").unwrap_or_else(|e| fail(&e));

    outln!("E1 — paradigm structures (Figures 1-3)\n");
    let spec = SweepSpec::new("paradigms")
        .solutions([Solution::MwCallback, Solution::ProtoCallback])
        .variation(
            "4x2x3",
            RunParams::default()
                .subscribers(4)
                .resources(2)
                .rounds(3)
                .seed(1),
        );
    let spec = match flag_value(&args, "filter") {
        Some(needle) => spec.filter(needle),
        None => spec,
    };
    let report = run_sweep(&spec, threads);

    let widths = [16, 10, 12, 12, 12, 12];
    print_header(
        &[
            "structure",
            "conforms",
            "user-events",
            "pdu/infra",
            "transport",
            "scattering",
        ],
        &widths,
    );
    for r in &report.results {
        let outcome = &r.outcome;
        assert!(outcome.completed && outcome.conformant);
        print_row(
            &[
                r.target_label.clone(),
                outcome.conformant.to_string(),
                outcome.trace.len().to_string(),
                outcome.infra_events.to_string(),
                outcome.transport_messages.to_string(),
                fmt_f(outcome.scattering()),
            ],
            &widths,
        );
    }

    outln!();
    outln!("Both structures provide the floor-control service (conformance = true).");
    outln!("The middleware structure places coordination in components (scattering ~1);");
    outln!("the protocol structure places it in the service provider (scattering << 1).");
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
        verbose.sink_summary("paradigms", &report.obs_total());
    }
}
