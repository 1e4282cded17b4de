//! E7 (Figure 10): the MDA design trajectory — one PIM transformed to the
//! RPC-based and asynchronous-messaging branches and executed on all four
//! concrete platforms.

use svckit::floorctl::RunParams;
use svckit::mda::{catalog, realize, transform, TransformPolicy};
use svckit_bench::{print_header, print_row};
use svckit_sweep::{check_flags, fail, outln};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, &[], &[]).unwrap_or_else(|e| fail(&e));
    outln!("E7 — the MDA design trajectory (Figure 10)\n");
    let pim = catalog::floor_control_pim();
    outln!("PIM `{}` over {}\n", pim.name(), pim.abstract_platform());

    let params = RunParams::default()
        .subscribers(4)
        .resources(2)
        .rounds(3)
        .seed(10);
    let widths = [15, 12, 9, 10, 9, 8, 11, 11];
    print_header(
        &[
            "platform",
            "class",
            "adapters",
            "overhead",
            "portable",
            "grants",
            "mean-lat",
            "transport",
        ],
        &widths,
    );
    for platform in catalog::all_platforms() {
        let psm = transform(&pim, &platform, TransformPolicy::RecursiveServiceDesign)
            .expect("all catalogued platforms realize the PIM");
        let report = realize::realize(&psm, &params).expect("every PSI runs and conforms");
        let outcome = report.outcome();
        print_row(
            &[
                platform.name().to_string(),
                platform.class().to_string().chars().take(12).collect(),
                psm.adapter_count().to_string(),
                format!("+{}msg", psm.total_adapter_overhead()),
                psm.portable_artifacts().len().to_string(),
                outcome.floor.grants().to_string(),
                outcome.floor.mean_latency().to_string(),
                outcome.transport_messages.to_string(),
            ],
            &widths,
        );
        assert!(outcome.completed && outcome.conformant);
    }
    outln!();
    outln!("All four platform-specific implementations execute the same workload");
    outln!("and pass conformance against the single service definition — the");
    outln!("trajectory's 'stable reference point' claim, demonstrated.");
    outln!();

    outln!("deployment descriptor for the mqseries-like PSM:");
    let psm = transform(
        &pim,
        &catalog::mq_series_like(),
        TransformPolicy::RecursiveServiceDesign,
    )
    .unwrap();
    for line in psm.emit_descriptor().lines() {
        outln!("  {line}");
    }
}
