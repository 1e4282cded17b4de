//! `svckit-analyze` — static analysis of every model in the repository.
//!
//! ```text
//! svckit-analyze [--por on|off] [--symmetry on|off] [--engine dfa|interp]
//!                [--backend explicit|symbolic] [--deny warnings]
//!                [--filter <substring>] [--users N] [--max-states N]
//!                [--out PATH] [--diag-out PATH] [--fixtures]
//! ```
//!
//! Diagnostics are engine-invariant: `--engine dfa` (the default) and
//! `--engine interp` must write byte-identical `--diag-out` files, which CI
//! checks with `cmp`. They are likewise symmetry-invariant: `--symmetry on`
//! (the default) quotients the explored product space by the detected
//! user-permutation groups but re-derives witnesses concretely, so the
//! `--diag-out` files of both settings are also `cmp`'d in CI. `--users N`
//! rescales the floor-control universes to `N` subscribers — past five or
//! so, only the quotient fits under the state bound.
//!
//! `--backend symbolic` additionally runs each service pass through the
//! symbolic LDD reachability engine: the full report grows a per-target
//! `ldd` block, and product spaces that truncate the explicit bound (the
//! `--users 8` floor universes) are re-checked as symbolic fixpoints with
//! witnesses re-extracted as concrete traces. Diagnostics stay
//! backend-invariant, so the `--diag-out` files of both backends are also
//! `cmp`'d in CI.
//!
//! `--filter` narrows the run to targets whose name contains the given
//! substring (mirroring `sweep`'s `--filter`; `--target` is accepted as a
//! legacy alias).
//!
//! Exit status is 1 when any error-severity diagnostic is reported, or when
//! warnings are reported under `--deny warnings`.

use std::process::ExitCode;

use svckit_analyze::{
    all_targets, fixtures, scale_floor_targets, AnalysisReport, Reduction, ServicePassOptions,
    Symmetry,
};
use svckit_sweep::flag_value;

/// Parses `--<name> N` as a positive integer (`default` when absent).
fn positive_flag(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(value) => match value.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!(
                "--{name} expects a positive integer, got {value:?}"
            )),
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let deny_warnings = flag_value(&args, "deny").is_some_and(|v| v == "warnings");
    let reduction = match flag_value(&args, "por").as_deref() {
        None | Some("on") => Reduction::AmpleSets,
        Some("off") => Reduction::Full,
        Some(other) => {
            eprintln!("--por expects `on` or `off`, got {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let symmetry = match flag_value(&args, "symmetry").as_deref() {
        None | Some("on") => Symmetry::On,
        Some("off") => Symmetry::Off,
        Some(other) => {
            eprintln!("--symmetry expects `on` or `off`, got {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let (max_states, users) = match (
        positive_flag(&args, "max-states", 200_000),
        positive_flag(&args, "users", 3),
    ) {
        (Ok(max_states), Ok(users)) => (max_states, users),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    let options = ServicePassOptions {
        reduction,
        symmetry,
        max_states,
        engine: svckit_sweep::engine_flag(&args).unwrap_or_default(),
        backend: svckit_sweep::backend_flag(&args).unwrap_or_default(),
        ..ServicePassOptions::default()
    };

    let mut targets = all_targets();
    if args.iter().any(|a| a == "--fixtures") {
        targets.extend(fixtures::expected_codes().into_iter().map(|(t, _)| t));
    }
    if users != 3 {
        scale_floor_targets(&mut targets, users as u64);
    }
    if let Some(filter) = flag_value(&args, "filter").or_else(|| flag_value(&args, "target")) {
        targets.retain(|t| t.name.contains(&filter));
        if targets.is_empty() {
            eprintln!("--filter {filter:?} matches no target");
            return ExitCode::FAILURE;
        }
    }

    let report = AnalysisReport::run(&targets, &options);
    print!("{}", report.render_text());

    if let Some(path) = flag_value(&args, "out") {
        if let Err(err) = std::fs::write(&path, report.to_json()) {
            eprintln!("cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = flag_value(&args, "diag-out") {
        if let Err(err) = std::fs::write(&path, report.to_diag_json()) {
            eprintln!("cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if report.errors() > 0 || (deny_warnings && report.warnings() > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
