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
//! substring (mirroring `sweep`'s `--filter`).
//!
//! Exit status is 1 when any error-severity diagnostic is reported, or when
//! warnings are reported under `--deny warnings`. An unknown flag, a flag
//! without its value, a malformed flag value (`--deny` takes only
//! `warnings`), a `--filter` that matches no target, an unwritable
//! `--out`/`--diag-out` path (checked before the analysis runs) and a
//! failed write to stdout (a full device, a closed pipe) each print one
//! `error:` line and also exit with 1.

use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

use svckit_analyze::{
    all_targets, fixtures, scale_floor_targets, AnalysisReport, Reduction, ServicePassOptions,
    Symmetry,
};
use svckit_sweep::{check_flags, ensure_writable, flag_value};

/// The flags the analyzer reads, each taking one value.
const FLAGS: &[&str] = &[
    "por",
    "symmetry",
    "engine",
    "backend",
    "deny",
    "filter",
    "users",
    "max-states",
    "out",
    "diag-out",
];

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

/// Parses `--<name> VALUE` through `T`'s `FromStr` (`default` when absent).
fn parsed_flag<T: FromStr<Err = String>>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    flag_value(args, name).map_or(Ok(default), |value| {
        value.parse().map_err(|err| format!("--{name}: {err}"))
    })
}

/// The pass options and the `--users` count the flags select.
fn parse_options(args: &[String]) -> Result<(ServicePassOptions, usize), String> {
    let options = ServicePassOptions {
        reduction: parsed_flag(args, "por", Reduction::AmpleSets)?,
        symmetry: parsed_flag(args, "symmetry", Symmetry::On)?,
        max_states: positive_flag(args, "max-states", 200_000)?,
        engine: parsed_flag(args, "engine", Default::default())?,
        backend: parsed_flag(args, "backend", Default::default())?,
        ..ServicePassOptions::default()
    };
    Ok((options, positive_flag(args, "users", 3)?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the analysis the flags select. Every failure — an unknown or
/// malformed flag, a `--filter` that matches nothing, an unwritable
/// output path (probed before the analysis runs) or a failed write to
/// stdout — comes back as the one message `main` prints.
fn run(args: &[String]) -> Result<ExitCode, String> {
    check_flags(args, FLAGS, &["--fixtures"])?;
    let deny_warnings = match flag_value(args, "deny").as_deref() {
        None => false,
        Some("warnings") => true,
        Some(other) => return Err(format!("--deny expects `warnings`, got {other:?}")),
    };
    let (options, users) = parse_options(args)?;
    let out = flag_value(args, "out");
    let diag_out = flag_value(args, "diag-out");
    for path in out.iter().chain(&diag_out) {
        ensure_writable(path)?;
    }

    let mut targets = all_targets();
    if args.iter().any(|a| a == "--fixtures") {
        targets.extend(fixtures::expected_codes().into_iter().map(|(t, _)| t));
    }
    if users != 3 {
        scale_floor_targets(&mut targets, users as u64);
    }
    if let Some(filter) = flag_value(args, "filter") {
        targets.retain(|t| t.name.contains(&filter));
        if targets.is_empty() {
            return Err(format!("--filter {filter:?} matches no target"));
        }
    }

    let report = AnalysisReport::run(&targets, &options);
    let mut stdout = std::io::stdout().lock();
    let mut print = |text: &str| {
        stdout
            .write_all(text.as_bytes())
            .and_then(|()| stdout.flush())
            .map_err(|err| format!("cannot write to stdout: {err}"))
    };
    print(&report.render_text())?;
    for (path, json) in [(out, report.to_json()), (diag_out, report.to_diag_json())] {
        if let Some(path) = path {
            std::fs::write(&path, json).map_err(|err| format!("cannot write {path}: {err}"))?;
            print(&format!("wrote {path}\n"))?;
        }
    }

    Ok(
        if report.errors() > 0 || (deny_warnings && report.warnings() > 0) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        },
    )
}
