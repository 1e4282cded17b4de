//! `floorctl` — command-line driver for the floor-control workbench.
//!
//! Run any of the seven solutions under a configurable workload and print
//! the measured outcome, optionally with the full service-primitive trace
//! and the conformance report:
//!
//! ```text
//! cargo run --release -p svckit-bench --bin floorctl -- \
//!     --solution proto-token --subscribers 8 --resources 2 --rounds 5 \
//!     --seed 1 --link wan --trace
//! ```
//!
//! `--verify` model-checks the floor-control service over this run's
//! universe *before* simulating: the product space of the configured
//! subscriber/resource counts is explored (deadlocks, livelocks) with the
//! symmetry quotient controlled by `--symmetry on|off`. With the quotient
//! on (the default), verification of large subscriber counts stays cheap —
//! the per-user explosion collapses to orbit counting.

use std::process::ExitCode;

use svckit::floorctl::{
    floor_control_service, floor_event_universe, run_solution, RunParams, Solution,
};
use svckit::lts::explorer::{ExploreOptions, ServiceExplorer};
use svckit::lts::Symmetry;
use svckit::model::conformance::{check_trace, CheckOptions};
use svckit::model::Duration;
use svckit::netsim::LinkConfig;
use svckit_sweep::{out, outln};

struct Options {
    solution: Solution,
    params: RunParams,
    show_trace: bool,
    show_check: bool,
    verify: bool,
    /// The `--verify` exploration: its symmetry quotient and backend.
    explore: ExploreOptions,
}

fn usage() -> String {
    let mut text = String::from(
        "usage: floorctl [options]\n\
         \n\
         options:\n\
         \x20 --solution <name>     one of:",
    );
    for solution in Solution::ALL {
        text.push_str(&format!(" {solution}"));
    }
    text.push_str(
        "\n\
         \x20 --subscribers <n>     number of subscribers (default 4)\n\
         \x20 --resources <n>       number of shared resources (default 2)\n\
         \x20 --rounds <n>          acquisition rounds per subscriber (default 5)\n\
         \x20 --hold <ms>           hold time in milliseconds (default 2)\n\
         \x20 --think <ms>          think time in milliseconds (default 1)\n\
         \x20 --poll <ms>           polling interval in milliseconds (default 2)\n\
         \x20 --seed <n>            deterministic seed (default 42)\n\
         \x20 --link <kind>         lan | wan | lossy (default lan)\n\
         \x20 --trace               print the recorded primitive trace\n\
         \x20 --check               print the full conformance report\n\
         \x20 --verify              model-check the service over this run's\n\
         \x20                       universe before simulating\n\
         \x20 --symmetry <on|off>   quotient the --verify exploration by the\n\
         \x20                       user-permutation symmetry (default on)\n\
         \x20 --backend <name>      explicit | symbolic: how the --verify\n\
         \x20                       exploration represents the state space\n\
         \x20                       (default explicit)\n\
         \x20 --help                this text\n",
    );
    text
}

fn parse_solution(name: &str) -> Result<Solution, String> {
    Solution::ALL
        .into_iter()
        .find(|s| s.to_string() == name)
        .ok_or_else(|| format!("unknown solution `{name}`"))
}

fn parse_link(kind: &str) -> Result<LinkConfig, String> {
    match kind {
        "lan" => Ok(LinkConfig::lan()),
        "wan" => Ok(LinkConfig::wan()),
        "lossy" => Ok(LinkConfig::lossy(
            Duration::from_millis(1),
            Duration::from_micros(200),
            0.1,
        )),
        other => Err(format!("unknown link kind `{other}` (lan|wan|lossy)")),
    }
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut solution = Solution::MwCallback;
    let mut params = RunParams::default();
    let mut show_trace = false;
    let mut show_check = false;
    let mut verify = false;
    let mut explore = ExploreOptions {
        progress: floor_control_service().progress_primitives(),
        symmetry: Symmetry::On,
        ..ExploreOptions::default()
    };

    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--solution" => solution = parse_solution(&value("--solution")?)?,
            "--subscribers" => {
                params = params.subscribers(
                    value("--subscribers")?
                        .parse()
                        .map_err(|e| format!("--subscribers: {e}"))?,
                )
            }
            "--resources" => {
                params = params.resources(
                    value("--resources")?
                        .parse()
                        .map_err(|e| format!("--resources: {e}"))?,
                )
            }
            "--rounds" => {
                params = params.rounds(
                    value("--rounds")?
                        .parse()
                        .map_err(|e| format!("--rounds: {e}"))?,
                )
            }
            "--hold" => {
                params = params.hold(Duration::from_millis(
                    value("--hold")?
                        .parse()
                        .map_err(|e| format!("--hold: {e}"))?,
                ))
            }
            "--think" => {
                params = params.think(Duration::from_millis(
                    value("--think")?
                        .parse()
                        .map_err(|e| format!("--think: {e}"))?,
                ))
            }
            "--poll" => {
                params = params.poll_interval(Duration::from_millis(
                    value("--poll")?
                        .parse()
                        .map_err(|e| format!("--poll: {e}"))?,
                ))
            }
            "--seed" => {
                params = params.seed(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--link" => params = params.link(parse_link(&value("--link")?)?),
            "--symmetry" => explore.symmetry = value("--symmetry")?.parse()?,
            "--backend" => explore.backend = value("--backend")?.parse()?,
            "--trace" => show_trace = true,
            "--check" => show_check = true,
            "--verify" => verify = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Some(Options {
        solution,
        params,
        show_trace,
        show_check,
        verify,
        explore,
    }))
}

/// The `--verify` pre-run model check: explore the floor-control product
/// space over this run's universe with the `--symmetry` / `--backend`
/// settings in `explore`. Returns `false` when the service misbehaves over
/// the configured universe (which would make simulating it pointless).
fn verify_run(params: &RunParams, explore: &ExploreOptions) -> bool {
    let service = floor_control_service();
    let universe = floor_event_universe(params.subscriber_count(), params.resource_count());
    let explorer = ServiceExplorer::new(&service, universe, 2);
    let report = explorer.explore(explore);
    outln!(
        "model check:  {} state(s), {} transition(s) [symmetry {}, {} concrete state(s) saved]",
        report.states,
        report.transitions,
        explore.symmetry,
        report.sym_states_saved,
    );
    if report.peak_nodes > 0 {
        outln!(
            "ldd:          {} node(s) final, {} node(s) peak, {} cache hit(s)",
            report.ldd_nodes,
            report.peak_nodes,
            report.cache_hits,
        );
    }
    let healthy = !report.truncated
        && report.deadlock_states == 0
        && report.livelock.is_none()
        && report.never_enabled.is_empty();
    if !healthy {
        eprintln!(
            "model check FAILED: truncated={} deadlocks={} livelock={} never_enabled={}",
            report.truncated,
            report.deadlock_states,
            report.livelock.is_some(),
            report.never_enabled.len(),
        );
    }
    healthy
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            outln!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(error) => {
            eprintln!("error: {error}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    if options.verify && !verify_run(&options.params, &options.explore) {
        return ExitCode::FAILURE;
    }

    let outcome = run_solution(options.solution, &options.params);
    outln!(
        "solution:     {}\nworkload:     {} subscribers × {} rounds over {} resources (seed {})",
        outcome.solution,
        options.params.subscriber_count(),
        options.params.round_count(),
        options.params.resource_count(),
        options.params.seed_value(),
    );
    outln!(
        "completed:    {}\nconformant:   {} ({} violation(s))",
        outcome.completed,
        outcome.conformant,
        outcome.violations
    );
    outln!(
        "grants:       {} (requests {}, frees {})",
        outcome.floor.grants(),
        outcome.floor.requests(),
        outcome.floor.frees()
    );
    outln!(
        "latency:      mean {}  p50 {}  p99 {}",
        outcome.floor.mean_latency(),
        outcome.floor.median_latency(),
        outcome.floor.p99_latency()
    );
    outln!(
        "fairness:     {:.3}\ntransport:    {} messages, {} bytes ({:.1} msgs/grant)",
        outcome.floor.fairness(),
        outcome.transport_messages,
        outcome.transport_bytes,
        outcome.messages_per_grant()
    );
    outln!(
        "scattering:   {:.3} ({} app events / {} interaction-system events)",
        outcome.scattering(),
        outcome.app_events,
        outcome.infra_events
    );
    outln!("sim time:     {}", outcome.end_time);

    if options.show_trace {
        outln!("\ntrace ({} events):", outcome.trace.len());
        out!("{}", outcome.trace);
    }
    if options.show_check {
        let report = check_trace(
            &floor_control_service(),
            &outcome.trace,
            &CheckOptions {
                allow_pending_liveness: !outcome.completed,
            },
        );
        outln!("\nconformance report: {report}");
    }

    if outcome.completed && outcome.conformant {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
