//! svckit's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_faults|floor_long|soak_scale|verify_u4|all> \
//!     [--seed <n>] [--seconds <n>] [--trace 0|1]
//! ```
//!
//! With `--trace 0` one workload runs for `--seconds` through the public
//! entry points, untraced, and the last stdout line is a JSON object with
//! the end-to-end metrics. With `--trace 1` the per-layer harness runs
//! instead (see `traced.rs`) and the JSON carries the per-layer metrics.
//! `--workload all` runs each workload in its own child process and
//! prints their metric lines. Exit code 2 on bad flags.

mod spans;
mod stats;
mod traced;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use stats::{peak_rss_mb, quantile};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects a whole number".to_owned())?;
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds expects a positive number")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if out.workload != "all" && !workloads::NAMES.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload expects one of {} or all",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(out)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Where the run came from: ROADMAP item 5's manifest, kept here.
fn provenance(args: &Args, workers: usize, params: &[(&'static str, String)]) -> String {
    let mut line = format!(
        "provenance: rev={} rustc=\"{}\" nproc={} workers={} workload={} seed={} seconds={} trace={}",
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        command_line("rustc", &["-V"]),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workers,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in params {
        line.push_str(&format!(" {k}={v}"));
    }
    line
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run_untraced(args: &Args, workers: usize, process_start: Instant) -> String {
    let m = workloads::measure(&args.workload, args.seed, args.seconds, workers, process_start);
    let rss = peak_rss_mb();
    let expected = workloads::expected_digest(&args.workload, args.seed);
    let consistent = m.digests.windows(2).all(|w| w[0] == w[1]);
    let pinned_ok = expected.is_none_or(|d| m.digests.first() == Some(&d));
    let correct = consistent && pinned_ok && m.failed == 0 && m.attempted > 0;

    println!("{}", provenance(args, workers, &m.params));
    let mut named = format!("{}:", args.workload);
    for (name, value, unit) in &m.named {
        named.push_str(&format!(" {name}={value:.6} {unit}"));
    }
    named.push_str(&format!(
        " setup_s={:.6} s peak_rss_mb={rss:.1} MB fail_ratio={} ({}/{}) timed_ops={}",
        m.setup_s(),
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted,
        m.timed_ops()
    ));
    println!("{named}");
    let ms = |v: &[f64], q: f64| quantile(v, q) * 1e3;
    for kind in &m.kinds {
        println!(
            "ops: {} n={} min_ms={:.3} p10_ms={:.3} p25_ms={:.3} p50_ms={:.3} max_ms={:.3}",
            kind.name,
            kind.wall_s.len(),
            ms(&kind.wall_s, 0.0),
            ms(&kind.wall_s, 0.1),
            ms(&kind.wall_s, 0.25),
            ms(&kind.wall_s, 0.5),
            ms(&kind.wall_s, 1.0)
        );
    }
    let s = &m.setup_samples;
    println!(
        "setups: n={} min_ms={:.4} p10_ms={:.4} p25_ms={:.4} p50_ms={:.4} max_ms={:.4}",
        s.len(),
        ms(s, 0.0),
        ms(s, 0.1),
        ms(s, 0.25),
        ms(s, 0.5),
        ms(s, 1.0)
    );
    println!(
        "output: digest={:016x} pinned={} repetitions={} consistent={consistent}",
        m.digests.first().copied().unwrap_or(0),
        expected.map_or_else(|| "none".to_owned(), |d| format!("{d:016x}")),
        m.digests.len()
    );
    let metrics = [
        Metric::new("setup_s", m.setup_s(), "s"),
        Metric::new("throughput_per_s", m.throughput(), "1/s"),
        Metric::new("pass_ms_p50", m.pass_s() * 1e3, "ms"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    result_json(correct, m.attempted, m.failed, &metrics)
}

/// `--workload all`: each workload in its own process, so that peak RSS
/// belongs to it.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in workloads::NAMES {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        match output {
            Ok(o) if o.status.success() => print!("{}", String::from_utf8_lossy(&o.stdout)),
            _ => {
                eprintln!("error: workload {workload} failed");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed <n>] [--seconds <n>] [--trace 0|1]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let workers = svckit_sweep::default_threads();
    let line = if args.trace {
        let t = traced::run(&args.workload, args.seed, workers);
        println!("{}", provenance(&args, workers, &t.params));
        for note in &t.notes {
            println!("{note}");
        }
        result_json(t.correct, t.attempted, t.failed, &t.metrics)
    } else {
        run_untraced(&args, workers, process_start)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
