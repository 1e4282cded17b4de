//! Rendering: text tables for humans, `SWEEP_*.json` for machines, the
//! obs sinks (JSONL and Chrome trace), and the tiny CLI-flag parser the
//! experiment binaries share.

use svckit_obs::{
    percentile_us, trace_trees, JsonWriter as ObsJsonWriter, Recorder, RequestBreakdown,
};

use crate::exec::{CellResult, SweepReport};
use crate::json::{write_outcome, JsonWriter};

/// Writes formatted text to stdout like `print!`, but ends the binary
/// through [`fail`] when stdout is closed or full, where `print!` would
/// panic. Every bench binary prints through it.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::report::write_stdout(::std::format_args!($($arg)*))
    };
}

/// [`out!`] with a trailing newline: the bench binaries' `println!`.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::out!("\n")
    };
    ($($arg:tt)*) => {
        $crate::out!("{}\n", ::std::format_args!($($arg)*))
    };
}

/// The writer behind [`out!`] and [`outln!`].
pub fn write_stdout(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(text) {
        fail(&format!("cannot write to stdout: {e}"));
    }
}

/// Prints a row of fixed-width columns.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>width$}  "));
    }
    outln!("{}", line.trim_end());
}

/// Prints a header row followed by a rule.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    outln!("{}", "-".repeat(total));
}

/// Formats a `f64` with three decimals.
pub fn fmt_f(value: f64) -> String {
    format!("{value:.3}")
}

impl SweepReport {
    /// Prints the per-group summary table to stdout.
    pub fn print_table(&self) {
        let widths = [16, 14, 12, 5, 5, 5, 7, 9, 9, 8, 10, 7];
        print_header(
            &[
                "target",
                "variation",
                "campaign",
                "cells",
                "ok",
                "conf",
                "grants",
                "p50-lat",
                "p99-lat",
                "fairness",
                "msgs/grant",
                "scatter",
            ],
            &widths,
        );
        for g in &self.groups {
            print_row(
                &[
                    g.target.clone(),
                    g.variation.clone(),
                    g.campaign.clone(),
                    g.cells.to_string(),
                    g.completed.to_string(),
                    g.conformant.to_string(),
                    g.grants.to_string(),
                    g.latency_p50.to_string(),
                    g.latency_p99.to_string(),
                    fmt_f(g.fairness_mean),
                    fmt_f(g.msgs_per_grant),
                    fmt_f(g.scattering),
                ],
                &widths,
            );
        }
    }

    /// The machine-readable form of the whole sweep.
    ///
    /// Contains only deterministic data: no wall-clock, no thread count —
    /// `threads=N` output is byte-identical to `threads=1` (the golden
    /// test pins this). Per-cell *virtual* (simulated) time is
    /// deterministic and therefore included; per-cell *wall* time lives in
    /// the [`SweepReport::timing_json`] sidecar instead.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("sweep").string(&self.name);
        w.key("cells").begin_array();
        for r in &self.results {
            w.begin_object();
            w.key("target").string(&r.target_label);
            w.key("variation").string(&r.variation_label);
            w.key("campaign").string(&r.campaign_label);
            w.key("seed").uint(r.cell.seed);
            w.key("virtual_us").uint(r.outcome.end_time.as_micros());
            w.key("outcome");
            write_outcome(&mut w, &r.outcome);
            w.end_object();
        }
        w.end_array();
        w.key("groups").begin_array();
        for g in &self.groups {
            w.begin_object();
            w.key("target").string(&g.target);
            w.key("variation").string(&g.variation);
            w.key("campaign").string(&g.campaign);
            w.key("cells").uint(g.cells as u64);
            w.key("completed").uint(g.completed as u64);
            w.key("conformant").uint(g.conformant as u64);
            w.key("violations").uint(g.violations as u64);
            w.key("requests").uint(g.requests);
            w.key("grants").uint(g.grants);
            w.key("latency_us").begin_object();
            w.key("mean").uint(g.latency_mean.as_micros());
            w.key("p50").uint(g.latency_p50.as_micros());
            w.key("p90").uint(g.latency_p90.as_micros());
            w.key("p99").uint(g.latency_p99.as_micros());
            w.end_object();
            w.key("fairness_mean").float(g.fairness_mean, 4);
            w.key("fairness_min").float(g.fairness_min, 4);
            w.key("transport_messages").uint(g.transport_messages);
            w.key("transport_bytes").uint(g.transport_bytes);
            w.key("msgs_per_grant").float(g.msgs_per_grant, 3);
            w.key("bytes_per_grant").float(g.bytes_per_grant, 3);
            w.key("scattering").float(g.scattering, 3);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// The wall-clock sidecar: per-cell wall and virtual times plus the
    /// executor metadata.
    ///
    /// Deliberately a *separate* file (`<out>.timing.json`): wall-clock
    /// numbers differ between runs, machines and worker counts, so they
    /// can never live in the canonical sweep JSON, whose byte-identity
    /// across `--threads` values is golden-tested and CI-`cmp`'d.
    pub fn timing_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("sweep").string(&self.name);
        w.key("threads").uint(self.threads as u64);
        w.key("wall_ms").float(self.wall.as_secs_f64() * 1e3, 3);
        w.key("cells").begin_array();
        for r in &self.results {
            w.begin_object();
            w.key("target").string(&r.target_label);
            w.key("variation").string(&r.variation_label);
            w.key("campaign").string(&r.campaign_label);
            w.key("seed").uint(r.cell.seed);
            w.key("wall_ms").float(r.wall.as_secs_f64() * 1e3, 3);
            w.key("virtual_us").uint(r.outcome.end_time.as_micros());
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Writes [`SweepReport::to_json`] to `path`, the wall-clock sidecar
    /// ([`SweepReport::timing_json`]) next to it, and logs the execution
    /// metadata (cells, threads, wall-clock) to stdout.
    ///
    /// # Errors
    ///
    /// `cannot write <path>: <reason>` when either file cannot be written.
    pub fn write_json(&self, path: &str) -> Result<(), String> {
        write_file(path, self.to_json())?;
        let timing_path = match path.strip_suffix(".json") {
            Some(stem) => format!("{stem}.timing.json"),
            None => format!("{path}.timing.json"),
        };
        write_file(&timing_path, self.timing_json())?;
        outln!(
            "wrote {path} + {timing_path} ({} cells, {} threads, {:.2}s wall)",
            self.results.len(),
            self.threads,
            self.wall.as_secs_f64()
        );
        Ok(())
    }
}

/// Stable identity of a cell in obs output: `target/variation/campaign/
/// seedN`. Purely spec-derived, so it never depends on worker count.
fn cell_scope(r: &CellResult) -> String {
    format!(
        "{}/{}/{}/seed{}",
        r.target_label, r.variation_label, r.campaign_label, r.cell.seed
    )
}

/// The obs sink format selected by `--obs-format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsFormat {
    /// One compact JSON object per line: events, counters, histograms,
    /// links — the machine-diffable form (CI `cmp`s it across thread
    /// counts and repeated seeds).
    Jsonl,
    /// Chrome trace-event JSON, loadable in Perfetto or
    /// `chrome://tracing` (one "process" per cell, one track per node).
    Chrome,
}

impl SweepReport {
    /// The JSONL obs stream: every cell's records in spec order, each
    /// line tagged with the cell's scope label. Deterministic —
    /// byte-identical across `--threads` values and across repeated runs
    /// of the same seed (virtual timestamps only).
    pub fn obs_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&r.obs.jsonl(&cell_scope(r)));
        }
        out
    }

    /// The Chrome trace form of the whole sweep: cell index = pid, node
    /// id = tid, virtual microseconds on the timeline, every cell's
    /// timeline in canonical order ([`svckit_obs::chrome_trace`]), so the
    /// bytes are identical across `--threads` *and* (on deterministic
    /// links) `--shards` values. Both `--obs-format chrome` and
    /// `--trace-out` write it.
    pub fn obs_chrome(&self) -> String {
        let scopes: Vec<String> = self.results.iter().map(cell_scope).collect();
        svckit_obs::chrome_trace(
            self.results
                .iter()
                .zip(&scopes)
                .enumerate()
                .map(|(i, (r, s))| (i as u64, s.as_str(), &r.obs)),
        )
    }

    /// All cell recorders merged into one, in spec order.
    pub fn obs_total(&self) -> Recorder {
        let mut total = Recorder::new();
        for r in &self.results {
            total.absorb(&r.obs);
        }
        total
    }

    /// Writes the selected obs sink to `path`.
    ///
    /// # Errors
    ///
    /// `cannot write <path>: <reason>` when the file cannot be written.
    pub fn write_obs(&self, path: &str, format: ObsFormat) -> Result<(), String> {
        let text = match format {
            ObsFormat::Jsonl => self.obs_jsonl(),
            ObsFormat::Chrome => self.obs_chrome(),
        };
        write_file(path, text)
    }
}

/// The causal-trace outputs requested on the command line
/// (`--trace-out` / `--trace-summary`); see [`trace_flags`].
#[derive(Debug, Clone)]
pub struct TraceFlags {
    /// `--trace-out <path>`: the Chrome trace with cross-node flow
    /// events ([`SweepReport::obs_chrome`], Perfetto-loadable).
    pub out: Option<String>,
    /// `--trace-summary <path>`: the critical-path latency report
    /// (`TRACE_summary.json`).
    pub summary: Option<String>,
}

/// Parses `--trace-out <path>` / `--trace-summary <path>`; `None` when
/// neither was requested. Either flag alone is fine.
pub fn trace_flags(args: &[String]) -> Option<TraceFlags> {
    let out = flag_value(args, "trace-out");
    let summary = flag_value(args, "trace-summary");
    if out.is_none() && summary.is_none() {
        return None;
    }
    Some(TraceFlags { out, summary })
}

/// Writes one requests/latency/breakdown block from a set of completed
/// request breakdowns (open object; caller owns begin/end).
fn write_trace_block(w: &mut ObsJsonWriter, complete: &[RequestBreakdown], incomplete: u64) {
    let mut latencies: Vec<u64> = complete.iter().map(|b| b.end_to_end_us).collect();
    latencies.sort_unstable();
    let sum = |f: fn(&RequestBreakdown) -> u64| complete.iter().map(f).sum::<u64>();
    let (handler, queue) = (sum(|b| b.handler_us), sum(|b| b.queue_us));
    let (link, retransmit) = (sum(|b| b.link_us), sum(|b| b.retransmit_us));
    w.key("requests").uint(complete.len() as u64);
    w.key("incomplete").uint(incomplete);
    w.key("latency_us").begin_object();
    w.key("p50").uint(percentile_us(&latencies, 50));
    w.key("p95").uint(percentile_us(&latencies, 95));
    w.key("p99").uint(percentile_us(&latencies, 99));
    w.key("max").uint(latencies.last().copied().unwrap_or(0));
    w.end_object();
    // The four classes sum to end_to_end by construction (pinned by the
    // golden tests), so readers can derive shares without re-walking.
    w.key("breakdown_us").begin_object();
    w.key("handler").uint(handler);
    w.key("queue").uint(queue);
    w.key("link").uint(link);
    w.key("retransmit").uint(retransmit);
    w.key("end_to_end").uint(latencies.iter().sum::<u64>());
    w.end_object();
    w.key("retransmits").uint(sum(|b| b.retransmits));
    w.key("spans").uint(sum(|b| b.spans));
    w.key("handler_events").uint(sum(|b| b.handler_events));
}

impl SweepReport {
    /// The critical-path report (`TRACE_summary.json`): per cell and per
    /// `target/variation/campaign` group, the completed-request count,
    /// nearest-rank latency percentiles, and the handler/queue/link/
    /// retransmit attribution totals from walking every request's span
    /// tree. Deterministic for the same reasons as
    /// [`SweepReport::obs_chrome`].
    pub fn trace_summary_json(&self) -> String {
        type Group = (String, String, String, Vec<RequestBreakdown>, u64);
        let mut groups: Vec<Group> = Vec::new();
        let mut w = ObsJsonWriter::pretty();
        w.begin_object();
        w.key("sweep").string(&self.name);
        w.key("obs_sites_enabled")
            .boolean(svckit_obs::sites_enabled());
        w.key("cells").begin_array();
        for r in &self.results {
            let mut complete = Vec::new();
            let mut incomplete = 0u64;
            let mut nesting_errors = 0u64;
            for tree in trace_trees(r.obs.events()) {
                if tree.check_nesting().is_err() {
                    nesting_errors += 1;
                }
                match tree.breakdown() {
                    Some(b) => complete.push(b),
                    None => incomplete += 1,
                }
            }
            w.begin_object();
            w.key("scope").string(&cell_scope(r));
            write_trace_block(&mut w, &complete, incomplete);
            w.key("nesting_errors").uint(nesting_errors);
            w.end_object();
            let key = (&r.target_label, &r.variation_label, &r.campaign_label);
            match groups.iter_mut().find(|g| (&g.0, &g.1, &g.2) == key) {
                Some(g) => {
                    g.3.extend(complete);
                    g.4 += incomplete;
                }
                None => groups.push((
                    r.target_label.clone(),
                    r.variation_label.clone(),
                    r.campaign_label.clone(),
                    complete,
                    incomplete,
                )),
            }
        }
        w.end_array();
        w.key("groups").begin_array();
        for (target, variation, campaign, complete, incomplete) in &groups {
            w.begin_object();
            w.key("target").string(target);
            w.key("variation").string(variation);
            w.key("campaign").string(campaign);
            write_trace_block(&mut w, complete, *incomplete);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Writes the requested trace sinks ([`trace_flags`]).
    ///
    /// # Errors
    ///
    /// `cannot write <path>: <reason>` when a file cannot be written.
    pub fn write_trace(&self, flags: &TraceFlags) -> Result<(), String> {
        if let Some(path) = &flags.out {
            write_file(path, self.obs_chrome())?;
            outln!("wrote {path} (chrome trace, canonical order)");
        }
        if let Some(path) = &flags.summary {
            write_file(path, self.trace_summary_json())?;
            outln!("wrote {path} (critical-path summary)");
        }
        Ok(())
    }
}

/// Parses `--obs-out <path>` / `--obs-format {jsonl,chrome}`; `Ok(None)`
/// when no obs output was requested. The format defaults to `jsonl`.
///
/// # Errors
///
/// A usage message on an unknown format, with or without `--obs-out`.
pub fn obs_flags(args: &[String]) -> Result<Option<(String, ObsFormat)>, String> {
    let format = match flag_value(args, "obs-format").as_deref() {
        None | Some("jsonl") => ObsFormat::Jsonl,
        Some("chrome") => ObsFormat::Chrome,
        Some(other) => {
            return Err(format!(
                "--obs-format expects `jsonl` or `chrome`, got {other:?}"
            ))
        }
    };
    Ok(flag_value(args, "obs-out").map(|path| (path, format)))
}

/// Stderr verbosity, shared by every experiment binary: `--quiet`
/// silences the informational summaries, `-v`/`--verbose` adds detail.
/// Canonical JSON always goes to files/stdout untouched — verbosity only
/// governs stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// `--quiet`: nothing on stderr.
    Quiet,
    /// Default: one-line summaries on stderr.
    Normal,
    /// `-v` / `--verbose`: per-cell / per-sink detail on stderr.
    Verbose,
}

impl Verbosity {
    /// Logs `msg` to stderr unless quiet.
    pub fn info(self, msg: &str) {
        if self >= Verbosity::Normal {
            eprintln!("{msg}");
        }
    }

    /// Logs `msg` to stderr only when verbose.
    pub fn debug(self, msg: &str) {
        if self >= Verbosity::Verbose {
            eprintln!("{msg}");
        }
    }

    /// Logs a one-line summary of a recorder's contents (sink summary)
    /// unless quiet.
    pub fn sink_summary(self, label: &str, recorder: &Recorder) {
        if self < Verbosity::Normal {
            return;
        }
        eprintln!(
            "obs[{label}]: {} counter(s), {} event(s) ({} dropped), {} link(s), sites {}",
            recorder.counters().len(),
            recorder.events().len(),
            recorder.events_dropped(),
            recorder.links().len(),
            if svckit_obs::sites_enabled() {
                "enabled"
            } else {
                "disabled"
            }
        );
        if self >= Verbosity::Verbose {
            for (name, value) in recorder.counters() {
                eprintln!("obs[{label}]:   {name} = {value}");
            }
        }
    }
}

/// The switches [`verbosity`] reads, for [`check_flags`].
pub const VERBOSITY_SWITCHES: &[&str] = &["--quiet", "-v", "--verbose"];

/// Parses the shared `--quiet` / `-v` / `--verbose` flags.
pub fn verbosity(args: &[String]) -> Verbosity {
    if args.iter().any(|a| a == "--quiet") {
        Verbosity::Quiet
    } else if args.iter().any(|a| a == "-v" || a == "--verbose") {
        Verbosity::Verbose
    } else {
        Verbosity::Normal
    }
}

/// Returns the value following `--<name>` in `args`, if present.
///
/// Shared by the experiment binaries so `--out`, `--threads` and
/// `--seeds` parse uniformly.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    let flag = format!("--{name}");
    args.iter()
        .position(|a| *a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// [`flag_value`] parsed as a number, with a default.
///
/// # Errors
///
/// A usage message when the value is present but not a number.
pub fn flag_usize(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a number, got {v:?}")),
    }
}

/// Refuses any argument that is neither a flag in `known` (names without
/// the leading `--`, each taking one value) nor a switch in `switches`
/// (whole arguments that take no value, such as [`VERBOSITY_SWITCHES`]),
/// so a mistyped flag fails instead of being ignored.
///
/// # Errors
///
/// `unexpected argument <arg>` for the first argument that is not a
/// known flag, its value or a known switch; `--<name> needs a value` for
/// a known flag that ends the argument list.
pub fn check_flags(args: &[String], known: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if switches.contains(&arg.as_str()) {
            continue;
        }
        match arg.strip_prefix("--") {
            Some(name) if known.contains(&name) => {
                if iter.next().is_none() {
                    return Err(format!("--{name} needs a value"));
                }
            }
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
    }
    Ok(())
}

/// Parses the shared `--shards N` flag; `Ok(None)` when absent, leaving
/// each spec/variation to its own default (one shard).
///
/// # Errors
///
/// A usage message when the value is not a count >= 1.
pub fn shards_flag(args: &[String]) -> Result<Option<u32>, String> {
    let Some(value) = flag_value(args, "shards") else {
        return Ok(None);
    };
    match value.parse::<u32>() {
        Ok(shards) if shards >= 1 => Ok(Some(shards)),
        _ => Err(format!("--shards expects an integer >= 1, got {value:?}")),
    }
}

/// Writes `contents` to `path`.
///
/// # Errors
///
/// `cannot write <path>: <reason>`.
pub fn write_file(path: &str, contents: String) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Checks that `path` can be written, so a binary can refuse an
/// unwritable output before it does any work. The probe opens for
/// appending, so an existing file keeps its contents, and removes a file
/// it had to create.
///
/// # Errors
///
/// `cannot write <path>: <reason>`, the message the final write would
/// give.
pub fn ensure_writable(path: &str) -> Result<(), String> {
    let existed = std::path::Path::new(path).exists();
    std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    if !existed {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// Parses the outputs every sweep binary (and `hotpath`) writes,
/// `--out <path>` (default `default_out`) and the optional obs sink
/// ([`obs_flags`]), and checks each with [`ensure_writable`], so a bad
/// flag or path fails before any work runs.
///
/// # Errors
///
/// The first usage or `cannot write` message.
pub fn output_flags(
    args: &[String],
    default_out: &str,
) -> Result<(String, Option<(String, ObsFormat)>), String> {
    let out = flag_value(args, "out").unwrap_or_else(|| default_out.to_owned());
    let obs = obs_flags(args)?;
    ensure_writable(&out)?;
    if let Some((path, _)) = &obs {
        ensure_writable(path)?;
    }
    Ok((out, obs))
}

/// Prints one `error:` line and exits with code 1: how every bench
/// binary ends on a bad flag, an unwritable output or a closed stdout.
pub fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_sweep;
    use crate::spec::SweepSpec;
    use svckit::floorctl::{RunParams, Solution};

    #[test]
    fn fmt_f_has_three_decimals() {
        assert_eq!(fmt_f(1.23456), "1.235");
        assert_eq!(fmt_f(0.0), "0.000");
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--out", "x.json", "--threads", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "out").as_deref(), Some("x.json"));
        assert_eq!(flag_usize(&args, "threads", 1), Ok(4));
        assert_eq!(flag_usize(&args, "seeds", 8), Ok(8));
        assert_eq!(flag_value(&args, "missing"), None);
        assert_eq!(check_flags(&args, &["out", "threads"], &[]), Ok(()));
        assert!(check_flags(&args, &["out"], &[]).is_err());
        let switched: Vec<String> = ["-v", "--out", "--quiet", "--quiet"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        // A switch takes no value; a flag's value is never read as one.
        assert_eq!(check_flags(&switched, &["out"], VERBOSITY_SWITCHES), Ok(()));
        assert!(check_flags(&switched, &["out"], &[]).is_err());
        let trailing: Vec<String> = ["--threads", "1", "--out"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            check_flags(&trailing, &["out", "threads"], &[]),
            Err("--out needs a value".to_owned())
        );
        assert_eq!(
            check_flags(&trailing[..1], &["out", "threads"], &[]),
            Err("--threads needs a value".to_owned())
        );
        let obs =
            |list: &[&str]| obs_flags(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert_eq!(obs(&[]), Ok(None));
        assert_eq!(obs(&["--obs-format", "chrome"]), Ok(None));
        assert_eq!(
            obs(&["--obs-out", "o.json", "--obs-format", "chrome"]),
            Ok(Some(("o.json".to_owned(), ObsFormat::Chrome)))
        );
        assert_eq!(
            obs(&["--obs-out", "o.json"]),
            Ok(Some(("o.json".to_owned(), ObsFormat::Jsonl)))
        );
        // A bad format is refused with or without a sink to write.
        assert!(obs(&["--obs-format", "bogus"]).is_err());
        assert!(obs(&["--obs-out", "o.json", "--obs-format", "bogus"]).is_err());
    }

    #[test]
    fn trace_flag_parsing() {
        let args: Vec<String> = ["--trace-out", "t.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = trace_flags(&args).unwrap();
        assert_eq!(flags.out.as_deref(), Some("t.json"));
        assert_eq!(flags.summary, None);
        let both: Vec<String> = ["--trace-out", "t.json", "--trace-summary", "s.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = trace_flags(&both).unwrap();
        assert_eq!(flags.summary.as_deref(), Some("s.json"));
        assert!(trace_flags(&["--out".to_owned()]).is_none());
    }

    #[test]
    fn trace_summary_has_cells_groups_and_exact_attribution() {
        let spec = SweepSpec::new("trace-fmt")
            .solutions([Solution::MwCallback])
            .variation("tiny", RunParams::default().subscribers(2).rounds(1));
        let report = run_sweep(&spec, 1);
        let json = report.trace_summary_json();
        assert!(json.starts_with("{\n  \"sweep\": \"trace-fmt\""));
        assert!(json.contains("\"cells\": ["));
        assert!(json.contains("\"groups\": ["));
        assert!(json.contains("\"breakdown_us\": {"));
        assert!(json.contains("\"nesting_errors\": 0"));
        // The summary is self-checking through the golden tests; here we
        // re-derive the invariant from the raw trees.
        for r in &report.results {
            for tree in trace_trees(r.obs.events()) {
                tree.check_nesting().unwrap();
                if let Some(b) = tree.breakdown() {
                    assert_eq!(
                        b.handler_us + b.queue_us + b.link_us + b.retransmit_us,
                        b.end_to_end_us
                    );
                }
            }
        }
    }

    #[test]
    fn json_contains_cells_and_groups() {
        let spec = SweepSpec::new("fmt")
            .solutions([Solution::MwCallback])
            .variation("tiny", RunParams::default().subscribers(2).rounds(1));
        let report = run_sweep(&spec, 1);
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"sweep\": \"fmt\""));
        assert!(json.contains("\"cells\": ["));
        assert!(json.contains("\"groups\": ["));
        assert!(json.contains("\"target\": \"mw-callback\""));
        assert!(json.contains("\"virtual_us\": "));
        assert!(!json.contains("wall"), "wall time is sidecar-only");
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn timing_sidecar_has_wall_and_virtual_per_cell() {
        let spec = SweepSpec::new("timing")
            .solutions([Solution::MwCallback])
            .variation("tiny", RunParams::default().subscribers(2).rounds(1))
            .seeds([7, 8]);
        let report = run_sweep(&spec, 1);
        let timing = report.timing_json();
        assert!(timing.starts_with("{\n  \"sweep\": \"timing\""));
        assert!(timing.contains("\"threads\": 1"));
        assert_eq!(
            timing.matches("\"wall_ms\": ").count(),
            3,
            "total + 2 cells"
        );
        assert_eq!(timing.matches("\"virtual_us\": ").count(), 2);
        for r in &report.results {
            assert!(r.wall > std::time::Duration::ZERO);
        }
    }
}
