//! Soak test: long randomized fault campaigns across all six paper
//! solutions, conformance-checked every cell.
//!
//! Each seed deterministically derives a partition/heal campaign (which
//! node pair is cut, when, and whether it heals) via the simulator's own
//! SplitMix64 generator, and the grid crosses every campaign with every
//! solution under both a clean LAN and a 10%-loss link. The safety claim
//! under test is the paper's: whatever the interaction system does —
//! drop or partition — the observable trace never violates the
//! floor-control service definition. Completion is reported but *not*
//! asserted: an unhealed partition legitimately stalls a workload; it
//! must never corrupt it.
//!
//! Duplication is deliberately excluded from that grid: the Figure 6
//! PDU sets carry no correlation ids, so duplicate suppression is the
//! job of the reliability sub-layer, not the entities. A second leg
//! runs the one solution that mounts it (ProtoCallback +
//! [`ReliabilityConfig`]) through the same campaigns on a
//! lossy-*and*-duplicating link, where healed campaigns must not only
//! stay conformant but complete.
//!
//! ```text
//! cargo run --release -p svckit-bench --bin soak -- \
//!     [--seeds <n>] [--threads <n>] [--out SWEEP_soak.json] \
//!     [--obs-out <path>] [--obs-format jsonl|chrome] [--quiet|-v]
//! ```
//!
//! A second mode, `--clients N`, runs the *scale soak* instead: `N`
//! polling/callback clients against `--servers K` floor servers on the
//! raw netsim core (optionally sharded with `--shards S`), printing
//! events/sec and the peak number of pending events (live timers +
//! in-flight messages) and writing a canonical virtual-time-only JSON
//! that is byte-identical for every shard count — CI `cmp`s `--shards 4`
//! against `--shards 1`:
//!
//! ```text
//! cargo run --release -p svckit-bench --bin soak -- \
//!     --clients 100000 [--servers 4] [--rounds 2] [--shards 4] \
//!     [--seed 42] [--out SOAK_scale.json]
//! ```
//!
//! With `--features obs`, `--obs-out` captures per-cell instrumentation
//! (virtual-time spans, counters, per-link stats) as JSONL or a Chrome
//! trace loadable in Perfetto; output is byte-identical across
//! `--threads` values and repeated same-seed runs.

use svckit::floorctl::{proto, FaultEvent, RunParams, Solution};
use svckit::model::Duration;
use svckit::netsim::{DeterministicRng, LinkConfig};
use svckit::protocol::ReliabilityConfig;
use svckit_bench::scale::{run_scale_soak, ScaleConfig};
use svckit_sweep::{
    check_flags, default_threads, fail, flag_usize, flag_value, outln, output_flags, run_sweep,
    shards_flag, verbosity, SweepReport, SweepSpec, VERBOSITY_SWITCHES,
};

/// Derives one fault campaign from a seed: a partition of a random node
/// pair (subscriber↔controller or subscriber↔subscriber) at a random time
/// inside the early workload, healed a few milliseconds later — except
/// every fourth campaign, which never heals (the stall-but-stay-safe
/// case).
fn campaign_from_seed(seed: u64, subscribers: u64) -> (String, Vec<FaultEvent>) {
    let mut rng = DeterministicRng::new(seed.wrapping_mul(0x9E37_79B9));
    let a = proto::subscriber_part(1 + rng.next_below(subscribers));
    let b = if rng.coin(0.5) {
        proto::controller_part()
    } else {
        // A subscriber pair; distinct from `a` by construction.
        let mut k = 1 + rng.next_below(subscribers);
        if proto::subscriber_part(k) == a {
            k = 1 + (k % subscribers);
        }
        proto::subscriber_part(k)
    };
    let cut_at = Duration::from_micros(1_000 + rng.next_below(8_000));
    let heals = !seed.is_multiple_of(4);
    let mut events = vec![FaultEvent::partition(cut_at, a, b)];
    let label = if heals {
        let heal_at = Duration::from_micros(cut_at.as_micros() + 2_000 + rng.next_below(10_000));
        events.push(FaultEvent::heal(heal_at, a, b));
        format!("s{seed}:cut-heal")
    } else {
        format!("s{seed}:cut")
    };
    (label, events)
}

/// Counts conformance violations (printing one line each) and completions.
fn audit(report: &SweepReport) -> (usize, usize) {
    let mut violations = 0usize;
    let mut completed = 0usize;
    for r in &report.results {
        if !r.outcome.conformant {
            violations += 1;
            eprintln!(
                "CONFORMANCE VIOLATION: {} {} {} seed {} ({} violation(s))",
                r.target_label,
                r.variation_label,
                r.campaign_label,
                r.cell.seed,
                r.outcome.violations
            );
        }
        completed += usize::from(r.outcome.completed);
    }
    (violations, completed)
}

/// `--<name>` as an integer of at least `min`, or `default` when absent.
/// A malformed or too-small value is an `error:` exit, not a panic.
fn count_flag(args: &[String], name: &str, default: u64, min: u64) -> u64 {
    let Some(value) = flag_value(args, name) else {
        return default;
    };
    match value.parse::<u64>() {
        Ok(n) if n >= min => n,
        _ => fail(&format!(
            "--{name} expects an integer >= {min}, got {value:?}"
        )),
    }
}

/// The `--clients N` mode: one big raw-netsim cell instead of the
/// campaign grid. Exits the process when done.
fn run_scale_mode(args: &[String]) -> ! {
    check_flags(
        args,
        &["clients", "servers", "rounds", "shards", "seed", "out"],
        &[],
    )
    .unwrap_or_else(|e| fail(&e));
    let rounds = count_flag(args, "rounds", 2, 0);
    let shards = count_flag(args, "shards", 1, 0);
    let cfg = ScaleConfig {
        clients: count_flag(args, "clients", 0, 2),
        servers: count_flag(args, "servers", 4, 1),
        rounds: u32::try_from(rounds)
            .unwrap_or_else(|_| fail(&format!("--rounds {rounds} is too large"))),
        shards: u32::try_from(shards)
            .unwrap_or_else(|_| fail(&format!("--shards {shards} is too large"))),
        seed: count_flag(args, "seed", 42, 0),
    };
    // Open the output before the run, so an unwritable path fails fast.
    let path = flag_value(args, "out").unwrap_or_else(|| "SOAK_scale.json".to_owned());
    let mut file =
        std::fs::File::create(&path).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
    outln!(
        "scale soak: {} clients x {} rounds over {} servers, {} shard(s)",
        cfg.clients,
        cfg.rounds,
        cfg.servers,
        cfg.shards
    );
    let out = run_scale_soak(&cfg);
    if !out.quiescent {
        fail("scale soak did not finish inside the virtual-time cap");
    }
    outln!(
        "  {} events in {:.2}s wall = {:.0} events/sec",
        out.events,
        out.wall_secs,
        out.events_per_sec
    );
    outln!(
        "  peak pending events (live timers + in-flight messages): {}",
        out.peak_pending
    );
    outln!(
        "  virtual end {:.3}s, {} messages delivered",
        out.end_us as f64 / 1e6,
        out.messages_delivered
    );
    if let Err(e) = std::io::Write::write_all(&mut file, out.to_canonical_json().as_bytes()) {
        fail(&format!("cannot write {path}: {e}"));
    }
    outln!("wrote {path} (canonical: byte-identical across --shards)");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if flag_value(&args, "clients").is_some() {
        run_scale_mode(&args);
    }
    check_flags(
        &args,
        &[
            "seeds",
            "threads",
            "out",
            "obs-out",
            "obs-format",
            "filter",
            "shards",
        ],
        VERBOSITY_SWITCHES,
    )
    .unwrap_or_else(|e| fail(&e));
    let seeds = flag_usize(&args, "seeds", 8).unwrap_or_else(|e| fail(&e)) as u64;
    let threads = flag_usize(&args, "threads", default_threads()).unwrap_or_else(|e| fail(&e));
    let (out, obs) = output_flags(&args, "SWEEP_soak.json").unwrap_or_else(|e| fail(&e));
    let verbose = verbosity(&args);

    let subscribers = 4u64;
    let base = RunParams::default()
        .subscribers(subscribers)
        .resources(2)
        .rounds(3)
        .time_cap(Duration::from_secs(60));
    let lossy = LinkConfig::lossy(Duration::from_millis(1), Duration::from_micros(200), 0.10);

    let mut spec = SweepSpec::new("soak")
        .solutions(Solution::PAPER)
        .variation("lan", base.clone())
        .variation("lossy10", base.clone().link(lossy.clone()))
        .seeds(1..=seeds);
    // The second leg: the reliability-equipped callback protocol takes the
    // same campaigns over a link that also duplicates 5% of messages.
    let mut reliable_spec = SweepSpec::new("soak_reliable")
        .solutions([Solution::ProtoCallback])
        .variation_with_reliability(
            "lossy10+dup5+rel",
            base.link(lossy.with_duplication(0.05)),
            ReliabilityConfig::new(Duration::from_millis(8)),
        )
        .seeds(1..=seeds);
    for seed in 1..=seeds {
        let (label, events) = campaign_from_seed(seed, subscribers);
        spec = spec.campaign(label.clone(), events.clone());
        reliable_spec = reliable_spec.campaign(label, events);
    }
    if let Some(needle) = flag_value(&args, "filter") {
        spec = spec.filter(needle.clone());
        reliable_spec = reliable_spec.filter(needle);
    }
    if let Some(shards) = shards_flag(&args).unwrap_or_else(|e| fail(&e)) {
        // Campaign cells stay byte-identical under any shard count; the
        // flag exists so CI can prove it on the full fault grid too.
        spec = spec.shards(shards);
        reliable_spec = reliable_spec.shards(shards);
    }

    outln!(
        "soak: {} solutions x 2 links x {} campaigns x {} seeds = {} cells (+{} reliable), {} threads\n",
        Solution::PAPER.len(),
        seeds,
        seeds,
        spec.cells().len(),
        reliable_spec.cells().len(),
        threads
    );
    let report = run_sweep(&spec, threads);
    let reliable = run_sweep(&reliable_spec, threads);

    let (violations, completed) = audit(&report);
    let (rel_violations, rel_completed) = audit(&reliable);

    report.print_table();
    outln!();
    reliable.print_table();
    outln!();
    outln!(
        "{} cells: {} conformant, {} completed ({} stalled under faults, by design)",
        report.results.len(),
        report.results.len() - violations,
        completed,
        report.results.len() - completed
    );
    outln!(
        "{} reliable cells: {} conformant, {} completed",
        reliable.results.len(),
        reliable.results.len() - rel_violations,
        rel_completed
    );
    report.write_json(&out).unwrap_or_else(|e| fail(&e));
    let reliable_out = match out.strip_suffix(".json") {
        Some(stem) => format!("{stem}_reliable.json"),
        None => format!("{out}.reliable"),
    };
    reliable
        .write_json(&reliable_out)
        .unwrap_or_else(|e| fail(&e));

    if let Some((obs_path, format)) = obs {
        report
            .write_obs(&obs_path, format)
            .unwrap_or_else(|e| fail(&e));
        let reliable_obs = match obs_path.rsplit_once('.') {
            Some((stem, ext)) => format!("{stem}_reliable.{ext}"),
            None => format!("{obs_path}_reliable"),
        };
        reliable
            .write_obs(&reliable_obs, format)
            .unwrap_or_else(|e| fail(&e));
        verbose.info(&format!(
            "wrote obs {obs_path} + {reliable_obs} ({format:?})"
        ));
    }
    if svckit::obs::sites_enabled() {
        verbose.sink_summary("soak", &report.obs_total());
        verbose.sink_summary("soak_reliable", &reliable.obs_total());
    }

    // Healed campaigns with retransmission must do better than stall: every
    // grant eventually lands despite loss, duplication and the partition.
    let unfinished_healed = reliable
        .results
        .iter()
        .filter(|r| r.campaign_label.ends_with(":cut-heal") && !r.outcome.completed)
        .count();

    let total_violations = violations + rel_violations;
    if total_violations > 0 {
        eprintln!("\nsoak: {total_violations} cell(s) violated the service definition");
        std::process::exit(1);
    }
    if unfinished_healed > 0 {
        eprintln!(
            "\nsoak: {unfinished_healed} reliable healed-campaign cell(s) failed to complete"
        );
        std::process::exit(1);
    }
    outln!("soak: every cell conformant");
}
