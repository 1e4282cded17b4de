//! Every bench binary fails cleanly in a bad environment. A bad flag, a
//! flag without its value, an output path that cannot be written and a
//! closed stdout each end the run with exactly one `error:` line on
//! stderr and exit code 1 — never a panic.

use std::process::{Command, Stdio};

/// The binaries, with the arguments of each run: `bad` holds a flag the
/// binary refuses, and `quiet` makes a run that reaches its first line of
/// stdout quickly. Binaries that take no flags (or no `--out`) refuse the
/// `--out` run as an unexpected argument. `obs` marks the binaries that
/// take `--obs-out` / `--obs-format`.
struct Bin {
    name: &'static str,
    path: &'static str,
    bad: Vec<String>,
    quiet: Vec<String>,
    obs: bool,
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

fn bins() -> Vec<Bin> {
    let tmp = env!("CARGO_TARGET_TMPDIR");
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let no_flags = |name, path| Bin {
        name,
        path,
        bad: args(&["--no-such-flag"]),
        quiet: Vec::new(),
        obs: false,
    };
    let with_out = |name: &'static str, path| Bin {
        name,
        path,
        bad: args(&["--threads", "nope"]),
        quiet: vec!["--out".to_owned(), format!("{tmp}/closed_pipe_{name}.json")],
        obs: true,
    };
    vec![
        no_flags(
            "exp_fig10_trajectory",
            env!("CARGO_BIN_EXE_exp_fig10_trajectory"),
        ),
        no_flags(
            "exp_fig11_milestones",
            env!("CARGO_BIN_EXE_exp_fig11_milestones"),
        ),
        no_flags(
            "exp_fig12_recursion",
            env!("CARGO_BIN_EXE_exp_fig12_recursion"),
        ),
        no_flags(
            "exp_fig5_conformance",
            env!("CARGO_BIN_EXE_exp_fig5_conformance"),
        ),
        no_flags("exp_fig89_views", env!("CARGO_BIN_EXE_exp_fig89_views")),
        no_flags(
            "exp_ring_management",
            env!("CARGO_BIN_EXE_exp_ring_management"),
        ),
        with_out(
            "exp_fig4_middleware",
            env!("CARGO_BIN_EXE_exp_fig4_middleware"),
        ),
        with_out("exp_fig6_protocol", env!("CARGO_BIN_EXE_exp_fig6_protocol")),
        with_out(
            "exp_fig7_scattering",
            env!("CARGO_BIN_EXE_exp_fig7_scattering"),
        ),
        with_out("exp_paradigms", env!("CARGO_BIN_EXE_exp_paradigms")),
        with_out(
            "exp_platform_selection",
            env!("CARGO_BIN_EXE_exp_platform_selection"),
        ),
        with_out("hotpath", env!("CARGO_BIN_EXE_hotpath")),
        with_out("soak", env!("CARGO_BIN_EXE_soak")),
        Bin {
            name: "perfgate",
            path: env!("CARGO_BIN_EXE_perfgate"),
            bad: args(&["--fresh", baseline, "--tolerance", "nope"]),
            quiet: args(&["--baseline", baseline, "--fresh", baseline]),
            obs: false,
        },
        Bin {
            name: "floorctl",
            path: env!("CARGO_BIN_EXE_floorctl"),
            bad: args(&["--no-such-flag"]),
            quiet: args(&["--help"]),
            obs: false,
        },
    ]
}

/// Runs `bin` with `args` (stdout closed when `closed_stdout`) and
/// asserts the clean failure.
fn assert_fails_cleanly(bin: &Bin, args: &[String], closed_stdout: bool, what: &str) {
    let mut command = Command::new(bin.path);
    command.args(args).stdin(Stdio::null());
    if closed_stdout {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        command.stdout(writer);
    } else {
        command.stdout(Stdio::null());
    }
    let output = command.output().expect("the binary starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
    assert!(
        output.status.code() == Some(1) && errors == 1 && !stderr.contains("panicked"),
        "{} ({what}): exit {:?}, stderr:\n{stderr}",
        bin.name,
        output.status.code()
    );
}

#[test]
fn every_bench_binary_fails_with_one_error_line() {
    // A path no process can create, whatever its privileges: its parent
    // is a regular file.
    let unwritable = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out.json");
    let bins = bins();
    let mut listed: Vec<&str> = bins.iter().map(|bin| bin.name).collect();
    listed.sort_unstable();
    let mut on_disk: Vec<String> =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin"))
            .expect("src/bin is readable")
            .map(|entry| {
                entry
                    .expect("a directory entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter_map(|file| file.strip_suffix(".rs").map(str::to_owned))
            .collect();
    on_disk.sort_unstable();
    assert_eq!(listed, on_disk, "one entry per binary in src/bin");
    // Every binary lists the flags it reads: an unknown one (with a
    // value, as a mistyped flag usually has) fails before any work.
    let unknown = args(&["--no-such-flag", "1"]);
    // A known flag with no value fails too, instead of running on its
    // default.
    let trailing = args(&["--out"]);
    // An unknown obs format fails even when no `--obs-out` would use it.
    let bad_format = args(&["--obs-format", "bogus"]);
    for bin in &bins {
        if bin.obs {
            assert_fails_cleanly(bin, &bad_format, false, "bad --obs-format");
        }
        assert_fails_cleanly(bin, &bin.bad, false, "bad flag");
        assert_fails_cleanly(bin, &unknown, false, "unknown flag");
        assert_fails_cleanly(bin, &trailing, false, "trailing --out");
        let out = vec!["--out".to_owned(), unwritable.to_owned()];
        assert_fails_cleanly(bin, &out, false, "unwritable --out");
        assert_fails_cleanly(bin, &bin.quiet, true, "closed stdout");
    }
}
