//! Smoke runs of the crate's targets, which no other suite runs: every
//! `reproduce` artefact once at a seconds-long size, its refusal of bad
//! flags, and the five criterion benches — on-demand ablations that gate
//! nothing — once each in the shim's `--test` smoke mode. One that stops
//! building, panics or stops writing its output is seen here.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

#[test]
fn every_artefact_runs_and_writes_its_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    for artefact in bench::ARTEFACTS {
        let name = artefact.name;
        let file = |ext: &str| dir.join(format!("{name}.{ext}"));
        // A file left by an earlier run must not pass for this run's.
        for ext in ["csv", "svg"] {
            let _ = fs::remove_file(file(ext));
        }
        let mut args = vec![name];
        for (flag, small) in [("--ssets", "8"), ("--generations", "2000")] {
            if artefact.flags.iter().any(|f| f.name() == flag) {
                args.extend([flag, small]);
            }
        }
        let out = reproduce(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: {}\n{stdout}\n{stderr}", out.status);
        let written = |ext| fs::metadata(file(ext)).is_ok_and(|m| m.len() > 0);
        assert!(written("csv"), "{name} wrote no CSV:\n{stdout}");
        let draws = stdout.contains("SVG written to");
        assert_eq!(written("svg"), draws, "{name}: SVG reported {draws}:\n{stdout}");
    }
}

#[test]
fn bad_arguments_exit_1_naming_the_culprit() {
    for (args, culprit) in [
        (&[][..], "usage"),
        (&["fig9"][..], "fig9"),
        (&["fig2", "--ssets", "abc", "--generations", "2000"][..], "--ssets"),
        (&["fig2", "--generaions", "10"][..], "--generaions"),
        (&["fig2", "--ssets"][..], "--ssets"),
        (&["fig2", "--seed", "1", "--seed", "2"][..], "--seed"),
        (&["sweep", "--noise", "0.1"][..], "--noise"),
        (&["table6", "--ssets", "8"][..], "--ssets"),
    ] {
        let out = reproduce(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(culprit), "{args:?} does not name {culprit}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before refusing");
    }
}

#[test]
fn every_ablation_bench_runs_once_in_smoke_mode() {
    for name in [
        "game_kernel",
        "state_lookup",
        "strategy_repr",
        "rng_streams",
        "comm_pattern",
    ] {
        let out = Command::new(env!("CARGO"))
            .args(["bench", "-p", "bench", "--bench", name, "--", "--test"])
            .output()
            .expect("spawn cargo bench");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name}: {}\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("test-mode {name}/"))),
            "{name} ran no benchmark body:\n{stdout}"
        );
    }
}
