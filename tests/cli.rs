//! End-to-end tests of the `evogame-cli` binary, exactly as a user would
//! drive it.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_evogame-cli"))
}

fn run_ok(args: &[&str]) -> (String, String) {
    let out = cli().args(args).output().expect("spawn cli");
    assert!(
        out.status.success(),
        "{:?} failed: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = cli().output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_command_fails_gracefully() {
    let out = cli().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn run_emits_csv_trajectory() {
    let (stdout, stderr) = run_ok(&[
        "run",
        "--ssets",
        "8",
        "--generations",
        "40",
        "--rounds",
        "10",
        "--sample-every",
        "20",
        "--on-demand",
    ]);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("generation,cooperativity"));
    assert_eq!(lines.len(), 1 + 3, "gen 0, 20, 40");
    assert!(stderr.contains("40 generations"));
}

#[test]
fn run_is_deterministic_per_seed() {
    let args = [
        "run", "--ssets", "10", "--generations", "60", "--rounds", "8", "--seed", "5",
    ];
    let (a, _) = run_ok(&args);
    let (b, _) = run_ok(&args);
    assert_eq!(a, b);
    let (c, _) = run_ok(&[
        "run", "--ssets", "10", "--generations", "60", "--rounds", "8", "--seed", "6",
    ]);
    assert_ne!(a, c);
}

#[test]
fn run_writes_records_file() {
    let path = std::env::temp_dir().join("evogame_cli_test_records.jsonl");
    let _ = std::fs::remove_file(&path);
    run_ok(&[
        "run",
        "--ssets",
        "6",
        "--generations",
        "25",
        "--rounds",
        "8",
        "--records",
        path.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&path).expect("records written");
    assert_eq!(text.lines().count(), 25);
    // Every line parses as a generation record.
    let recs = evogame::engine::record::read_generations(&text).expect("valid JSONL");
    assert_eq!(recs.len(), 25);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn run_rejects_bad_rule() {
    let out = cli()
        .args(["run", "--rule", "telepathy"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown rule"));
}

#[test]
fn tournament_prints_standings() {
    let (stdout, _) = run_ok(&["tournament", "--mem", "1", "--reps", "2", "--rounds", "50"]);
    assert!(stdout.contains("rank"));
    assert!(stdout.contains("TFT"));
    assert!(stdout.contains("winner:"));
}

#[test]
fn predict_reports_paper_headline() {
    let (stdout, _) = run_ok(&["predict", "--procs", "262144"]);
    assert!(stdout.contains("predicted total"));
    assert!(stdout.contains("efficiency vs 1024 procs: 82"));
}

#[test]
fn distributed_runs_and_reports() {
    let (stdout, _) = run_ok(&[
        "distributed",
        "--ranks",
        "3",
        "--ssets",
        "6",
        "--generations",
        "30",
        "--rounds",
        "8",
    ]);
    assert!(stdout.contains("distributed run on 3 ranks"));
    assert!(stdout.contains("messages"));
}

#[test]
fn classify_names_wsls() {
    let (stdout, _) = run_ok(&["classify", "m1:6"]);
    assert!(stdout.contains("exactly WSLS"));
    let (gtft, _) = run_ok(&["classify", "m1:p:1,0.6666666666666666,1,0.6666666666666666"]);
    assert!(gtft.contains("GTFT"));
}

#[test]
fn classify_rejects_malformed_codes() {
    let out = cli().args(["classify", "m1:zz"]).output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn checkpoint_every_without_out_rejected_identically_by_both_engines() {
    // Satellite contract: `run` and `distributed` validate the
    // checkpoint flag pair the same way, with the same message.
    let mut errors = Vec::new();
    for sub in ["run", "distributed"] {
        let out = cli()
            .args([
                sub, "--ssets", "6", "--generations", "10", "--checkpoint-every", "5",
            ])
            .output()
            .expect("spawn");
        assert!(
            !out.status.success(),
            "{sub} must reject --checkpoint-every without --checkpoint-out"
        );
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(
            stderr.contains("--checkpoint-every needs --checkpoint-out FILE"),
            "{sub} stderr: {stderr}"
        );
        errors.push(stderr.lines().last().unwrap_or("").to_string());
    }
    assert_eq!(errors[0], errors[1], "identical validation in both engines");
}

/// One JSONL job-request line for the serve tests.
fn job_line(id: &str, extra: &str) -> String {
    use evogame::prelude::*;
    let params = Params {
        num_ssets: 12,
        generations: 60,
        seed: 7,
        pc_rate: 0.25,
        ..Params::default()
    };
    let params_json = serde_json::to_string(&params).expect("params serialise");
    if extra.is_empty() {
        format!("{{\"id\":\"{id}\",\"params\":{params_json}}}")
    } else {
        format!("{{\"id\":\"{id}\",\"params\":{params_json},{extra}}}")
    }
}

#[test]
fn serve_runs_mixed_batch_with_deterministic_receipts() {
    let base = std::env::temp_dir().join(format!("evogame_serve_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let requests = base.join("jobs.jsonl");
    let lines = [
        job_line("clean-shared", ""),
        job_line("clean-dist", "\"backend\":{\"Distributed\":{\"ranks\":4}}"),
        job_line(
            "faulty-dist",
            "\"backend\":{\"Distributed\":{\"ranks\":4}},\"retry_budget\":2,\
             \"faults\":{\"kills\":[{\"rank\":2,\"generation\":30}],\"recv_timeout_ms\":200}",
        ),
    ];
    std::fs::write(&requests, lines.join("\n") + "\n").unwrap();

    let serve = |spool: &std::path::Path| -> (String, String) {
        run_ok(&[
            "serve",
            "--requests",
            requests.to_str().unwrap(),
            "--spool",
            spool.to_str().unwrap(),
        ])
    };
    let spool1 = base.join("spool1");
    let spool2 = base.join("spool2");
    let (stdout, stderr) = serve(&spool1);
    let (stdout2, _) = serve(&spool2);

    // All three jobs completed; the killed-rank job auto-retried.
    for id in ["clean-shared", "clean-dist", "faulty-dist"] {
        assert!(stdout.contains(&format!("job {id}: completed")), "{stdout}");
    }
    assert!(stdout.contains("faulty-dist: completed | state digest"), "{stdout}");
    assert!(stdout.contains("retries 1"), "retry visible in summary: {stdout}");
    assert!(stderr.contains("retried 1"), "retry counted: {stderr}");
    assert_eq!(stdout, stdout2, "re-running the same submission file is bit-identical");

    // Receipts exist and carry identical digests across the two runs —
    // and the shared and distributed backends agree on the same state.
    let digest = |spool: &std::path::Path, id: &str| -> String {
        let text =
            std::fs::read_to_string(spool.join(id).join("receipt.json")).expect("receipt spooled");
        let receipt: serde::Value = serde_json::from_str(&text).unwrap();
        match receipt.get("state_digest") {
            Some(serde::Value::Str(s)) => s.clone(),
            other => panic!("receipt missing state_digest: {other:?}"),
        }
    };
    let d1 = digest(&spool1, "clean-shared");
    for id in ["clean-shared", "clean-dist", "faulty-dist"] {
        assert_eq!(digest(&spool1, id), digest(&spool2, id), "{id} deterministic");
        assert_eq!(digest(&spool1, id), d1, "{id} agrees with the shared-memory digest");
    }
    // The shared job streamed its full record trail.
    let records = std::fs::read_to_string(spool1.join("clean-shared/records.jsonl")).unwrap();
    assert_eq!(records.lines().count(), 60);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn serve_reports_rejections_and_exits_nonzero() {
    let base = std::env::temp_dir().join(format!("evogame_serve_rej_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let requests = base.join("jobs.jsonl");
    // One good job, one malformed line, one duplicate id.
    let lines = [job_line("ok", ""), "not json at all".to_string(), job_line("ok", "")];
    std::fs::write(&requests, lines.join("\n") + "\n").unwrap();
    let out = cli()
        .args([
            "serve",
            "--requests",
            requests.to_str().unwrap(),
            "--spool",
            base.join("spool").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(4), "partial failure exit code");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("job ok: completed"), "{stdout}");
    assert!(stderr.contains("not a job request"), "{stderr}");
    assert!(stderr.contains("duplicate job id"), "{stderr}");
    assert!(stderr.contains("2 rejected"), "{stderr}");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn serve_requires_spool_dir() {
    let out = cli().args(["serve"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--spool"));
}

/// The three checkpoint families, as the hostile-checkpoint matrix sees
/// them: the resuming subcommand, the fixture the parent commit's CLI
/// wrote (tests/fixtures/), the digest the uninterrupted run printed
/// when the fixture was recorded, and how a wrong-kind error names the
/// kind the subcommand expected.
const FAMILIES: [(&str, &str, &str, &str); 3] = [
    (
        "distributed",
        "checkpoint_wellmixed.json",
        "93a85b702db77b54",
        "not a checkpoint",
    ),
    (
        "spatial",
        "checkpoint_spatial.json",
        "5fa0ccaa274d8ee5",
        "not a spatial checkpoint",
    ),
    (
        "fixate",
        "checkpoint_fixation.json",
        "43956cd242f3ba76",
        "not a fixation checkpoint",
    ),
];

#[test]
fn resume_accepts_only_its_own_checkpoint_kind() {
    // Every subcommand × every family's checkpoint, plus a truncated file,
    // through the one checkpoint reader: the diagonal resumes to the
    // recorded digest of the uninterrupted run (so checkpoints written
    // before the reader was unified still load), every other cell exits 1
    // naming the kind it wanted — never a panic (exit 101), never a silent
    // cross-family resume.
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let truncated = std::env::temp_dir().join(format!(
        "evogame_truncated_checkpoint_{}.json",
        std::process::id()
    ));
    let whole = std::fs::read(fixtures.join(FAMILIES[0].1)).unwrap();
    std::fs::write(&truncated, &whole[..whole.len() / 2]).unwrap();

    for (command, own, digest, wanted) in FAMILIES {
        let mut files: Vec<std::path::PathBuf> =
            FAMILIES.iter().map(|f| fixtures.join(f.1)).collect();
        files.push(truncated.clone());
        for file in files {
            let out = cli()
                .args([command, "--ranks", "3", "--resume"])
                .arg(&file)
                .output()
                .expect("spawn");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let cell = format!("{command} --resume {}", file.display());
            if file.ends_with(own) {
                assert!(out.status.success(), "{cell}: {stderr}");
                assert!(
                    stderr.contains(&format!("state digest: {digest}")),
                    "{cell}: {stderr}"
                );
            } else {
                assert_eq!(out.status.code(), Some(1), "{cell}: {stderr}");
                assert!(stderr.contains(wanted), "{cell}: {stderr}");
                assert!(!stderr.contains("state digest"), "{cell}: {stderr}");
            }
        }
    }
    let _ = std::fs::remove_file(truncated);

    // In-family hostile inputs: the right kind of file, with tables that do
    // not hold together. Every backend must refuse it by name before any
    // engine code indexes with it — exit 1, never a panic, a hung rank or
    // a digest of some other population.
    use evogame::engine::fixation::FixationCheckpoint;
    use evogame::engine::record::Checkpoint;
    use evogame::engine::spatial::SpatialCheckpoint;
    let load = |name: &str| std::fs::read_to_string(fixtures.join(name)).unwrap();
    let well_mixed: Checkpoint = serde_json::from_str(&load(FAMILIES[0].1)).unwrap();
    let lattice: SpatialCheckpoint = serde_json::from_str(&load(FAMILIES[1].1)).unwrap();
    let batch: FixationCheckpoint = serde_json::from_str(&load(FAMILIES[2].1)).unwrap();
    let mut cells: Vec<(&[&str], &str, String, &str)> = Vec::new();
    const WELL_MIXED: [&[&str]; 2] = [&["run"], &["distributed", "--ranks", "3"]];
    const LATTICE: [&[&str]; 2] = [&["spatial"], &["spatial", "--ranks", "3"]];
    const BATCH: [&[&str]; 2] = [&["fixate"], &["fixate", "--ranks", "3"]];
    for command in WELL_MIXED {
        let json = |edit: &dyn Fn(&mut Checkpoint)| {
            let mut cp = well_mixed.clone();
            edit(&mut cp);
            serde_json::to_string(&cp).unwrap()
        };
        cells.push((command, "bad_id", json(&|cp| cp.assignments[0] = 9999), "unknown strategy id 9999"));
        cells.push((command, "wrong_length", json(&|cp| cp.assignments.truncate(3)), "3 strategy assignments"));
        cells.push((command, "duplicate_pool", json(&|cp| cp.pool[1] = cp.pool[0].clone()), "duplicates"));
        cells.push((command, "future_schema", json(&|cp| cp.schema_version = 99), "schema version 99"));
    }
    for command in LATTICE {
        let json = |edit: &dyn Fn(&mut SpatialCheckpoint)| {
            let mut cp = lattice.clone();
            edit(&mut cp);
            serde_json::to_string(&cp).unwrap()
        };
        cells.push((command, "bad_id", json(&|cp| cp.grid[0] = 9999), "unknown strategy id 9999"));
        cells.push((command, "wrong_length", json(&|cp| cp.grid.truncate(3)), "3 strategy assignments"));
        cells.push((command, "duplicate_pool", json(&|cp| cp.pool[1] = cp.pool[0].clone()), "duplicates"));
        cells.push((command, "future_schema", json(&|cp| cp.schema_version = 99), "schema version 99"));
    }
    // A fixation checkpoint carries no strategy tables, and stray
    // `completed` entries are normalised by design: the schema is the
    // hostile input it has.
    for command in BATCH {
        let mut cp = batch.clone();
        cp.schema_version = 99;
        cells.push((command, "future_schema", serde_json::to_string(&cp).unwrap(), "schema version 99"));
    }
    for (command, case, json, names) in cells {
        let file = std::env::temp_dir().join(format!(
            "evogame_hostile_{}_{}_{case}_{}.json",
            command[0],
            command.len(),
            std::process::id()
        ));
        std::fs::write(&file, json).unwrap();
        let out = cli().args(command).arg("--resume").arg(&file).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let cell = format!("{command:?} --resume {case}");
        assert_eq!(out.status.code(), Some(1), "{cell}: {stderr}");
        assert!(stderr.contains(&*file.to_string_lossy()), "{cell} must name the file: {stderr}");
        assert!(stderr.contains(names), "{cell}: {stderr}");
        assert!(!stderr.contains("state digest"), "{cell}: {stderr}");
        let _ = std::fs::remove_file(file);
    }
}

#[test]
fn killed_rank_exits_3_with_a_checkpoint_that_resumes_to_the_clean_digest() {
    // The degraded-exit contract (docs/FAULT_TOLERANCE.md), per family at
    // scripts/verify.sh's smoke shapes: a rank kill ends the run with exit
    // code 3 and a restart hint naming the checkpoint, and resuming from it
    // lands on the unkilled run's state digest.
    const SHAPES: [(&[&str], &str); 3] = [
        (&["--ssets", "12", "--generations", "60", "--seed", "7", "--pc-rate", "0.25"], "30"),
        (&["--width", "12", "--height", "12", "--generations", "40", "--seed", "11", "--update", "fermi", "--beta", "0.8"], "20"),
        (&["--replicates", "16", "--ssets", "8", "--generations", "150", "--seed", "7", "--rounds", "10", "--rule", "moran"], "6"),
    ];
    let digest_line = |stderr: &str| {
        let line = stderr.lines().find(|l| l.contains("state digest"));
        line.unwrap_or_else(|| panic!("no state digest in: {stderr}")).to_owned()
    };
    for ((command, ..), (shape, kill_at)) in FAMILIES.iter().zip(SHAPES) {
        let (_, clean) = run_ok(&[&[command, "--ranks", "3"], shape].concat());
        let file = std::env::temp_dir().join(format!(
            "evogame_killed_{command}_{}.json",
            std::process::id()
        ));
        let path = file.to_string_lossy();
        let out = cli()
            .args([command, "--ranks", "3"])
            .args(shape)
            .args(["--kill-rank", "1", "--kill-at", kill_at, "--recv-timeout-ms", "2000"])
            .args(["--checkpoint-out", &path])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{command}: {stderr}");
        let hint = format!("restart with: evogame-cli {command} --resume {path}");
        assert!(stderr.contains(&hint), "{command}: {stderr}");
        let (_, resumed) = run_ok(&[command, "--ranks", "3", "--resume", &path]);
        assert_eq!(digest_line(&resumed), digest_line(&clean), "{command}");
        let _ = std::fs::remove_file(file);
    }
}

/// The engine subcommands as one table: family, its shared-memory and its
/// clustered subcommand, a small shape, and the unit its progress counts.
const ENGINES: [(&str, &str, &[&str], &str); 3] = [
    ("run", "distributed", &["--ssets", "12", "--generations", "24", "--seed", "7", "--pc-rate", "0.25"], "generations"),
    ("spatial", "spatial", &["--width", "8", "--height", "8", "--generations", "12", "--seed", "11", "--init", "random:0.4"], "generations"),
    ("fixate", "fixate", &["--replicates", "12", "--ssets", "8", "--generations", "150", "--seed", "7", "--rounds", "10"], "replicates"),
];

fn digest_of(stderr: &str) -> String {
    let line = stderr.lines().find(|l| l.starts_with("state digest: "));
    line.unwrap_or_else(|| panic!("no state digest in: {stderr}")).to_owned()
}

fn digits(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
}

/// `… <N> <unit> in <X.XX>s …` somewhere in `text`.
fn has_progress_line(text: &str, unit: &str) -> bool {
    text.lines().any(|line| {
        let Some((before, after)) = line.split_once(&format!(" {unit} in ")) else {
            return false;
        };
        let count = before.rsplit(' ').next().unwrap_or("");
        let seconds = after.split('s').next().unwrap_or("");
        let decimals = seconds.split_once('.').map_or(0, |(_, d)| d.len());
        digits(count) && decimals == 2 && seconds.parse::<f64>().is_ok()
    })
}

#[test]
fn engine_subcommands_agree_across_backends_checkpoints_and_kills() {
    // {run/distributed, spatial, fixate} × {shared, --ranks 3} × {straight,
    // --checkpoint-out → --resume on either backend, kill → --resume}: one
    // digest per family, through the one generic driver. The four lines the
    // ledger parses keep their shape on every backend.
    for (shared, clustered, shape, unit) in ENGINES {
        let backends: [Vec<&str>; 2] = [vec![shared], vec![clustered, "--ranks", "3"]];
        let file = |tag: &str| {
            let name = format!("evogame_table_{shared}_{tag}_{}.json", std::process::id());
            std::env::temp_dir().join(name).to_string_lossy().into_owned()
        };
        let (out, err) = run_ok(&[&backends[0][..], shape].concat());
        let digest = digest_of(&err);
        assert_eq!(digest.len(), "state digest: ".len() + 16, "{shared}: {digest}");
        assert!(digest.bytes().skip(14).all(|b| b.is_ascii_hexdigit()), "{shared}: {digest}");
        for (backend, tag) in backends.iter().zip(["shared", "ranks"]) {
            let cell = format!("{backend:?}");
            let path = file(tag);
            let (out, err) = run_ok(
                &[&backend[..], shape, &["--checkpoint-out", &path, "--checkpoint-every", "5"]].concat(),
            );
            assert_eq!(digest_of(&err), digest, "{cell} with checkpoints");
            let both = format!("{out}{err}");
            assert!(has_progress_line(&both, unit), "{cell}: {both}");
            if shared == "fixate" {
                let counts = out.lines().find(|l| l.starts_with("fixed ")).expect("fixation counts line");
                let fields: Vec<&str> = counts.split(" | ").collect();
                let ok = |field: &str, name: &str| field.strip_prefix(name).is_some_and(digits);
                assert!(
                    ok(fields[0], "fixed ") && ok(fields[1], "extinct ") && ok(fields[2], "censored "),
                    "{cell}: {counts}"
                );
            } else {
                let games = both.lines().find_map(|l| l.split_once("| games ")).expect("games field").1;
                assert!(digits(games.split(' ').next().unwrap()), "{cell}: {games}");
            }
            for resumer in &backends {
                let (_, err) = run_ok(&[&resumer[..], &["--resume", &path]].concat());
                assert_eq!(digest_of(&err), digest, "{cell} checkpoint resumed by {resumer:?}");
            }
            let _ = std::fs::remove_file(path);
        }
        assert!(out.is_empty() || !out.contains("state digest"), "the digest goes to stderr");

        // A rank kill: exit 3, the restart hint, and a mid-run checkpoint
        // either backend resumes onto the same digest.
        let path = file("killed");
        let killed = cli()
            .args(&backends[1])
            .args(shape)
            .args(["--kill-rank", "1", "--kill-at", "3", "--recv-timeout-ms", "2000"])
            .args(["--checkpoint-out", &path])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&killed.stderr);
        assert_eq!(killed.status.code(), Some(3), "{clustered}: {stderr}");
        let hint = format!("restart with: evogame-cli {clustered} --resume {path}");
        assert!(stderr.contains(&hint), "{clustered}: {stderr}");
        for resumer in &backends {
            let (_, err) = run_ok(&[&resumer[..], &["--resume", &path]].concat());
            assert_eq!(digest_of(&err), digest, "killed {clustered} resumed by {resumer:?}");
        }

        // Another family's subcommand refuses the file, by name.
        let other = if shared == "spatial" { "fixate" } else { "spatial" };
        let refused = cli().args([other, "--resume", &path]).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert_eq!(refused.status.code(), Some(1), "{other} --resume {path}: {stderr}");
        assert!(stderr.contains(&path), "{other} must name the file: {stderr}");
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn arguments_nothing_reads_are_refused_before_any_work() {
    // One row per refusal: the argv, and what stderr must name. Every row
    // exits 1 without running (no digest) and without touching its files.
    let records = std::env::temp_dir().join(format!("evogame_refused_{}.jsonl", std::process::id()));
    let records = records.to_string_lossy().into_owned();
    let rows: [(&[&str], &str); 14] = [
        (&["run", "--generation", "50", "--records", &records], "--generation"),
        (&["run", "--ranks", "3"], "distributed --ranks N"),
        (&["run", "--seed", "1", "--seed", "2"], "--seed"),
        (&["run", "--seed"], "--seed"),
        (&["run", "stray"], "stray"),
        (&["distributed", "--kill-at", "3"], "--kill-at needs --kill-rank"),
        (&["distributed", "--dedup"], "--dedup"),
        (&["distributed", "--records", &records], "--records"),
        (&["spatial", "--kill-rank", "1", "--kill-at", "3"], "--kill-rank"),
        (&["spatial", "--ranks", "3", "--render"], "--render"),
        (&["fixate", "--sample-every", "2"], "--sample-every"),
        (&["fixate", "--matrix", "--ranks", "3"], "--ranks"),
        (&["tournament", "--bogus"], "--bogus"),
        (&["classify", "m1:6", "extra"], "extra"),
    ];
    for (argv, names) in rows {
        let out = cli().args(argv).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert!(stderr.contains(names), "{argv:?} must name {names:?}: {stderr}");
        assert!(!stderr.contains("state digest"), "{argv:?} must not run: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} must not run");
    }
    assert!(!std::path::Path::new(&records).exists(), "a refused run creates no file");
    let spool = std::env::temp_dir().join(format!("evogame_refused_spool_{}", std::process::id()));
    let out = cli().args(["serve", "--bogus", "--spool"]).arg(&spool).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));
    assert!(!spool.exists(), "a refused serve creates no spool");
}

#[test]
fn expected_fitness_resume_starts_on_a_warm_cache() {
    // A distributed run leaves its periodic snapshot at generation 20 of
    // 21; `run` resumes it for the last generation with expected fitness.
    let dir = std::env::temp_dir();
    let cp = dir.join(format!("evogame_expected_resume_cp_{}.json", std::process::id()));
    let manifest = dir.join(format!("evogame_expected_resume_manifest_{}.json", std::process::id()));
    let (cp_path, manifest_path) = (cp.to_string_lossy(), manifest.to_string_lossy());
    run_ok(&[
        "distributed", "--ranks", "2", "--ssets", "12", "--generations", "21", "--seed", "7",
        "--every-generation", "--checkpoint-every", "20", "--checkpoint-out", &cp_path,
    ]);
    run_ok(&["run", "--resume", &cp_path, "--expected-fitness", "--manifest-out", &manifest_path]);
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    let m = evogame::obs::RunManifest::from_json(&text).expect("valid manifest");
    assert_eq!(m.generations, 21, "the last generation ran");
    assert!(m.counters.payoff_cache_hits > 0, "the generation probed the cache");
    assert_eq!(m.counters.payoff_cache_misses, 0, "the restore pre-warmed the expected payoffs");
    let _ = std::fs::remove_file(cp);
    let _ = std::fs::remove_file(manifest);
}
