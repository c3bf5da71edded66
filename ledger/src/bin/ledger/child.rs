//! Building the program under test, running it as a child, and checking
//! what it printed. Children run one at a time, from this thread; their
//! stdout and stderr go to files so no pipe can fill and no reader thread
//! is needed.

use crate::rusage::{wait_with_usage, Exit};
use ledger::spec::{fnv1a, serve_jobs, serve_requests, Kind, ServeJob, Workload};
use std::fs::{self, File};
use std::io::{self, BufRead as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Where things are, relative to the repository root (the working
/// directory the ledger must be started from).
#[derive(Debug, Clone)]
pub struct Env {
    /// `evogame-cli`, the program under test.
    pub cli: PathBuf,
    /// `ledger-trace`, next to the running `ledger` binary.
    pub trace_bin: PathBuf,
    /// Scratch output: one sub-directory per workload.
    pub scratch: PathBuf,
    /// Result and trace files.
    pub results: PathBuf,
}

impl Env {
    /// Locate everything. Fails unless the working directory is the
    /// repository root.
    pub fn discover() -> Result<Env, String> {
        for needed in [
            "Cargo.toml",
            "ledger/Cargo.toml",
            "crates",
            "BENCHMARK.json",
        ] {
            if !Path::new(needed).exists() {
                return Err(format!(
                    "{needed} not found: start the ledger from the repository root \
                     (cargo run --release --manifest-path ledger/Cargo.toml --bin ledger -- ...)"
                ));
            }
        }
        // cargo resolves a relative CARGO_TARGET_DIR against its working
        // directory, which for both builds below is the repository root.
        let root_target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin_dir = exe
            .parent()
            .ok_or("ledger binary has no parent directory")?;
        Ok(Env {
            cli: root_target.join("release").join("evogame-cli"),
            trace_bin: bin_dir.join("ledger-trace"),
            scratch: PathBuf::from("ledger/scratch"),
            results: PathBuf::from("ledger/results"),
        })
    }

    /// `cargo build --release` of the CLI and of `ledger-trace`; a no-op
    /// (two fingerprint checks) when both are fresh.
    pub fn build(&self) -> Result<(), String> {
        let cargo = |args: &[&str]| -> Result<(), String> {
            let status = Command::new("cargo")
                .args(["build", "--release", "--offline", "--quiet"])
                .args(args)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("cargo: {e}"))?;
            if status.success() {
                Ok(())
            } else {
                Err(format!("cargo build {} failed ({status})", args.join(" ")))
            }
        };
        cargo(&[])?;
        cargo(&[
            "--manifest-path",
            "ledger/Cargo.toml",
            "--bin",
            "ledger-trace",
        ])?;
        for bin in [&self.cli, &self.trace_bin] {
            if !bin.is_file() {
                return Err(format!(
                    "{} missing after a successful build",
                    bin.display()
                ));
            }
        }
        Ok(())
    }

    /// The scratch directory of one workload.
    pub fn dir(&self, workload: &str) -> PathBuf {
        self.scratch.join(workload)
    }
}

/// One finished child and what it left behind.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// The derived seed the child ran under.
    pub seed: u64,
    /// Spawn to exit.
    pub wall_s: f64,
    pub exit: Exit,
    pub stdout: String,
    pub stderr: String,
    /// Size of the `--records` file (0 if the workload writes none).
    pub record_bytes: u64,
}

impl ChildRun {
    /// Peak resident set in megabytes.
    pub fn rss_mb(&self) -> f64 {
        self.exit.max_rss_kb as f64 / 1024.0
    }
}

/// Spawn `program args…`, wait for it, and collect its output files.
pub fn run_program(
    program: &Path,
    args: &[String],
    rayon_threads: Option<&str>,
    dir: &Path,
    seed: u64,
) -> io::Result<ChildRun> {
    let out_path = dir.join("stdout.txt");
    let err_path = dir.join("stderr.txt");
    let records = dir.join("records.jsonl");
    let _ = fs::remove_file(&records);
    let mut cmd = Command::new(program);
    match rayon_threads {
        Some(n) => cmd.env("RAYON_NUM_THREADS", n),
        None => cmd.env_remove("RAYON_NUM_THREADS"),
    };
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?);
    let start = Instant::now();
    let exit = wait_with_usage(cmd.spawn()?)?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(ChildRun {
        seed,
        wall_s,
        exit,
        stdout: fs::read_to_string(&out_path)?,
        stderr: fs::read_to_string(&err_path)?,
        record_bytes: fs::metadata(&records).map_or(0, |m| m.len()),
    })
}

/// Generate the inputs of one `evogame-cli` run of `w` under derived seed
/// `seed` and run it, with `RAYON_NUM_THREADS` set to `rayon_threads` or,
/// for `None`, unset. Input generation and clean-up stay outside `wall_s`.
pub fn run_cli_with(
    env: &Env,
    w: &Workload,
    seed: u64,
    rayon_threads: Option<&str>,
) -> io::Result<ChildRun> {
    let dir = env.dir(w.name);
    fs::create_dir_all(&dir)?;
    if let Kind::Serve(spec) = &w.kind {
        // A spool left by an earlier run would be appended to.
        let _ = fs::remove_dir_all(dir.join("spool"));
        fs::write(dir.join("jobs.jsonl"), serve_requests(spec, seed))?;
    }
    run_program(&env.cli, &w.cli_args(seed, &dir), rayon_threads, &dir, seed)
}

/// [`run_cli_with`] the thread count the workload is defined with.
pub fn run_cli(env: &Env, w: &Workload, seed: u64) -> io::Result<ChildRun> {
    run_cli_with(env, w, seed, Some(&w.rayon_threads()))
}

// ----------------------------------------------------------- line parsing

/// The `state digest: <hex>` line the CLI prints to stderr.
pub fn parse_digest(stderr: &str) -> Option<String> {
    stderr
        .lines()
        .find_map(|l| l.trim().strip_prefix("state digest: "))
        .map(|d| d.trim().to_string())
}

/// The integer following `key` (e.g. `"games "`, `"fixed "`).
pub fn parse_count(text: &str, key: &str) -> Option<u64> {
    let at = text.find(key)? + key.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Seconds of the run phase, from the `N generations in X.XXs` (or
/// `replicates in`) line every engine subcommand prints.
pub fn parse_phase_seconds(text: &str) -> Option<f64> {
    for unit in [" generations in ", " replicates in "] {
        if let Some(at) = text.find(unit) {
            let rest = &text[at + unit.len()..];
            let number: String = rest
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            if rest[number.len()..].starts_with('s') {
                return number.parse().ok();
            }
        }
    }
    None
}

/// `job <id>: completed | state digest <hex> | retries <n>` lines of
/// `serve`, as `(id, digest, retries)`.
pub fn parse_serve_jobs(stdout: &str) -> Vec<(String, String, u64)> {
    stdout
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("job ")?;
            let (id, rest) = rest.split_once(": completed | state digest ")?;
            let (digest, retries) = rest.split_once(" | retries ")?;
            Some((
                id.to_string(),
                digest.to_string(),
                retries.trim().parse().ok()?,
            ))
        })
        .collect()
}

/// The digest a run is compared by: the CLI's own line, or for `serve` the
/// hash of its per-job result lines.
pub fn run_digest(w: &Workload, run: &ChildRun) -> Option<String> {
    match w.kind {
        Kind::Serve(_) => Some(format!("{:016x}", fnv1a(&run.stdout))),
        _ => parse_digest(&run.stderr),
    }
}

// ---------------------------------------------------------- output checks

/// Operations attempted and failed, with one line per failure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Add another pass's operations to this one's.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Record one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Record one attempted operation and whether it passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempt();
        if !ok {
            self.fail(what());
        }
    }
}

fn check_serve_jobs(jobs: &[ServeJob], run: &ChildRun, spool: &Path, ops: &mut Ops) {
    let done = parse_serve_jobs(&run.stdout);
    let digest_of = |id: &str| done.iter().find(|d| d.0 == id).map(|d| d.1.as_str());
    for job in jobs {
        let completed = done.iter().find(|d| d.0 == job.id);
        let receipt = spool.join(&job.id).join("receipt.json").is_file();
        let twin_agrees = job
            .same_spec_as
            .as_deref()
            .is_none_or(|twin| digest_of(twin).is_some() && digest_of(twin) == digest_of(&job.id));
        let retried = completed.is_some_and(|d| d.2 == job.expected_retries);
        ops.check(completed.is_some() && receipt && twin_agrees && retried, || {
            format!(
                "serve job {} (seed {}): completed={} receipt={receipt} twin_digest_agrees={twin_agrees} retries_as_planned={retried}",
                job.id,
                run.seed,
                completed.is_some()
            )
        });
    }
}

/// Check one child run of `w`: exit status and the workload's own output
/// invariants. A child counts as one operation; each `serve` job as one
/// more.
pub fn check_run(env: &Env, w: &Workload, run: &ChildRun, ops: &mut Ops) {
    let mut problems: Vec<String> = Vec::new();
    if run.exit.code != Some(0) {
        problems.push(format!("exit {:?}", run.exit.code));
    }
    if run_digest(w, run).is_none() {
        problems.push("no state digest line".into());
    }
    match &w.kind {
        Kind::Run {
            ssets,
            generations,
            dedup,
        } => {
            // Streamed, not slurped: the harness's own peak RSS is the floor
            // of every child's `ru_maxrss` (see rusage.rs).
            let lines = File::open(env.dir(w.name).join("records.jsonl"))
                .map_or(0, |f| io::BufReader::new(f).lines().count() as u64);
            if lines != *generations {
                problems.push(format!(
                    "record file has {lines} lines, wanted {generations}"
                ));
            }
            let games = parse_count(&run.stderr, "games ");
            if !dedup && games != Some(ssets * ssets * generations) {
                problems.push(format!(
                    "games {games:?}, wanted ssets^2 x generations = {}",
                    ssets * ssets * generations
                ));
            }
        }
        Kind::Fixate { replicates } => {
            let total: Option<u64> = ["fixed ", "extinct ", "censored "]
                .iter()
                .map(|k| parse_count(&run.stdout, k))
                .sum();
            if total != Some(*replicates) {
                problems.push(format!(
                    "fixed+extinct+censored = {total:?}, wanted {replicates}"
                ));
            }
        }
        Kind::Serve(spec) => {
            if !run.stderr.contains(" 0 rejected") {
                problems.push("serve rejected a request".into());
            }
            check_serve_jobs(
                &serve_jobs(spec, run.seed),
                run,
                &env.dir(w.name).join("spool"),
                ops,
            );
        }
        Kind::Distributed { .. } | Kind::Spatial { .. } => {}
    }
    ops.check(problems.is_empty(), || {
        format!(
            "{} child (seed {}): {}",
            w.name,
            run.seed,
            problems.join("; ")
        )
    });
}

/// Every run of one derived seed must print the same digest. Each run that
/// disagrees with the first of its seed is one more failed operation.
pub fn check_digests_agree(w: &Workload, runs: &[&ChildRun], ops: &mut Ops) {
    let mut first: Vec<(u64, Option<String>)> = Vec::new();
    for run in runs {
        let digest = run_digest(w, run);
        match first.iter().find(|(seed, _)| *seed == run.seed) {
            None => first.push((run.seed, digest)),
            Some((_, expected)) if *expected != digest => ops.fail(format!(
                "{} seed {}: digest {digest:?} differs from an earlier run's {expected:?}",
                w.name, run.seed
            )),
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_and_stat_lines_parse() {
        let stderr = "wrote 250 generation records to r.jsonl\n\n250 generations in 0.61s | PC events 25 | \
                      adoptions 12 | mutations 16 | games 1024000\nstate digest: 25b6870d98f83ab0\n";
        assert_eq!(parse_digest(stderr).as_deref(), Some("25b6870d98f83ab0"));
        assert_eq!(parse_count(stderr, "games "), Some(1_024_000));
        assert_eq!(parse_count(stderr, "mutations "), Some(16));
        assert_eq!(parse_phase_seconds(stderr), Some(0.61));
        assert_eq!(parse_digest("no such line"), None);
        assert_eq!(parse_count("games x", "games "), None);
    }

    #[test]
    fn phase_seconds_parse_for_every_subcommand_shape() {
        assert_eq!(
            parse_phase_seconds(
                "distributed run on 3 ranks: 750 generations in 0.93s\nPC events 7"
            ),
            Some(0.93)
        );
        assert_eq!(
            parse_phase_seconds("fixation batch (shared memory): 1200 replicates in 0.80s"),
            Some(0.8)
        );
        assert_eq!(parse_phase_seconds("serve: 64 completed, 0 failed"), None);
        assert_eq!(
            parse_count(
                "fixed 31 | extinct 1169 | censored 0 | fixation probability",
                "extinct "
            ),
            Some(1169)
        );
    }

    #[test]
    fn serve_job_lines_parse() {
        let out = "job od-shared-0: completed | state digest 00ab | retries 0\n\
                   job od-dist-0: completed | state digest 00ab | retries 1\n\
                   job eg-shared-0: failed | boom | retries 0\n";
        assert_eq!(
            parse_serve_jobs(out),
            vec![
                ("od-shared-0".to_string(), "00ab".to_string(), 0),
                ("od-dist-0".to_string(), "00ab".to_string(), 1),
            ]
        );
    }

    fn fake_run(seed: u64, digest: &str) -> ChildRun {
        ChildRun {
            seed,
            wall_s: 1.0,
            exit: Exit {
                code: Some(0),
                cpu_s: 1.0,
                max_rss_kb: 4096,
            },
            stdout: String::new(),
            stderr: format!("state digest: {digest}\n"),
            record_bytes: 0,
        }
    }

    #[test]
    fn digest_disagreement_within_a_seed_is_a_failure() {
        let w = ledger::spec::workload("dist_ondemand", 1).unwrap();
        let runs = [
            fake_run(1, "aa"),
            fake_run(2, "bb"),
            fake_run(1, "aa"),
            fake_run(2, "cc"),
        ];
        let refs: Vec<&ChildRun> = runs.iter().collect();
        let mut ops = Ops::default();
        check_digests_agree(&w, &refs, &mut ops);
        assert_eq!(ops.failed, 1);
        assert!(ops.failures[0].contains("seed 2"));
    }
}
