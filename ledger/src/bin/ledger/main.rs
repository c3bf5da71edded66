//! `ledger` — the whole-run performance ledger's harness (see ../../../README.md).
//!
//! ```text
//! ledger run       [--seed S] [--seconds N] [--name NAME] [--smoke]
//! ledger bench     --workload W --seed S --seconds N --trace 0|1
//! ledger compare   A.json B.json
//! ledger selfcheck [--seed S] [--seconds N]
//! ```
//!
//! `run` builds what is missing, measures every workload end to end with
//! tracing off, runs the traced pass for the per-layer numbers, checks every
//! output, prints every metric by name with its unit, and writes
//! `ledger/results/<name>.json`. `bench` is the benchmark contract's entry
//! point: one workload, one pass, one JSON object as the last stdout line.

mod child;
mod compare;
mod rusage;

use child::{
    check_digests_agree, check_run, run_cli, run_cli_with, run_digest, run_program, ChildRun, Env,
    Ops,
};
use ledger::report::{
    contract_line, number, summarise, Benchmark, LayerValue, Measured, RunResult, RunSample,
    Sampled, WorkloadResult, PER_LAYER, RESULT_SCHEMA,
};
use ledger::spec::{child_seed, workload, workloads, Workload, SEED_CYCLE};
use ledger::stats;
use serde::Value;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: ledger <run|bench|compare|selfcheck> [flags]
  run        [--seed S] [--seconds N] [--name NAME] [--smoke]
             every workload, both passes; writes ledger/results/NAME.json
             (--smoke: ~1/50 size, same checks, no result file)
  bench      --workload W --seed S --seconds N --trace 0|1
             one workload, one pass; last stdout line is the result JSON
  compare    A.json B.json
             apply BENCHMARK.json's bounds row by row; exit 1 on a regression
  selfcheck  [--seed S] [--seconds N]
             two full sets of one build must agree; writes
             ledger/results/selfcheck.txt and ledger/results/baseline.json
start it from the repository root.";

/// `--key value` pairs plus positional arguments.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for {name}")),
        }
    }

    fn positional(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .collect()
    }
}

/// How much work one pass does.
#[derive(Debug, Clone, Copy)]
struct Effort {
    /// Divisor of workload sizes and probe iterations (1, or 50 for smoke).
    scale: u64,
    /// Seconds the end-to-end pass keeps spawning children for.
    seconds: f64,
    /// Set-ups timed per end-to-end pass (`setup_s` is their median).
    setups: usize,
    /// Children measured at least, whatever `seconds` says.
    min_runs: usize,
    /// Children the traced pass runs for the `cli.*` numbers.
    trace_runs: usize,
}

impl Effort {
    fn full(seconds: f64) -> Self {
        Effort {
            scale: 1,
            seconds,
            setups: 3,
            // Two runs of every derived seed at the least.
            min_runs: 2 * SEED_CYCLE as usize,
            trace_runs: 3,
        }
    }

    fn smoke() -> Self {
        Effort {
            scale: 50,
            seconds: 0.0,
            setups: 1,
            min_runs: 2,
            trace_runs: 1,
        }
    }
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

/// The end-to-end pass: tracing off, children one at a time.
///
/// `first` is the index of the pass's first child in the derived-seed cycle:
/// 0, or for a later slice of an interleaved pass the number of children the
/// earlier slices ran, so that slices share the seeds out evenly.
fn end_to_end(
    env: &Env,
    w: &Workload,
    seed: u64,
    effort: Effort,
    first: u64,
) -> Result<(Measured, Ops), String> {
    let mut ops = Ops::default();
    let seed_of = |i: u64| child_seed(seed, w.name, (first + i) % SEED_CYCLE);
    // Set-up, several times over: build (a no-op once warm), generate the
    // inputs, spawn the workload once so caches and lazy set-up are paid
    // before anything is timed.
    let mut setup_s = Vec::new();
    let mut warmups = Vec::new();
    for _ in 0..effort.setups {
        let start = Instant::now();
        env.build()?;
        let warm = run_cli(env, w, seed_of(0)).map_err(|e| io_err("warm-up spawn", e))?;
        setup_s.push(start.elapsed().as_secs_f64());
        check_run(env, w, &warm, &mut ops);
        warmups.push(warm);
    }
    let mut runs: Vec<ChildRun> = Vec::new();
    let start = Instant::now();
    while runs.len() < effort.min_runs || start.elapsed().as_secs_f64() < effort.seconds {
        let run = run_cli(env, w, seed_of(runs.len() as u64)).map_err(|e| io_err("spawn", e))?;
        check_run(env, w, &run, &mut ops);
        runs.push(run);
    }
    let all: Vec<&ChildRun> = warmups.iter().chain(&runs).collect();
    check_digests_agree(w, &all, &mut ops);

    let good: Vec<RunSample> = runs
        .iter()
        .filter(|r| r.exit.code == Some(0))
        .map(|r| RunSample {
            seed: r.seed,
            wall_s: r.wall_s,
            cpu_s: r.exit.cpu_s,
            rss_mb: r.rss_mb(),
        })
        .collect();
    if good.is_empty() {
        return Err(format!(
            "{}: no child run succeeded: {}",
            w.name,
            ops.failures.join(" | ")
        ));
    }
    Ok((
        Measured {
            runs: good,
            setup_s,
        },
        ops,
    ))
}

/// What `ledger-trace` printed as its last line.
struct TraceOutput {
    digest: String,
    replay_s: f64,
    metrics: Vec<(String, f64)>,
    failures: Vec<String>,
}

fn parse_trace_output(stdout: &str) -> Result<TraceOutput, String> {
    let line = stdout
        .lines()
        .last()
        .ok_or("ledger-trace printed nothing")?;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("ledger-trace output: {e}"))?;
    let digest = match v.get("digest") {
        Some(Value::Str(s)) => s.clone(),
        _ => return Err("ledger-trace output has no digest".into()),
    };
    let metrics = v
        .get("metrics")
        .and_then(Value::as_map)
        .ok_or("ledger-trace output has no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), number(v)?)))
        .collect();
    let failures = v
        .get("failures")
        .and_then(Value::as_seq)
        .map(|s| {
            s.iter()
                .filter_map(|f| match f {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(TraceOutput {
        digest,
        replay_s: v.get("replay_s").and_then(number).unwrap_or(0.0),
        metrics,
        failures,
    })
}

/// The traced pass: a few children for the `cli.*` numbers, then
/// `ledger-trace` replaying the workload in-process for everything else.
fn traced(
    env: &Env,
    w: &Workload,
    seed: u64,
    effort: Effort,
) -> Result<(Vec<LayerValue>, Ops), String> {
    let mut ops = Ops::default();
    env.build()?;
    let dir = env.dir(w.name);
    std::fs::create_dir_all(dir.join("trace")).map_err(|e| io_err("scratch", e))?;
    std::fs::create_dir_all(&env.results).map_err(|e| io_err("results", e))?;
    let seed0 = child_seed(seed, w.name, 0);
    let threads = w.rayon_threads();

    // Process start-up alone: `classify` parses one strategy code and exits.
    let mut startup = Vec::new();
    for _ in 0..5 {
        let args = ["classify".to_string(), "m1:6".to_string()];
        let run = run_program(&env.cli, &args, Some(&threads), &dir, 0)
            .map_err(|e| io_err("classify", e))?;
        ops.check(run.exit.code == Some(0), || {
            format!("classify exited {:?}", run.exit.code)
        });
        startup.push(run.wall_s);
    }
    let mut runs = Vec::new();
    for _ in 0..effort.trace_runs {
        let run = run_cli(env, w, seed0).map_err(|e| io_err("spawn", e))?;
        check_run(env, w, &run, &mut ops);
        runs.push(run);
    }
    let trace_out = env.results.join(format!("trace-{}.json", w.name));
    let args: Vec<String> = [
        "--workload",
        w.name,
        "--seed",
        &seed0.to_string(),
        "--scale",
        &effort.scale.to_string(),
        "--scratch",
        &dir.join("trace").to_string_lossy(),
        "--out",
        &trace_out.to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let trace_run = run_program(
        &env.trace_bin,
        &args,
        Some(&threads),
        &dir.join("trace"),
        seed0,
    )
    .map_err(|e| io_err("ledger-trace", e))?;
    ops.check(trace_run.exit.code == Some(0), || {
        format!(
            "ledger-trace {} exited {:?}: {}",
            w.name,
            trace_run.exit.code,
            trace_run.stderr.lines().last().unwrap_or("")
        )
    });
    let trace = parse_trace_output(&trace_run.stdout)?;
    for failure in &trace.failures {
        ops.check(false, || format!("ledger-trace {}: {failure}", w.name));
    }
    // The in-process replay must land on the digest the CLI printed.
    let cli_digest = runs.first().and_then(|r| run_digest(w, r));
    ops.check(cli_digest.as_deref() == Some(trace.digest.as_str()), || {
        format!(
            "{}: replay digest {} but the CLI printed {cli_digest:?}",
            w.name, trace.digest
        )
    });
    let all: Vec<&ChildRun> = runs.iter().collect();
    check_digests_agree(w, &all, &mut ops);

    // What leaving RAYON_NUM_THREADS unset costs: the same child, a tenth of
    // the size (an unpinned `fixate` is ten times slower), once as the
    // workload pins it and once with the variable removed.
    let tenth = workload(w.name, effort.scale * 10).expect("same name, smaller scale");
    let mut tenth_wall = |threads: Option<&str>| -> Result<f64, String> {
        let run = run_cli_with(env, &tenth, seed0, threads).map_err(|e| io_err("spawn", e))?;
        check_run(env, &tenth, &run, &mut ops);
        Ok(run.wall_s)
    };
    let pinned_s = tenth_wall(Some(&threads))?;
    let default_env_ratio = tenth_wall(None)? / pinned_s;

    let wall = stats::median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let startup_s = stats::median(&startup);
    let phases: Vec<f64> = runs
        .iter()
        .filter_map(|r| child::parse_phase_seconds(&format!("{}\n{}", r.stdout, r.stderr)))
        .collect();
    // `serve` prints no phase line; its run phase is reported as 0 and the
    // whole wall time as outside it.
    let run_phase_s = stats::median(&phases);
    let reconcile = if wall > 0.0 {
        (startup_s + trace.replay_s) / wall
    } else {
        0.0
    };
    if !(0.9..=1.1).contains(&reconcile) {
        println!(
            "warning: {} ledger.reconcile_frac {reconcile:.3} is outside 0.9-1.1: start-up {startup_s:.4}s + replay {:.4}s vs child wall {wall:.4}s",
            w.name, trace.replay_s
        );
    }
    let from_harness = |name: &str| -> Option<f64> {
        Some(match name {
            "cli.startup_s" => startup_s,
            "cli.run_phase_s" => run_phase_s,
            "cli.outside_run_s" => wall - run_phase_s,
            "cli.stdout_bytes" => runs.first().map_or(0.0, |r| r.stdout.len() as f64),
            "cli.record_file_bytes" => runs.first().map_or(0.0, |r| r.record_bytes as f64),
            "cli.default_env_wall_ratio" => default_env_ratio,
            "ledger.reconcile_frac" => reconcile,
            _ => return None,
        })
    };
    let layers = PER_LAYER
        .iter()
        .map(|d| LayerValue {
            name: d.name.to_string(),
            unit: d.unit.to_string(),
            value: from_harness(d.name)
                .or_else(|| {
                    trace
                        .metrics
                        .iter()
                        .find(|(k, _)| k == d.name)
                        .map(|(_, v)| *v)
                })
                .unwrap_or(0.0),
        })
        .collect();
    Ok((layers, ops))
}

fn print_header(w: &Workload) {
    println!(
        "== {}: {} {}s per child run, RAYON_NUM_THREADS={} -- {}",
        w.name,
        w.units(),
        w.unit,
        w.rayon_threads(),
        w.why
    );
}

fn print_e2e(w: &Workload, samples: &[Sampled]) {
    for s in samples {
        println!(
            "{:<14} {:<36} {:>14.5} {:<6} (min {:.5} max {:.5} n {})",
            w.name, s.name, s.value, s.unit, s.min, s.max, s.n
        );
    }
}

fn print_layers(w: &Workload, layers: &[LayerValue]) {
    for l in layers {
        println!("{:<14} {:<36} {:>14.4} {}", w.name, l.name, l.value, l.unit);
    }
}

fn print_ops(w: &Workload, ops: &Ops) {
    println!(
        "{:<14} {:<36} {:>14.5} {:<6} ({} failed of {} operations)",
        w.name,
        "fail_ratio",
        if ops.attempted == 0 {
            0.0
        } else {
            ops.failed as f64 / ops.attempted as f64
        },
        "ratio",
        ops.failed,
        ops.attempted
    );
    for f in &ops.failures {
        println!("  FAILED: {f}");
    }
}

/// `bench`: the benchmark contract's entry point.
fn cmd_bench(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("bench needs --workload")?;
    let seed: u64 = args.number("--seed", 0)?;
    let seconds: f64 = args.number("--seconds", 10.0)?;
    let trace: u8 = args.number("--trace", 0)?;
    let effort = Effort::full(seconds);
    let w = workload(name, effort.scale).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let env = Env::discover()?;
    print_header(&w);
    let (metrics, ops): (Vec<(String, f64, String)>, Ops) = match trace {
        0 => {
            let (measured, ops) = end_to_end(&env, &w, seed, effort, 0)?;
            let samples = summarise(w.units(), &measured);
            print_e2e(&w, &samples);
            (
                samples
                    .into_iter()
                    .map(|s| (s.name, s.value, s.unit))
                    .collect(),
                ops,
            )
        }
        1 => {
            let (layers, ops) = traced(&env, &w, seed, effort)?;
            print_layers(&w, &layers);
            (
                layers
                    .into_iter()
                    .map(|l| (l.name, l.value, l.unit))
                    .collect(),
                ops,
            )
        }
        other => return Err(format!("--trace {other}: want 0 or 1")),
    };
    print_ops(&w, &ops);
    println!("{}", contract_line(ops.attempted, ops.failed, &metrics));
    Ok(ExitCode::SUCCESS)
}

/// Slices each set's end-to-end pass is cut into when more than one set is
/// measured: set A's slice, then set B's, then A's next. Two sets measured
/// one after the other on a shared box differ by whatever the box did in
/// between (single 10 s windows 50 % slower than their neighbours were
/// seen); alternating puts both sets through the same minutes.
const SLICES: usize = 5;

/// Both passes over every workload, for `sets` result sets of one build.
fn measure(env: &Env, seed: u64, effort: Effort, sets: usize) -> Result<Vec<RunResult>, String> {
    let nproc = ledger::spec::nproc() as u64;
    println!(
        "seed {seed} | nproc {nproc} | {}s per workload | scale 1/{} | {sets} set(s)",
        effort.seconds, effort.scale
    );
    let slices = if sets > 1 { SLICES } else { 1 };
    let slice = Effort {
        seconds: effort.seconds / slices as f64,
        setups: effort.setups.div_ceil(slices),
        min_runs: effort.min_runs.div_ceil(slices),
        ..effort
    };
    let mut out: Vec<Vec<WorkloadResult>> = vec![Vec::new(); sets];
    for w in workloads(effort.scale) {
        print_header(&w);
        let mut measured: Vec<Measured> = vec![Measured::default(); sets];
        let mut ops: Vec<Ops> = vec![Ops::default(); sets];
        for _ in 0..slices {
            for set in 0..sets {
                let first = measured[set].runs.len() as u64;
                let (part, part_ops) = end_to_end(env, &w, seed, slice, first)?;
                measured[set].absorb(part);
                ops[set].absorb(part_ops);
            }
        }
        for set in 0..sets {
            let end_to_end = summarise(w.units(), &measured[set]);
            print_e2e(&w, &end_to_end);
            let (per_layer, trace_ops) = traced(env, &w, seed, effort)?;
            print_layers(&w, &per_layer);
            let mut ops = std::mem::take(&mut ops[set]);
            ops.absorb(trace_ops);
            print_ops(&w, &ops);
            out[set].push(WorkloadResult {
                name: w.name.to_string(),
                attempted: ops.attempted,
                failed: ops.failed,
                failures: ops.failures,
                end_to_end,
                per_layer,
            });
        }
    }
    Ok(out
        .into_iter()
        .map(|workloads| RunResult {
            schema: RESULT_SCHEMA,
            seed,
            nproc,
            seconds: effort.seconds as u64,
            workloads,
        })
        .collect())
}

fn default_seconds() -> Result<f64, String> {
    Ok(load_benchmark()?.run_seconds as f64)
}

fn load_benchmark() -> Result<Benchmark, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| io_err("BENCHMARK.json", e))?;
    Benchmark::from_json(&text)
}

fn write_result(env: &Env, name: &str, result: &RunResult) -> Result<(), String> {
    let path = env.results.join(format!("{name}.json"));
    std::fs::create_dir_all(&env.results).map_err(|e| io_err("results", e))?;
    std::fs::write(&path, result.to_json()).map_err(|e| io_err("result file", e))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let env = Env::discover()?;
    let seed: u64 = args.number("--seed", 1)?;
    let smoke = args.flag("--smoke");
    let effort = if smoke {
        Effort::smoke()
    } else {
        Effort::full(args.number("--seconds", default_seconds()?)?)
    };
    let result = measure(&env, seed, effort, 1)?.remove(0);
    if !smoke {
        write_result(&env, args.value("--name").unwrap_or("latest"), &result)?;
    }
    let failed: u64 = result.workloads.iter().map(|w| w.failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let files = args.positional();
    let [a, b] = files[..] else {
        return Err("compare needs two result files".into());
    };
    let load =
        |p: &str| RunResult::from_json(&std::fs::read_to_string(p).map_err(|e| io_err(p, e))?);
    let report = compare::compare(&load_benchmark()?, &load(a)?, &load(b)?);
    print!("{}", report.text);
    Ok(if report.has_regression() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_selfcheck(args: &Args) -> Result<ExitCode, String> {
    let env = Env::discover()?;
    let seed: u64 = args.number("--seed", 1)?;
    let effort = Effort::full(args.number("--seconds", default_seconds()?)?);
    let [a, b] = <[RunResult; 2]>::try_from(measure(&env, seed, effort, 2)?)
        .map_err(|_| "measure returned other than two sets")?;
    let report = compare::compare(&load_benchmark()?, &a, &b);
    let verdict = if report.sets_agree() {
        "PASS: two sets of runs of one build agree within the benchmark's own bounds"
    } else {
        "FAIL: two sets of runs of one build disagree"
    };
    let text = format!(
        "ledger selfcheck --seed {seed} --seconds {}\n{}{verdict}\n",
        effort.seconds, report.text
    );
    print!("{text}");
    write_result(&env, "baseline", &a)?;
    write_result(&env, "selfcheck-b", &b)?;
    std::fs::write(env.results.join("selfcheck.txt"), text)
        .map_err(|e| io_err("selfcheck.txt", e))?;
    Ok(if report.sets_agree() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args(raw[1..].to_vec());
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "bench" => cmd_bench(&args),
        "compare" => cmd_compare(&args),
        "selfcheck" => cmd_selfcheck(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::FAILURE
    })
}
