//! `evogame-cli` — drive the library from the command line.
//!
//! ```text
//! evogame-cli run         --ssets 64 --generations 5000 [--mem 1] [--mixed]
//!                         [--seed S] [--pc-rate 0.1] [--mu 0.05] [--beta 1]
//!                         [--noise 0] [--rule pc|moran|best] [--on-demand]
//!                         [--sample-every N] [--heatmap] [--records F.jsonl]
//!                         [--manifest-out run.json]
//! evogame-cli tournament  [--mem 2] [--noise 0.0] [--reps 5] [--rounds 200]
//! evogame-cli predict     --procs 262144 [--ssets 4194304] [--mem 6]
//!                         [--generations 1000] [--profile bgp|bgl]
//! evogame-cli distributed --ranks 4 --ssets 16 --generations 200 [...]
//!                         [--rule pc|moran|best] [--every-generation]
//!                         [--manifest-out run.json]
//!                         [--kill-rank R --kill-at G] [--recv-timeout-ms MS]
//! evogame-cli spatial     --width 32 --height 32 --generations 100
//!                         [--temptation 1.85] [--update best|fermi]
//!                         [--neighborhood moore8|vn4] [--init single|random:P]
//!                         [--ranks N] [--records F.jsonl] [...]
//! evogame-cli fixate      --replicates 64 [--resident ALLC] [--mutant ALLD]
//!                         [--ssets 16] [--generations 10000] [--rule moran]
//!                         [--ranks N] [--matrix] [--records F.jsonl] [...]
//! evogame-cli serve       --spool DIR [--requests FILE.jsonl]
//!                         [--workers N] [--queue-depth N]
//! ```
//!
//! Every subcommand prints human-readable output; `run` can also emit the
//! sampled trajectory as CSV. `--manifest-out` additionally enables the
//! observability timing layer and writes the machine-readable JSON run
//! manifest described in `docs/OBSERVABILITY.md`.
//!
//! Both engines accept `--checkpoint-out` / `--checkpoint-every` /
//! `--resume` (docs/FAULT_TOLERANCE.md); checkpoints are backend-neutral,
//! and resuming is bit-identical to never having stopped. The distributed
//! engine additionally accepts deterministic fault-injection flags; an
//! injected failure ends the run with exit code 3 and, when
//! `--checkpoint-out` is given, a restartable checkpoint. Both engines
//! print a final `state digest` line to stderr so scripts can compare
//! outcomes across backends and across interrupted-vs-straight runs.

#![forbid(unsafe_code)]

use evogame::analysis::heatmap::{render_ascii, HeatmapOptions};
use evogame::analysis::timeseries::Trajectory;
use evogame::cluster::dist::fixation::{run_fixation_distributed, FixationDistConfig};
use evogame::cluster::dist::{run_distributed, Degraded, DistConfig, DistError};
use evogame::cluster::faults::{FaultPlan, RankKill};
use evogame::engine::params::UpdateRule;
use evogame::engine::record::{state_digest, Checkpoint, GenerationRecord, RecordWriter};
use evogame::obs::{CounterSnapshot, RunManifest};
use evogame::svc::{JobRequest, JobStatus, Server, ServerConfig, Spool};
use evogame::ipd::classic;
use evogame::ipd::tournament::{Entrant, RoundRobin};
use evogame::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize as _;
use std::process::ExitCode;

/// Minimal flag parser: `--key value` pairs plus boolean `--key` switches.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn new(raw: &[String]) -> Self {
        Args { rest: raw.to_vec() }
    }

    fn flag(&self, name: &str) -> bool {
        self.rest.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.rest
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.rest.get(i + 1))
            .map(String::as_str)
    }

    fn optional<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value {v:?} for {name}"))
            })
            .transpose()
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.optional(name)?.unwrap_or(default))
    }
}

/// Engine parameters from the flags `run`/`distributed` and `fixate`
/// share. The arguments are the defaults the subcommands differ in;
/// mutation is the caller's (`fixate` forces it off).
fn engine_params(
    args: &Args,
    ssets: usize,
    generations: u64,
    pc_rate: f64,
    rule: &str,
) -> Result<Params, String> {
    let mut p = Params {
        mem_steps: args.parse("--mem", 1usize)?,
        num_ssets: args.parse("--ssets", ssets)?,
        generations: args.parse("--generations", generations)?,
        seed: args.parse("--seed", 0u64)?,
        pc_rate: args.parse("--pc-rate", pc_rate)?,
        mutation_rate: 0.0,
        beta: args.parse("--beta", 1.0f64)?,
        ..Params::default()
    };
    p.game.rounds = args.parse("--rounds", 200u32)?;
    p.game.noise = args.parse("--noise", 0.0f64)?;
    p.rule = match args.value("--rule").unwrap_or(rule) {
        "pc" => UpdateRule::PairwiseComparison,
        "moran" => UpdateRule::Moran,
        "best" => UpdateRule::ImitateBest,
        other => return Err(format!("unknown rule {other:?} (pc|moran|best)")),
    };
    Ok(p)
}

fn build_params(args: &Args) -> Result<Params, String> {
    let mut p = engine_params(args, 64, 1_000, 0.10, "pc")?;
    p.mutation_rate = args.parse("--mu", 0.05f64)?;
    if args.flag("--mixed") {
        p.kind = StrategyKind::Mixed;
    }
    p.validate().map_err(|e| e.to_string())?;
    Ok(p)
}

/// What a manifest is filed under: the run's parameters and seed.
struct RunId {
    params: serde::Value,
    seed: u64,
}

/// `--manifest-out FILE.json`, parsed once for every engine subcommand.
struct ManifestOut {
    path: Option<String>,
    /// Counters when the command started; manifests report the delta.
    baseline: CounterSnapshot,
}

impl ManifestOut {
    fn parse(args: &Args) -> Self {
        let path = args.value("--manifest-out").map(str::to_string);
        if path.is_some() {
            // Timing layer on: spans and per-generation wall times. Counters
            // are always on; this cannot change the trajectory.
            evogame::obs::set_enabled(true);
        }
        ManifestOut {
            path,
            baseline: evogame::obs::counters().snapshot(),
        }
    }

    /// Write the manifest `build` makes as pretty JSON, if one was asked for.
    fn write(&self, build: impl FnOnce(&CounterSnapshot) -> RunManifest) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        std::fs::write(path, build(&self.baseline).to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote run manifest to {path}");
        Ok(())
    }

    /// [`ManifestOut::write`] a manifest captured now: `units` generations
    /// (or replicates) on `threads` threads (or ranks).
    fn capture(
        &self,
        run: &RunId,
        threads: usize,
        units: u64,
        elapsed: f64,
        timings: &[u64],
    ) -> Result<(), String> {
        self.write(|baseline| {
            RunManifest::capture(run.params.clone(), run.seed, threads, units, elapsed, baseline, timings)
        })
    }
}

/// What the checkpoint plumbing needs from a family's snapshot type.
trait Restartable: serde::Serialize + serde::Deserialize {
    /// How messages name this kind of checkpoint.
    const KIND: &'static str;
    /// The subcommand that resumes it.
    const COMMAND: &'static str;
    /// What a degraded-run message calls the run…
    const RUN: &'static str;
    /// …and its progress unit.
    const UNIT: &'static str;
    /// Progress as the "wrote checkpoint (…)" line reports it.
    fn progress(&self) -> String;
}

impl Restartable for Checkpoint {
    const KIND: &'static str = "checkpoint";
    const COMMAND: &'static str = "distributed";
    const RUN: &'static str = "run";
    const UNIT: &'static str = "generations";
    fn progress(&self) -> String {
        format!("generation {}", self.generation)
    }
}

impl Restartable for SpatialCheckpoint {
    const KIND: &'static str = "spatial checkpoint";
    const COMMAND: &'static str = "spatial";
    const RUN: &'static str = "spatial run";
    const UNIT: &'static str = "generations";
    fn progress(&self) -> String {
        format!("generation {}", self.generation)
    }
}

impl Restartable for FixationCheckpoint {
    const KIND: &'static str = "fixation checkpoint";
    const COMMAND: &'static str = "fixate";
    const RUN: &'static str = "fixation batch";
    const UNIT: &'static str = "replicates";
    fn progress(&self) -> String {
        format!("{}/{} replicates", self.completed.len(), self.spec.replicates)
    }
}

/// `--checkpoint-out FILE` / `--checkpoint-every N` / `--resume FILE`
/// (docs/FAULT_TOLERANCE.md), parsed once for every engine subcommand.
struct CheckpointFlags {
    out: Option<String>,
    every: Option<u64>,
    resume: Option<String>,
}

impl CheckpointFlags {
    fn parse(args: &Args) -> Result<Self, String> {
        let flags = CheckpointFlags {
            out: args.value("--checkpoint-out").map(str::to_string),
            every: args.optional("--checkpoint-every")?,
            resume: args.value("--resume").map(str::to_string),
        };
        // An interval with nowhere to write is a usage error, not a silent
        // no-op (tests/cli.rs pins the subcommands to the identical message).
        if flags.every.is_some() && flags.out.is_none() {
            return Err("--checkpoint-every needs --checkpoint-out FILE".into());
        }
        Ok(flags)
    }

    /// Read the `--resume` checkpoint, if one was given. A resumed run is
    /// driven by the checkpoint's own parameters (they carry the seed and
    /// the target); parameter flags are ignored. Streams are keyed by
    /// generation or replicate, so the continuation is bit-identical to
    /// never having stopped.
    fn resume<C: Restartable>(&self) -> Result<Option<C>, String> {
        let Some(path) = &self.resume else {
            return Ok(None);
        };
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let cp = serde_json::from_str(&text).map_err(|e| format!("{path}: not a {}: {e}", C::KIND))?;
        Ok(Some(cp))
    }

    /// The message for a run that could not start: on `--resume` the
    /// parameters and tables came from the file, and whether they hold
    /// together is the library's check (docs/FAULT_TOLERANCE.md §4), so
    /// the file is named.
    fn blame(&self, e: impl std::fmt::Display) -> String {
        match &self.resume {
            Some(path) => format!("{path}: {e}"),
            None => e.to_string(),
        }
    }

    /// Write a restartable checkpoint as JSON to `--checkpoint-out`, if set.
    fn write<C: Restartable>(&self, cp: &C) -> Result<(), String> {
        let Some(path) = &self.out else {
            return Ok(());
        };
        let json = serde_json::to_string(cp).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        evogame::obs::counters().add_checkpoint_written();
        eprintln!("wrote checkpoint ({}) to {path}", cp.progress());
        Ok(())
    }

    /// The shared-memory loops' `--checkpoint-every` write: snapshot when
    /// `done` units completes an interval.
    fn periodic<C: Restartable>(&self, done: u64, snapshot: impl FnOnce() -> C) -> Result<(), String> {
        match self.every {
            Some(n) if n > 0 && done.is_multiple_of(n) => self.write(&snapshot()),
            _ => Ok(()),
        }
    }

    /// The interval a generation-synchronous distributed run checkpoints
    /// at. `--checkpoint-out` alone still wants the final state: the full
    /// run length is an interval that fires exactly once, at the end.
    fn dist_interval(&self, generations: u64) -> Option<u64> {
        self.every.or(self.out.as_ref().map(|_| generations))
    }
}

/// Deterministic fault injection (docs/FAULT_TOLERANCE.md; meaningful with
/// `--ranks` only) and the cost-only `--no-payoff-cache` opt-out, parsed
/// once for every engine subcommand.
fn fault_flags(args: &Args) -> Result<(FaultPlan, bool), String> {
    let mut faults = FaultPlan::default();
    if let Some(rank) = args.optional("--kill-rank")? {
        let generation = args.parse("--kill-at", 0u64)?;
        faults.kills.push(RankKill { rank, generation });
    }
    faults.recv_timeout_ms = args.optional("--recv-timeout-ms")?;
    Ok((faults, args.flag("--no-payoff-cache")))
}

/// `--records FILE.jsonl`: stream every record to a JSONL file (the Nature
/// Agent's file-I/O role).
struct Records(Option<(String, RecordWriter<std::fs::File>)>);

impl Records {
    fn open(args: &Args) -> Result<Self, String> {
        let Some(path) = args.value("--records") else {
            return Ok(Records(None));
        };
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(Records(Some((path.to_string(), RecordWriter::new(file)))))
    }

    fn write(&mut self, rec: &GenerationRecord) -> Result<(), String> {
        match &mut self.0 {
            Some((_, w)) => w
                .write_generation(rec)
                .map_err(|e| format!("writing records: {e}")),
            None => Ok(()),
        }
    }

    /// Flush and report; `unit` is what one record describes.
    fn finish(&mut self, unit: &str) -> Result<(), String> {
        if let Some((path, w)) = self.0.take() {
            let lines = w.lines();
            w.finish().map_err(|e| format!("flushing records: {e}"))?;
            eprintln!("wrote {lines} {unit} records to {path}");
        }
        Ok(())
    }
}

/// How `distributed`, `spatial --ranks` and `fixate --ranks` end a run that
/// degraded cleanly: say what happened, save the restart checkpoint, still
/// report the telemetry, and exit 3.
fn degraded_exit<C: Restartable>(
    d: &Degraded<C>,
    checkpoints: &CheckpointFlags,
    manifest: &ManifestOut,
    run: &RunId,
    ranks: usize,
    elapsed: f64,
) -> Result<ExitCode, String> {
    eprintln!(
        "{} degraded after {} {} (dead ranks {:?}): {}",
        C::RUN,
        d.completed,
        C::UNIT,
        d.dead_ranks,
        d.reason
    );
    match (&checkpoints.out, &d.checkpoint) {
        (Some(path), Some(cp)) => {
            checkpoints.write(cp)?;
            eprintln!("restart with: evogame-cli {} --resume {path}", C::COMMAND);
        }
        (None, Some(_)) => {
            eprintln!("hint: add --checkpoint-out FILE to save the restart checkpoint");
        }
        _ => {}
    }
    // A degraded run still reports its telemetry — the fault counters are
    // exactly what an operator wants from it.
    manifest.capture(run, ranks, d.completed, elapsed, &[])?;
    // Exit code 3 distinguishes a clean degraded run (typed, restartable)
    // from usage or parameter errors (1).
    Ok(ExitCode::from(3))
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let manifest = ManifestOut::parse(args);
    let checkpoints = CheckpointFlags::parse(args)?;
    let (_, no_payoff_cache) = fault_flags(args)?;
    let mut pop = match checkpoints.resume()? {
        Some(cp) => Population::restore(cp).map_err(|e| checkpoints.blame(e))?,
        None => Population::new(build_params(args)?).map_err(|e| e.to_string())?,
    };
    if args.flag("--on-demand") {
        pop.fitness_policy = FitnessPolicy::OnDemand;
    }
    // Performance knobs (docs/PERFORMANCE.md). `--dedup` and
    // `--no-payoff-cache` are cost-only: trajectories are bit-identical
    // either way. `--expected-fitness` selects the exact Markov fast path —
    // identical dynamics for pure noiseless populations, a documented
    // variance-free ablation for stochastic ones.
    if args.flag("--dedup") {
        pop.dedup = true;
    }
    if no_payoff_cache {
        pop.use_payoff_cache = false;
    }
    if args.flag("--expected-fitness") {
        pop.expected_fitness = true;
    }
    let start = pop.generation();
    let total = pop.params().generations;
    let every = args.parse("--sample-every", ((total - start) / 10).max(1))?;
    let target = (pop.space().mem_steps() == 1).then(|| (vec![1.0, 0.0, 0.0, 1.0], 0.499));
    let mut traj = match &target {
        Some((t, tol)) => Trajectory::with_target(t.clone(), *tol),
        None => Trajectory::new(),
    };
    let mut records = Records::open(args)?;
    let t0 = std::time::Instant::now();
    traj.observe(&pop);
    for g in start..total {
        records.write(&pop.step())?;
        if (g + 1 - start) % every == 0 || g + 1 == total {
            traj.observe(&pop);
        }
        checkpoints.periodic(g + 1, || pop.checkpoint())?;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    records.finish("generation")?;

    print!("{}", traj.to_csv());
    let stats = pop.stats();
    eprintln!(
        "\n{} generations in {elapsed:.2}s | PC events {} | adoptions {} | mutations {} | \
         games {}",
        stats.generations, stats.pc_events, stats.adoptions, stats.mutations, stats.games_played
    );
    eprintln!(
        "state digest: {:016x}",
        state_digest(&pop.assignments(), &pop.snapshot().features)
    );
    if args.flag("--heatmap") {
        eprintln!("\nfinal population (clustered):");
        eprint!("{}", render_ascii(&pop.snapshot(), &HeatmapOptions::default()));
    }
    if checkpoints.out.is_some() {
        // Always leave the final state on disk, whatever interval (if any)
        // the periodic writes used.
        checkpoints.write(&pop.checkpoint())?;
    }
    manifest.write(|_| pop.manifest(elapsed))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_tournament(args: &Args) -> Result<(), String> {
    let mem = args.parse("--mem", 2usize)?;
    let space = StateSpace::new(mem).map_err(|e| e.to_string())?;
    let cfg = GameConfig {
        rounds: args.parse("--rounds", 200u32)?,
        noise: args.parse("--noise", 0.0f64)?,
        ..GameConfig::default()
    };
    let reps = args.parse("--reps", 5u32)?;
    let mut entrants: Vec<Entrant> = classic::roster(&space)
        .into_iter()
        .map(|(n, s)| Entrant {
            name: n.into(),
            strategy: Strategy::Pure(s),
        })
        .collect();
    if mem >= 1 {
        entrants.push(Entrant {
            name: "GTFT".into(),
            strategy: Strategy::Mixed(classic::gtft(&space, &cfg.payoff)),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(args.parse("--seed", 0u64)?);
    let result = RoundRobin::new(space, cfg).with_repetitions(reps).run(&entrants, &mut rng);
    print!("{}", result.render());
    println!("winner: {}", result.winner());
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    let procs: u64 = args.parse("--procs", 262_144u64)?;
    let profile = match args.value("--profile").unwrap_or("bgp") {
        "bgp" => MachineProfile::bluegene_p(),
        "bgl" => MachineProfile::bluegene_l(),
        other => return Err(format!("unknown profile {other:?} (bgp|bgl)")),
    };
    let w = Workload {
        num_ssets: args.parse("--ssets", 4_194_304u64)?,
        mem_steps: args.parse("--mem", 6usize)?,
        generations: args.parse("--generations", 1_000u64)?,
        pc_rate: args.parse("--pc-rate", 0.01f64)?,
        mutation_rate: args.parse("--mu", 0.05f64)?,
        policy: if args.flag("--every-generation") {
            FitnessPolicy::EveryGeneration
        } else {
            FitnessPolicy::OnDemand
        },
    };
    let model = PerfModel::new(profile);
    let b = model.breakdown(&w, procs);
    println!("profile:  {}", model.profile.name);
    println!(
        "workload: {} SSets, memory-{}, {} generations, {:.0e} games/generation",
        w.num_ssets,
        w.mem_steps,
        w.generations,
        w.games_per_generation()
    );
    println!("procs:    {procs}");
    println!("predicted total:   {:.2} s", b.total);
    println!("  compute/gen:     {:.3} ms", b.compute * 1e3);
    println!("  comm/gen:        {:.3} ms", b.comm * 1e3);
    println!("  mapping penalty: {:.2}x", b.penalty);
    let base = args.parse("--base", 1_024u64)?;
    println!(
        "efficiency vs {base} procs: {:.1}%",
        model.efficiency(&w, base, procs) * 100.0
    );
    Ok(())
}

fn cmd_distributed(args: &Args) -> Result<ExitCode, String> {
    let ranks = args.parse("--ranks", 4usize)?;
    if ranks < 2 {
        return Err("--ranks must be ≥ 2 (Nature Agent + compute)".into());
    }
    let manifest = ManifestOut::parse(args);
    let checkpoints = CheckpointFlags::parse(args)?;
    let policy = if args.flag("--every-generation") {
        FitnessPolicy::EveryGeneration
    } else {
        FitnessPolicy::OnDemand
    };
    let mut cfg = match checkpoints.resume::<Checkpoint>()? {
        Some(cp) => {
            let mut c = DistConfig::new(cp.params.clone(), ranks, policy);
            c.resume = Some(cp);
            c
        }
        None => DistConfig::new(build_params(args)?, ranks, policy),
    };
    let generations = cfg.params.generations;
    cfg.checkpoint_every = checkpoints.dist_interval(generations);
    (cfg.faults, cfg.disable_payoff_cache) = fault_flags(args)?;

    let run = RunId {
        params: cfg.params.to_value(),
        seed: cfg.params.seed,
    };
    let t0 = std::time::Instant::now();
    match run_distributed(&cfg) {
        Ok(out) => {
            println!(
                "distributed run on {ranks} ranks: {} generations in {:.2}s",
                out.stats.generations,
                t0.elapsed().as_secs_f64()
            );
            println!(
                "PC events {} | adoptions {} | mutations {} | games {} | messages {}",
                out.stats.pc_events,
                out.stats.adoptions,
                out.stats.mutations,
                out.stats.games_played,
                out.messages_sent
            );
            eprintln!(
                "state digest: {:016x}",
                state_digest(&out.assignments, &out.features)
            );
            if let Some(cp) = &out.checkpoint {
                checkpoints.write(cp)?;
            }
            let elapsed = t0.elapsed().as_secs_f64();
            manifest.capture(&run, ranks, generations, elapsed, &out.generation_ns)?;
            Ok(ExitCode::SUCCESS)
        }
        Err(DistError::Degraded(d)) => {
            degraded_exit(&d, &checkpoints, &manifest, &run, ranks, t0.elapsed().as_secs_f64())
        }
        Err(e @ DistError::Params(_)) => Err(checkpoints.blame(e)),
        Err(e) => Err(e.to_string()),
    }
}

/// Spatial lattice parameters from flags (docs/GRAPH.md). The payoff
/// matrix is the weak dilemma of the spatial-games literature: R = 1,
/// S = P = 0, T = `--temptation` (default 1.85).
fn build_spatial_params(args: &Args) -> Result<SpatialParams, String> {
    let mut p = SpatialParams {
        width: args.parse("--width", 32usize)?,
        height: args.parse("--height", 32usize)?,
        mem_steps: args.parse("--mem", 0usize)?,
        generations: args.parse("--generations", 100u64)?,
        seed: args.parse("--seed", 0u64)?,
        ..SpatialParams::default()
    };
    p.game.rounds = args.parse("--rounds", 1u32)?;
    p.game.noise = args.parse("--noise", 0.0f64)?;
    let b = args.parse("--temptation", 1.85f64)?;
    p.game.payoff = evogame::ipd::payoff::PayoffMatrix::from_rstp(1.0, 0.0, b, 0.0);
    p.update = match args.value("--update").unwrap_or("best") {
        "best" => SpatialUpdate::BestNeighbor,
        "fermi" => SpatialUpdate::Fermi {
            beta: args.parse("--beta", 1.0f64)?,
        },
        other => return Err(format!("unknown update {other:?} (best|fermi)")),
    };
    p.neighborhood = match args.value("--neighborhood").unwrap_or("moore8") {
        "moore8" => Neighborhood::Moore8,
        "vn4" => Neighborhood::VonNeumann4,
        other => return Err(format!("unknown neighborhood {other:?} (moore8|vn4)")),
    };
    if args.flag("--no-self") {
        p.include_self = false;
    }
    p.validate()?;
    Ok(p)
}

/// `--init single` (lone central defector, the paper-classic seeding) or
/// `--init random:P` (each cell defects with probability P).
fn parse_init(args: &Args) -> Result<InitPattern, String> {
    match args.value("--init").unwrap_or("single") {
        "single" => Ok(InitPattern::SingleDefector),
        s => match s.strip_prefix("random:") {
            Some(p) => Ok(InitPattern::RandomDefectors(
                p.parse()
                    .map_err(|_| format!("invalid probability {p:?} in --init"))?,
            )),
            None => Err(format!("unknown init {s:?} (single|random:P)")),
        },
    }
}

/// `spatial`: games on a lattice (docs/GRAPH.md). Without `--ranks` the
/// shared-memory [`SpatialPopulation`] runs; with `--ranks N` the same
/// trajectory runs rank-sharded over contiguous row partitions — bit for
/// bit the same records, grid, and state digest.
fn cmd_spatial(args: &Args) -> Result<ExitCode, String> {
    let manifest = ManifestOut::parse(args);
    let checkpoints = CheckpointFlags::parse(args)?;
    let (faults, no_payoff_cache) = fault_flags(args)?;
    let resume: Option<SpatialCheckpoint> = checkpoints.resume()?;
    let (params, init) = match &resume {
        Some(cp) => (cp.params.clone(), InitPattern::SingleDefector),
        None => {
            let p = build_spatial_params(args)?;
            let init = parse_init(args)?;
            init.validate(&p)?;
            (p, init)
        }
    };
    let run = RunId {
        params: params.to_value(),
        seed: params.seed,
    };
    let generations = params.generations;
    let mut records = Records::open(args)?;
    let t0 = std::time::Instant::now();

    if let Some(ranks) = args.optional::<usize>("--ranks")? {
        // Distributed: rank 0 coordinates, ranks 1.. own row blocks.
        let mut cfg = SpatialDistConfig::new(params, init, ranks);
        cfg.resume = resume;
        cfg.checkpoint_every = checkpoints.dist_interval(generations);
        (cfg.faults, cfg.disable_payoff_cache) = (faults, no_payoff_cache);
        return match run_spatial_distributed(&cfg) {
            Ok(out) => {
                for rec in &out.records {
                    records.write(rec)?;
                }
                records.finish("generation")?;
                let cells = out.grid.len();
                let coop = out
                    .features
                    .iter()
                    .filter(|f| f.iter().all(|&p| p == 1.0))
                    .count();
                println!(
                    "spatial run on {ranks} ranks: {} generations in {:.2}s",
                    out.stats.generations,
                    t0.elapsed().as_secs_f64()
                );
                println!(
                    "cooperators {coop}/{cells} | adoptions {} | games {} | messages {}",
                    out.stats.adoptions, out.stats.games_played, out.messages_sent
                );
                eprintln!(
                    "state digest: {:016x}",
                    state_digest(&out.grid, &out.features)
                );
                if let Some(cp) = &out.checkpoint {
                    checkpoints.write(cp)?;
                }
                manifest.capture(&run, ranks, generations, t0.elapsed().as_secs_f64(), &[])?;
                Ok(ExitCode::SUCCESS)
            }
            Err(DistError::Degraded(d)) => {
                degraded_exit(&d, &checkpoints, &manifest, &run, ranks, t0.elapsed().as_secs_f64())
            }
            Err(e @ DistError::Params(_)) => Err(checkpoints.blame(e)),
            Err(e) => Err(e.to_string()),
        };
    }

    // Shared-memory backend.
    let mut pop = match resume {
        Some(cp) => SpatialPopulation::restore(cp).map_err(|e| checkpoints.blame(e))?,
        None => SpatialPopulation::new(params, init),
    };
    if no_payoff_cache {
        pop.use_payoff_cache = false;
    }
    let start = pop.generation();
    let every = args.parse("--sample-every", ((generations - start) / 10).max(1))?;
    println!("generation,cooperator_fraction,mean_fitness,distinct");
    let emit = |pop: &SpatialPopulation, mean: f64| {
        println!(
            "{},{:.6},{mean:.6},{}",
            pop.generation(),
            pop.cooperator_fraction(),
            pop.snapshot().distinct_strategies()
        );
    };
    for g in start..generations {
        let rec = pop.step();
        records.write(&rec)?;
        if (g + 1 - start) % every == 0 || g + 1 == generations {
            emit(&pop, rec.mean_fitness.unwrap_or(f64::NAN));
        }
        checkpoints.periodic(g + 1, || pop.checkpoint())?;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    records.finish("generation")?;
    let stats = pop.stats();
    eprintln!(
        "\n{} generations in {elapsed:.2}s | adoptions {} | games {}",
        stats.generations, stats.adoptions, stats.games_played
    );
    let snap = pop.snapshot();
    eprintln!(
        "state digest: {:016x}",
        state_digest(&snap.assignments, &snap.features)
    );
    if args.flag("--render") {
        eprintln!("\nfinal grid (C = cooperate, D = defect):");
        eprint!("{}", pop.render());
    }
    if checkpoints.out.is_some() {
        checkpoints.write(&pop.checkpoint())?;
    }
    manifest.capture(&run, 1, generations, elapsed, &[])?;
    Ok(ExitCode::SUCCESS)
}

/// Fixation spec from flags (docs/FIXATION.md). `--mu` is rejected:
/// absorption needs mutation off, so the spec always carries
/// `mutation_rate = 0`.
fn build_fixation_spec(args: &Args) -> Result<FixationSpec, String> {
    if args.value("--mu").is_some() {
        return Err(
            "fixate forces --mu 0 (mutation re-introduces lost lineages, \
             so absorption would never be reached)"
                .into(),
        );
    }
    let params = engine_params(args, 16, 10_000, 1.0, "moran")?;
    let space = params.validate().map_err(|e| e.to_string())?;
    let resident = roster_strategy(&space, args.value("--resident").unwrap_or("ALLC"))?;
    let mutant = roster_strategy(&space, args.value("--mutant").unwrap_or("ALLD"))?;
    let spec = FixationSpec {
        params,
        resident,
        mutant,
        replicates: args.parse("--replicates", 64u32)?,
    };
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Look a strategy up by its classic-roster name (case-insensitive).
fn roster_strategy(space: &StateSpace, name: &str) -> Result<Strategy, String> {
    let roster = classic::roster(space);
    roster
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, s)| Strategy::Pure(s.clone()))
        .ok_or_else(|| {
            let names: Vec<&str> = roster.iter().map(|(n, _)| *n).collect();
            format!(
                "unknown strategy {name:?} for memory {} (one of {})",
                space.mem_steps(),
                names.join("|")
            )
        })
}

/// `fixate --matrix`: the round-robin tournament over every pure
/// memory-`m` strategy (docs/FIXATION.md), printed as the pairwise
/// fixation-probability matrix.
fn cmd_fixate_matrix(spec: FixationSpec) -> Result<ExitCode, String> {
    let t0 = std::time::Instant::now();
    let tournament = FixationTournament {
        params: spec.params,
        replicates: spec.replicates,
    };
    let matrix = tournament.run().map_err(|e| e.to_string())?;
    let n = matrix.len();
    let codes: Vec<String> = matrix
        .strategies
        .iter()
        .map(evogame::ipd::codec::encode)
        .collect();
    println!(
        "fixation matrix: {n} strategies x {n} strategies, {} replicates per pair, {:.2}s",
        matrix.replicates,
        t0.elapsed().as_secs_f64()
    );
    println!("rows = resident, columns = invading mutant; entry = P(fixation)");
    let head: Vec<String> = codes.iter().map(|c| format!("{c:>8}")).collect();
    println!("{:>8} {}", "", head.join(" "));
    for (i, code) in codes.iter().enumerate() {
        let row: Vec<String> = (0..n)
            .map(|j| format!("{:>8.4}", matrix.probability(i, j)))
            .collect();
        println!("{code:>8} {}", row.join(" "));
    }
    eprintln!(
        "state digest: {:016x}",
        state_digest(&matrix.probabilities, &matrix.mean_times)
    );
    Ok(ExitCode::SUCCESS)
}

/// `fixate`: the fixation-probability workload (docs/FIXATION.md). Seeds
/// one mutant into a resident population and runs independent replicates
/// to absorption; without `--ranks` the shared-memory [`FixationBatch`]
/// runs, with `--ranks N` the same replicates run sharded across compute
/// ranks — bit for bit the same counts, records, and state digest.
fn cmd_fixate(args: &Args) -> Result<ExitCode, String> {
    let manifest = ManifestOut::parse(args);
    let checkpoints = CheckpointFlags::parse(args)?;
    let (faults, no_payoff_cache) = fault_flags(args)?;
    let resume: Option<FixationCheckpoint> = checkpoints.resume()?;
    let spec = match &resume {
        Some(cp) => cp.spec.clone(),
        None => build_fixation_spec(args)?,
    };
    if args.flag("--matrix") {
        return cmd_fixate_matrix(spec);
    }
    let run = RunId {
        params: spec.params.to_value(),
        seed: spec.params.seed,
    };
    let replicates = u64::from(spec.replicates);
    let mut records = Records::open(args)?;
    let t0 = std::time::Instant::now();

    let mut report = |out: &FixationOutcome, backend: &str, elapsed: f64| -> Result<(), String> {
        for rec in out.records() {
            records.write(&rec)?;
        }
        records.finish("replicate")?;
        println!(
            "fixation batch ({backend}): {} replicates in {elapsed:.2}s",
            out.results.len()
        );
        println!(
            "fixed {} | extinct {} | censored {} | fixation probability {:.4} | \
             mean absorption time {:.1}",
            out.fixed(),
            out.extinct(),
            out.censored(),
            out.fixation_probability(),
            out.mean_absorption_time()
        );
        eprintln!("state digest: {:016x}", out.digest());
        Ok(())
    };

    if let Some(ranks) = args.optional::<usize>("--ranks")? {
        // Distributed: rank 0 coordinates, ranks 1.. own replicate blocks.
        let mut cfg = FixationDistConfig::new(spec.clone(), ranks);
        cfg.resume = resume;
        // A fixation batch never exceeds u32 replicates.
        cfg.checkpoint_every = checkpoints.every.map(|n| u32::try_from(n).unwrap_or(u32::MAX));
        (cfg.faults, cfg.disable_payoff_cache) = (faults, no_payoff_cache);
        return match run_fixation_distributed(&cfg) {
            Ok(out) => {
                report(&out.outcome, &format!("{ranks} ranks"), t0.elapsed().as_secs_f64())?;
                eprintln!("messages {}", out.messages_sent);
                if checkpoints.out.is_some() {
                    // The finished batch is its own (complete) checkpoint.
                    let mut book = FixationBatch::new(spec).map_err(|e| e.to_string())?;
                    for r in &out.outcome.results {
                        book.record(*r);
                    }
                    checkpoints.write(&book.checkpoint())?;
                }
                manifest.capture(&run, ranks, replicates, t0.elapsed().as_secs_f64(), &[])?;
                Ok(ExitCode::SUCCESS)
            }
            Err(DistError::Degraded(d)) => {
                degraded_exit(&d, &checkpoints, &manifest, &run, ranks, t0.elapsed().as_secs_f64())
            }
            Err(e @ DistError::Params(_)) => Err(checkpoints.blame(e)),
            Err(e) => Err(e.to_string()),
        };
    }

    // Shared-memory backend.
    let mut batch = match resume {
        Some(cp) => FixationBatch::resume(cp).map_err(|e| checkpoints.blame(e))?,
        None => FixationBatch::new(spec).map_err(|e| e.to_string())?,
    };
    if checkpoints.every.is_some_and(|n| n > 0) {
        // Checkpointed runs go replicate by replicate so the snapshot
        // cadence is exact; the stitched outcome is bit-identical to the
        // rayon path (each replicate is a pure function of its index).
        let mut fresh = 0u64;
        while batch.run_step().is_some() {
            fresh += 1;
            checkpoints.periodic(fresh, || batch.checkpoint())?;
        }
    } else {
        batch.run();
    }
    let elapsed = t0.elapsed().as_secs_f64();
    report(&batch.outcome(), "shared memory", elapsed)?;
    if checkpoints.out.is_some() {
        checkpoints.write(&batch.checkpoint())?;
    }
    manifest.capture(&run, 1, replicates, elapsed, &[])?;
    Ok(ExitCode::SUCCESS)
}

/// `serve`: the simulation-as-a-service front end (docs/SERVICE.md).
///
/// Reads line-delimited JSON [`JobRequest`]s from `--requests FILE` or
/// stdin, drives them through the `svc` job server, and spools each
/// job's status, streamed records, checkpoints, and final receipt under
/// `--spool DIR/<job id>/`. No network anywhere: submission is a file or
/// a pipe, results are files.
///
/// Exit code: 0 when every submitted job completed; 4 when any job was
/// rejected or failed (the per-job lines on stdout say which).
fn cmd_serve(args: &Args) -> Result<ExitCode, String> {
    let Some(spool_dir) = args.value("--spool") else {
        return Err("serve needs --spool DIR (per-job artefact directory)".into());
    };
    let workers = args.parse("--workers", 2usize)?.max(1);
    let queue_depth = args.parse("--queue-depth", 64usize)?;
    let text = match args.value("--requests") {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => {
            use std::io::Read as _;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading stdin: {e}"))?;
            buf
        }
    };
    let spool = Spool::new(spool_dir).map_err(|e| format!("{spool_dir}: {e}"))?;
    let baseline = evogame::obs::counters().snapshot();
    let server = Server::with_spool(
        ServerConfig {
            workers,
            queue_depth,
        },
        Some(spool.clone()),
    );

    let mut submitted: Vec<String> = Vec::new();
    let mut rejected = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match serde_json::from_str::<JobRequest>(line) {
            Ok(req) => {
                let id = req.id.clone();
                match server.submit(req) {
                    Ok(()) => submitted.push(id),
                    Err(e) => {
                        rejected += 1;
                        eprintln!("job {id}: rejected: {e}");
                    }
                }
            }
            Err(e) => {
                // Malformed lines count as rejections too — nothing is
                // dropped silently.
                rejected += 1;
                evogame::obs::counters().add_job_rejected();
                eprintln!("line {}: not a job request: {e}", lineno + 1);
            }
        }
    }
    server.wait_idle();

    let (mut completed, mut failed) = (0usize, 0usize);
    for id in &submitted {
        match server.status(id) {
            Some(JobStatus::Completed {
                state_digest,
                retries,
            }) => {
                completed += 1;
                println!("job {id}: completed | state digest {state_digest} | retries {retries}");
            }
            Some(JobStatus::Failed { reason, retries }) => {
                failed += 1;
                println!("job {id}: failed | {reason} | retries {retries}");
            }
            other => {
                failed += 1;
                println!("job {id}: not settled ({other:?})");
            }
        }
    }
    server.shutdown();
    let delta = evogame::obs::counters().snapshot().delta_since(&baseline);
    eprintln!(
        "serve: {completed} completed, {failed} failed, {rejected} rejected | counters: \
         accepted {} rejected {} completed {} retried {}",
        delta.jobs_accepted, delta.jobs_rejected, delta.jobs_completed, delta.jobs_retried
    );
    eprintln!("receipts in {}", spool.root().display());
    if failed == 0 && rejected == 0 {
        Ok(ExitCode::SUCCESS)
    } else {
        // 4 = batch finished but not everything succeeded (3 is taken by
        // `distributed`'s clean-degraded-run code).
        Ok(ExitCode::from(4))
    }
}

fn cmd_classify(args: &Args) -> Result<(), String> {
    let Some(code) = args.rest.first() else {
        return Err("usage: evogame-cli classify <m<n>:...> (see ipd::codec)".into());
    };
    let strategy = evogame::ipd::codec::decode(code).map_err(|e| e.to_string())?;
    let space = *strategy.space();
    let fv = strategy.feature_vector();
    let (name, distance) = evogame::analysis::classify::nearest_named(&fv, &space);
    println!("input:    {code}");
    println!("memory:   {} ({} states)", space.mem_steps(), space.num_states());
    if space.num_states() <= 16 {
        println!("coop probabilities: {fv:?}");
    }
    println!("nearest classic: {name} (rms distance {distance:.3})");
    if distance < 1e-9 {
        println!("-> exactly {name}");
    }
    Ok(())
}

const USAGE: &str = "usage: evogame-cli <run|tournament|predict|distributed|spatial|fixate|serve|classify> [flags]
  run          evolve a population, print the sampled trajectory as CSV
  tournament   Axelrod round robin over the classic roster
  predict      Blue Gene-scale runtime/efficiency from the perf model
  distributed  run the virtual-cluster engine (any --rule; same trajectory
               as `run`, bit for bit — docs/ENGINE_CORE.md)
  spatial      games on a lattice, shared-memory or (--ranks N) rank-sharded
               over row partitions — same trajectory bit for bit
               (docs/GRAPH.md)
  fixate       fixation probability: seed one mutant into a resident
               population, run replicates to absorption, shared-memory or
               (--ranks N) replicate-sharded — same counts, records, and
               digest bit for bit (docs/FIXATION.md)
  serve        job server: line-delimited JSON job requests from stdin or
               --requests FILE, receipts spooled per job (docs/SERVICE.md)
  classify     name a strategy given its compact code (e.g. 'classify m1:6')
run flags:     --ssets N --generations G --mem M --seed S --pc-rate R --mu R
               --beta B --noise E --rounds N --mixed --rule pc|moran|best
               --on-demand --sample-every N --heatmap --records FILE.jsonl
               --manifest-out FILE.json   (JSON run manifest, see
                                           docs/OBSERVABILITY.md; also
                                           accepted by `distributed`)
performance (docs/PERFORMANCE.md; all bit-identical for the paper's
deterministic configurations):
               --dedup              play each distinct strategy pair once
               --no-payoff-cache    disable the cross-generation payoff
                                    memo-cache (also for `distributed`)
               --expected-fitness   exact Markov fitness (`run` only): the
                                    analytic fast path instead of round
                                    simulation
checkpointing (both `run` and `distributed` — docs/FAULT_TOLERANCE.md):
               --checkpoint-out FILE.json  write a restartable checkpoint
               --checkpoint-every N        refresh it every N generations
               --resume FILE.json          continue a checkpointed run
                                           (bit-identical to never stopping)
spatial flags (docs/GRAPH.md; checkpointing and fault injection as below):
               --width W --height H        torus size (default 32x32)
               --temptation B              T of the weak dilemma (1.85)
               --update best|fermi --beta B  update rule (best)
               --neighborhood moore8|vn4   interaction graph (moore8)
               --no-self                   exclude own payoff from 'best'
               --init single|random:P      seeding (single central defector)
               --mem M --rounds N --noise E  iterated-game knobs
               --ranks N                   run rank-sharded (row partitions)
               --render                    ASCII grid to stderr at the end
fixate flags (docs/FIXATION.md; checkpointing and fault injection as
below; --mu is rejected — absorption needs mutation off):
               --replicates R              independent replicates (64)
               --resident NAME             roster strategy all SSets start
                                           with (ALLC)
               --mutant NAME               roster strategy seeded into one
                                           SSet (ALLD)
               --generations G             per-replicate absorption cap
                                           (10000; overruns are censored)
               --rule pc|moran|best        update rule (moran)
               --pc-rate R                 update-event rate (1.0)
               --matrix                    round-robin over every pure
                                           memory-m strategy instead;
                                           prints the fixation matrix
               --ranks N                   shard replicates across ranks
fault injection (`distributed`, `spatial --ranks`, and `fixate --ranks`;
exit 3 = clean degraded run):
               --kill-rank R --kill-at G   kill rank R at generation G
               --recv-timeout-ms MS        receive deadline for survivors
serve flags (docs/SERVICE.md; exit code 4 = some job failed/rejected):
               --spool DIR          required; <DIR>/<job id>/ gets status,
                                    records.jsonl, checkpoint, receipt
               --requests FILE      JSONL job requests (default: stdin)
               --workers N          worker threads (default 2)
               --queue-depth N      admission bound (default 64)
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args::new(&raw[1..]);
    let result: Result<ExitCode, String> = match cmd.as_str() {
        "run" => cmd_run(&args),
        "tournament" => cmd_tournament(&args).map(|()| ExitCode::SUCCESS),
        "predict" => cmd_predict(&args).map(|()| ExitCode::SUCCESS),
        "distributed" => cmd_distributed(&args),
        "spatial" => cmd_spatial(&args),
        "fixate" => cmd_fixate(&args),
        "serve" => cmd_serve(&args),
        "classify" => cmd_classify(&args).map(|()| ExitCode::SUCCESS),
        "-h" | "--help" | "help" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
