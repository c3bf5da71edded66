//! `evogame-cli` — drive the library from the command line. [`USAGE`]
//! (`evogame-cli help`) lists the subcommands and every flag.
//!
//! The engine subcommands — `run`, `distributed`, `spatial`, `fixate` — are
//! one driver ([`engine_command`]) over [`Family`], the seam `svc`'s job
//! lifecycle is written over too; what is per family here is its flags and
//! its report lines ([`Front`]). Exit codes: 1 for a usage or parameter
//! error, 3 for a distributed run that degraded cleanly
//! (docs/FAULT_TOLERANCE.md), 4 for a `serve` batch with a failed or
//! rejected job. An argument nothing reads — a misspelled flag, a flag the
//! subcommand does not honour on this backend — is refused, not ignored.

#![forbid(unsafe_code)]

use evogame::analysis::heatmap::{render_ascii, HeatmapOptions};
use evogame::analysis::timeseries::Trajectory;
use evogame::cluster::dist::DistError;
use evogame::cluster::faults::{FaultPlan, RankKill};
use evogame::engine::params::UpdateRule;
use evogame::engine::record::{state_digest, GenerationRecord, RecordWriter};
use evogame::ipd::classic;
use evogame::ipd::tournament::{Entrant, RoundRobin};
use evogame::obs::{CounterSnapshot, RunManifest};
use evogame::prelude::*;
use evogame::svc::{Distributed, Family, JobRequest, JobStatus, Server, ServerConfig, SpatialJobSpec, Spool};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::process::ExitCode;

/// Minimal flag parser: `--key value` pairs plus boolean `--key` switches.
/// It remembers which arguments some reader asked for, so that the rest can
/// be refused ([`Args::reject_unread`]): the flags a subcommand knows are
/// exactly the ones its code reads.
struct Args {
    rest: Vec<String>,
    read: RefCell<BTreeSet<usize>>,
}

impl Args {
    fn new(raw: &[String]) -> Self {
        Args {
            rest: raw.to_vec(),
            read: RefCell::default(),
        }
    }

    fn flag(&self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        self.read.borrow_mut().extend(at);
        at.is_some()
    }

    fn value(&self, name: &str) -> Option<&str> {
        let at = self.rest.iter().position(|a| a == name)?;
        let value = self.rest.get(at + 1)?;
        self.read.borrow_mut().extend([at, at + 1]);
        Some(value)
    }

    /// The leading positional argument (`classify <code>`).
    fn first(&self) -> Option<&str> {
        self.read.borrow_mut().insert(0);
        self.rest.first().map(String::as_str)
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

    /// Refuse the first argument nothing read: an unknown or misspelled
    /// flag, a second copy of one, a flag missing its value, or a flag this
    /// subcommand does not honour on the backend it was asked to run. Call
    /// it after every flag is read and before any work is done.
    fn reject_unread(&self, command: &str) -> Result<(), String> {
        let read = self.read.borrow();
        match (0..self.rest.len()).find(|at| !read.contains(at)) {
            Some(at) => Err(format!(
                "`{command}` does not understand {} here (see `evogame-cli help`)",
                self.rest[at]
            )),
            None => Ok(()),
        }
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
    /// driven by the checkpoint's own parameters ([`Family::resuming`]).
    /// Streams are keyed by generation or replicate, so the continuation is
    /// bit-identical to never having stopped.
    fn resume<F: Family>(&self) -> Result<Option<F::Checkpoint>, String> {
        let Some(path) = &self.resume else {
            return Ok(None);
        };
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let cp = serde_json::from_str(&text).map_err(|e| format!("{path}: not a {}: {e}", F::KIND))?;
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

    /// Write a restartable checkpoint as JSON to `--checkpoint-out`, if
    /// set; `progress` words what it holds.
    fn write<C: serde::Serialize>(&self, cp: &C, progress: fn(&C) -> String) -> Result<(), String> {
        let Some(path) = &self.out else {
            return Ok(());
        };
        let json = serde_json::to_string(cp).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        evogame::obs::counters().add(evogame::obs::Counter::CheckpointsWritten, 1);
        eprintln!("wrote checkpoint ({}) to {path}", progress(cp));
        Ok(())
    }
}

/// Deterministic fault injection (docs/FAULT_TOLERANCE.md). The flags are
/// read on the distributed backends only, so a shared-memory run refuses
/// them.
fn fault_flags(args: &Args, distributed: bool) -> Result<FaultPlan, String> {
    let mut faults = FaultPlan::default();
    if distributed {
        if let Some(rank) = args.optional("--kill-rank")? {
            let generation = args.parse("--kill-at", 0u64)?;
            faults.kills.push(RankKill { rank, generation });
        } else if args.flag("--kill-at") {
            return Err("--kill-at needs --kill-rank R".into());
        }
        faults.recv_timeout_ms = args.optional("--recv-timeout-ms")?;
    }
    Ok(faults)
}

/// `--records FILE.jsonl`: stream every record to a JSONL file (the Nature
/// Agent's file-I/O role).
struct Records(Option<(String, RecordWriter<std::fs::File>)>);

impl Records {
    fn create(path: Option<&str>) -> Result<Self, String> {
        let Some(path) = path else {
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

/// What a family's reporter hears from [`engine_command`].
enum Event<'a, F: Family> {
    /// The shared-memory run is built, fresh or restored; its first step
    /// comes next.
    Started(&'a mut F),
    /// The step just run is one `--sample-every` picks (stepwise fronts).
    Sampled(&'a F, &'a GenerationRecord),
    /// The shared-memory run reached its target after this many seconds.
    Finished(&'a F, f64),
    /// The run finished on this many ranks after this many seconds.
    Distributed(&'a Distributed<F>, usize, f64),
}

type Reporter<'a, F> = Box<dyn FnMut(Event<'_, F>) + 'a>;

/// What is per family in an engine subcommand: the spec its flags
/// describe, and its report lines.
struct Front<'a, F: Family> {
    spec: F::Spec,
    /// `--records FILE`, where this family on this backend has records.
    records: Option<&'a str>,
    /// Whether a shared-memory run's records and samples come from its
    /// steps, as they run, or from its end ([`Family::run_to_end`]).
    stepwise: bool,
    /// Progress as the "wrote checkpoint (…)" line words it.
    progress: fn(&F::Checkpoint) -> String,
    report: Reporter<'a, F>,
}

/// The final-state line every engine run ends on; scripts and the ledger
/// parse it.
fn digest_line(digest: u64) {
    eprintln!("state digest: {digest:016x}");
}

/// `run`, `distributed`, `spatial` and `fixate`: one lifecycle over
/// [`Family`]. Read the flags, refuse what nobody read, start or resume;
/// then either step the shared-memory run (records, samples, periodic
/// checkpoints) or, with `ranks`, run it on the virtual cluster — bit for
/// bit the same records and state digest — and leave the final checkpoint
/// and the manifest. A distributed run that degraded cleanly says what
/// happened, saves the restart checkpoint, still reports its telemetry, and
/// exits 3.
fn engine_command<'a, F: Family>(
    command: &str,
    args: &'a Args,
    ranks: Option<usize>,
    front: impl FnOnce(&'a Args, bool) -> Result<Front<'a, F>, String>,
) -> Result<ExitCode, String> {
    let manifest = ManifestOut::parse(args);
    let checkpoints = CheckpointFlags::parse(args)?;
    let faults = fault_flags(args, ranks.is_some())?;
    let mut front = front(args, ranks.is_some())?;
    // Which generations the printed trajectory samples: every Nth the run
    // executes (default: ten samples) and the last.
    let sample_every: Option<u64> = match ranks {
        None if front.stepwise => args.optional("--sample-every")?,
        _ => None,
    };
    args.reject_unread(command)?;

    let resume = checkpoints.resume::<F>()?;
    let spec = match &resume {
        Some(cp) => F::resuming(front.spec, cp),
        None => front.spec,
    };
    let (progress, report) = (front.progress, &mut front.report);
    let (params, seed) = F::identity(&spec);
    let mut records = Records::create(front.records)?;
    let t0 = std::time::Instant::now();
    let elapsed = || t0.elapsed().as_secs_f64();

    let Some(ranks) = ranks else {
        let mut run = F::start(&spec, resume).map_err(|e| checkpoints.blame(e))?;
        report(Event::Started(&mut run));
        let (start, target) = (run.progress(), F::target(&spec));
        let sample_every = sample_every.unwrap_or((target.saturating_sub(start) / 10).max(1));
        let periodic = checkpoints.every.filter(|&n| n > 0);
        if front.stepwise || periodic.is_some() {
            while let Some(record) = run.step() {
                let done = run.progress();
                if front.stepwise {
                    records.write(&record)?;
                    if (done - start).is_multiple_of(sample_every) || done == target {
                        report(Event::Sampled(&run, &record));
                    }
                }
                if periodic.is_some_and(|n| done.is_multiple_of(n)) {
                    checkpoints.write(&run.checkpoint(), progress)?;
                }
            }
        }
        if !front.stepwise {
            for record in run.run_to_end() {
                records.write(&record)?;
            }
        }
        let elapsed = elapsed();
        records.finish(F::UNIT)?;
        report(Event::Finished(&run, elapsed));
        if checkpoints.out.is_some() {
            // Always leave the final state on disk, whatever interval (if
            // any) the periodic writes used.
            checkpoints.write(&run.checkpoint(), progress)?;
        }
        manifest.write(|baseline| run.manifest(&spec, baseline, elapsed))?;
        return Ok(ExitCode::SUCCESS);
    };

    let capture = |units, timings: &[u64]| {
        manifest.write(|baseline| {
            RunManifest::capture(params, seed, ranks, units, elapsed(), baseline, timings)
        })
    };
    // `--checkpoint-out` alone still wants the final state: the full run
    // length is an interval that fires exactly once, at the end.
    let interval = checkpoints.every.or(checkpoints.out.as_ref().map(|_| F::target(&spec)));
    match F::distribute(&spec, ranks, faults, interval, resume) {
        Ok(out) => {
            for record in &out.records {
                records.write(record)?;
            }
            records.finish(F::UNIT)?;
            report(Event::Distributed(&out, ranks, elapsed()));
            if let Some(cp) = &out.checkpoint {
                checkpoints.write(cp, progress)?;
            }
            capture(out.units, &out.generation_ns)?;
            Ok(ExitCode::SUCCESS)
        }
        Err(DistError::Degraded(d)) => {
            eprintln!(
                "{} degraded after {} {}s (dead ranks {:?}): {}",
                F::RUN,
                d.completed,
                F::UNIT,
                d.dead_ranks,
                d.reason
            );
            match (&checkpoints.out, &d.checkpoint) {
                (Some(path), Some(cp)) => {
                    checkpoints.write(cp, progress)?;
                    eprintln!("restart with: evogame-cli {command} --resume {path}");
                }
                (None, Some(_)) => {
                    eprintln!("hint: add --checkpoint-out FILE to save the restart checkpoint");
                }
                _ => {}
            }
            // A degraded run still reports its telemetry — the fault
            // counters are exactly what an operator wants from it.
            capture(d.completed, &[])?;
            // Exit code 3 distinguishes a clean degraded run (typed,
            // restartable) from usage or parameter errors (1).
            Ok(ExitCode::from(3))
        }
        Err(e @ DistError::Params(_)) => Err(checkpoints.blame(e)),
        Err(e) => Err(e.to_string()),
    }
}

/// `run` (shared memory) and `distributed`: the well-mixed engine.
fn well_mixed(args: &Args, distributed: bool) -> Result<Front<'_, Population>, String> {
    // `run` evaluates every generation unless told otherwise, as the paper
    // does; `distributed` defaults to the policy that scales.
    let on_demand = if distributed {
        !args.flag("--every-generation")
    } else {
        args.flag("--on-demand")
    };
    let policy = if on_demand {
        FitnessPolicy::OnDemand
    } else {
        FitnessPolicy::EveryGeneration
    };
    // Shared-memory performance knobs (docs/PERFORMANCE.md). `--dedup` is
    // cost-only; `--expected-fitness` selects the exact Markov fast path —
    // identical dynamics for pure noiseless populations, a documented
    // variance-free ablation for stochastic ones.
    let shared = |name| !distributed && args.flag(name);
    let (dedup, expected_fitness, heatmap) =
        (shared("--dedup"), shared("--expected-fitness"), shared("--heatmap"));
    let resumed = args.value("--resume").is_some();
    let mut traj = Trajectory::new();
    Ok(Front {
        spec: (build_params(args)?, policy),
        records: if distributed { None } else { args.value("--records") },
        stepwise: true,
        progress: |cp| format!("generation {}", cp.generation),
        report: Box::new(move |event| match event {
            Event::Started(pop) => {
                pop.dedup = dedup;
                pop.expected_fitness = expected_fitness;
                if resumed && expected_fitness {
                    // `Population::restore` warmed the cache for sampled
                    // fitness; this run reads expected payoffs.
                    pop.prewarm_payoff_cache();
                }
                if pop.space().mem_steps() == 1 {
                    traj = Trajectory::with_target(vec![1.0, 0.0, 0.0, 1.0], 0.499);
                }
                traj.observe(pop);
            }
            Event::Sampled(pop, _) => traj.observe(pop),
            Event::Finished(pop, elapsed) => {
                print!("{}", traj.to_csv());
                let stats = pop.stats();
                eprintln!(
                    "\n{} generations in {elapsed:.2}s | PC events {} | adoptions {} | \
                     mutations {} | games {}",
                    stats.generations,
                    stats.pc_events,
                    stats.adoptions,
                    stats.mutations,
                    stats.games_played
                );
                digest_line(pop.digest());
                if heatmap {
                    eprintln!("\nfinal population (clustered):");
                    eprint!("{}", render_ascii(&pop.snapshot(), &HeatmapOptions::default()));
                }
            }
            Event::Distributed(out, ranks, elapsed) => {
                let stats = &out.outcome.stats;
                println!(
                    "distributed run on {ranks} ranks: {} generations in {elapsed:.2}s",
                    stats.generations
                );
                println!(
                    "PC events {} | adoptions {} | mutations {} | games {} | messages {}",
                    stats.pc_events,
                    stats.adoptions,
                    stats.mutations,
                    stats.games_played,
                    out.outcome.messages_sent
                );
                digest_line(out.digest);
            }
        }),
    })
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
    let seed = args.parse("--seed", 0u64)?;
    args.reject_unread("tournament")?;
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
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
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
    let base = args.parse("--base", 1_024u64)?;
    args.reject_unread("predict")?;
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
    println!(
        "efficiency vs {base} procs: {:.1}%",
        model.efficiency(&w, base, procs) * 100.0
    );
    Ok(())
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

/// `spatial`: games on a lattice (docs/GRAPH.md), on the shared-memory
/// [`SpatialPopulation`] or rank-sharded over contiguous row partitions.
fn spatial(args: &Args, distributed: bool) -> Result<Front<'_, SpatialPopulation>, String> {
    let params = build_spatial_params(args)?;
    let init = parse_init(args)?;
    init.validate(&params)?;
    let render = !distributed && args.flag("--render");
    Ok(Front {
        spec: SpatialJobSpec { params, init },
        records: args.value("--records"),
        stepwise: true,
        progress: |cp| format!("generation {}", cp.generation),
        report: Box::new(move |event| match event {
            Event::Started(_) => println!("generation,cooperator_fraction,mean_fitness,distinct"),
            Event::Sampled(pop, record) => println!(
                "{},{:.6},{:.6},{}",
                pop.generation(),
                pop.cooperator_fraction(),
                record.mean_fitness.unwrap_or(f64::NAN),
                pop.snapshot().distinct_strategies()
            ),
            Event::Finished(pop, elapsed) => {
                let stats = pop.stats();
                eprintln!(
                    "\n{} generations in {elapsed:.2}s | adoptions {} | games {}",
                    stats.generations, stats.adoptions, stats.games_played
                );
                digest_line(pop.digest());
                if render {
                    eprintln!("\nfinal grid (C = cooperate, D = defect):");
                    eprint!("{}", pop.render());
                }
            }
            Event::Distributed(out, ranks, elapsed) => {
                let (stats, features) = (&out.outcome.stats, &out.outcome.features);
                let cooperators = features.iter().filter(|f| f.iter().all(|&p| p == 1.0)).count();
                println!(
                    "spatial run on {ranks} ranks: {} generations in {elapsed:.2}s",
                    stats.generations
                );
                println!(
                    "cooperators {cooperators}/{} | adoptions {} | games {} | messages {}",
                    out.outcome.grid.len(),
                    stats.adoptions,
                    stats.games_played,
                    out.outcome.messages_sent
                );
                digest_line(out.digest);
            }
        }),
    })
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
fn fixate_matrix(args: &Args) -> Result<ExitCode, String> {
    let spec = build_fixation_spec(args)?;
    args.reject_unread("fixate --matrix")?;
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
    digest_line(state_digest(&matrix.probabilities, &matrix.mean_times));
    Ok(ExitCode::SUCCESS)
}

/// `fixate`: the fixation-probability workload (docs/FIXATION.md). Seeds
/// one mutant into a resident population and runs independent replicates
/// to absorption, on the shared-memory [`FixationBatch`] or sharded across
/// compute ranks. Nothing is sampled on the way, so the batch may run at
/// once ([`Family::run_to_end`]).
fn fixate(args: &Args, _distributed: bool) -> Result<Front<'_, FixationBatch>, String> {
    let summary = |out: &FixationOutcome, backend: &str, elapsed: f64| {
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
        digest_line(out.digest());
    };
    Ok(Front {
        spec: build_fixation_spec(args)?,
        records: args.value("--records"),
        stepwise: false,
        progress: |cp| format!("{}/{} replicates", cp.completed.len(), cp.spec.replicates),
        report: Box::new(move |event| match event {
            Event::Started(_) | Event::Sampled(..) => {}
            Event::Finished(batch, elapsed) => summary(&batch.outcome(), "shared memory", elapsed),
            Event::Distributed(out, ranks, elapsed) => {
                summary(&out.outcome.outcome, &format!("{ranks} ranks"), elapsed);
                eprintln!("messages {}", out.outcome.messages_sent);
            }
        }),
    })
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
    let requests = args.value("--requests");
    args.reject_unread("serve")?;
    let text = match requests {
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
                evogame::obs::counters().add(evogame::obs::Counter::JobsRejected, 1);
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
    let Some(code) = args.first() else {
        return Err("usage: evogame-cli classify <m<n>:...> (see ipd::codec)".into());
    };
    args.reject_unread("classify")?;
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
               --dedup              play each distinct strategy pair once,
                                    memoised across generations
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

/// Route a subcommand. The engine subcommands differ only in the family
/// they drive and in how they come by a rank count.
fn dispatch(command: &str, args: &Args) -> Result<ExitCode, String> {
    let done = |()| ExitCode::SUCCESS;
    match command {
        "run" if args.flag("--ranks") => Err(
            "`run` is the shared-memory engine and takes no --ranks; `distributed --ranks N` \
             runs the same trajectory on the virtual cluster"
                .into(),
        ),
        "run" => engine_command(command, args, None, well_mixed),
        "distributed" => {
            let ranks = args.parse("--ranks", 4usize)?;
            if ranks < 2 {
                return Err("--ranks must be ≥ 2 (Nature Agent + compute)".into());
            }
            engine_command(command, args, Some(ranks), well_mixed)
        }
        "spatial" => engine_command(command, args, args.optional("--ranks")?, spatial),
        "fixate" if args.flag("--matrix") => fixate_matrix(args),
        "fixate" => engine_command(command, args, args.optional("--ranks")?, fixate),
        "tournament" => cmd_tournament(args).map(done),
        "predict" => cmd_predict(args).map(done),
        "serve" => cmd_serve(args),
        "classify" => cmd_classify(args).map(done),
        "-h" | "--help" | "help" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match dispatch(command, &Args::new(&raw[1..])) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
