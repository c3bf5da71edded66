//! Every call the traced pass makes into an engine crate. This is the only
//! file of the ledger that names `ipd`, `evo-core`, `cluster`, `svc` or
//! `obs` items; README.md lists the surface pinned here, so an engine
//! refactor knows what a later benchmark change must re-pin.
//!
//! Three kinds of measurement, all under spans of the caller's [`Tracer`]:
//!
//! - `replay`: the workload's own configuration, driven in-process the way
//!   `evogame-cli` drives it, ending on the digest the CLI printed. Its
//!   duration is what `ledger.reconcile_frac` sets against the child's wall
//!   time.
//! - `variant.*`: the same configuration with one thing changed (cache off,
//!   one rank fewer, obs timing on, no spans), for the ratios the issue's
//!   open questions need.
//! - `probe.*`: fixed-size micro-measurements of one public function each.
//!   They do not depend on the workload and run in every traced pass.

use cluster::collective::Collective;
use cluster::comm::{Comm, VirtualCluster};
use cluster::dist::fixation::{run_fixation_distributed, FixationDistConfig};
use cluster::dist::graph::{run_spatial_distributed, SpatialDistConfig};
use cluster::dist::{run_distributed, DistConfig};
use cluster::perf::{MachineProfile, PerfModel, Workload as PerfWorkload};
use evo_core::engine::{self, FitnessProvider, LocalProvider};
use evo_core::fitness::{ExecMode, FitnessPolicy, GameKernel};
use evo_core::fixation::{FixationBatch, FixationSpec};
use evo_core::graph::GraphScope;
use evo_core::nature::NatureAgent;
use evo_core::params::{Params, UpdateRule};
use evo_core::paycache::{PayoffCache, PayoffKind};
use evo_core::population::Population;
use evo_core::record::{state_digest, GenerationRecord, RecordWriter, RunStats};
use evo_core::rngstream::{stream, Domain};
use evo_core::spatial::{
    InitPattern, LatticeProvider, SpatialParams, SpatialPopulation, SpatialUpdate,
};
use ipd::game::{play, play_deterministic, play_deterministic_cycle, GameConfig};
use ipd::payoff::PayoffMatrix;
use ipd::state::StateSpace;
use ipd::strategy::{PureStrategy, Strategy};
use ledger::span::Tracer;
use ledger::spec::{
    fnv1a, nproc, serve_jobs, Kind, ServeSpec, Workload, FIXATE_SSETS, SERVE_QUEUE_DEPTH,
    SERVE_RANKS, SERVE_WORKERS,
};
use ledger::stats::percentile_u64;
use std::collections::BTreeSet;
use std::fs::File;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use svc::{JobQueue, JobRequest, JobStatus, Server, ServerConfig, Spool};

/// What one traced pass produced.
pub struct Outcome {
    /// The replay's final-state digest, formatted as the CLI prints it.
    pub digest: String,
    pub metrics: Vec<(&'static str, f64)>,
    /// Output checks that failed inside the replay.
    pub failures: Vec<String>,
}

type Metrics = Vec<(&'static str, f64)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Cache and game counters since `before`, as the `evo.fitness.*` and
/// `evo.paycache.*` counts. `scheduled` is the engine's own game count
/// (`RunStats::games_played`): what the schedule asked for, as opposed to
/// the games the kernels actually replayed.
fn counter_metrics(m: &mut Metrics, before: &obs::CounterSnapshot, scheduled: u64) {
    let d = obs::counters().snapshot().delta_since(before);
    let (hits, misses) = (d.payoff_cache_hits as f64, d.payoff_cache_misses as f64);
    m.push(("evo.fitness.games_scheduled", scheduled as f64));
    m.push(("evo.fitness.games_replayed", d.games_played as f64));
    m.push((
        "evo.fitness.replay_ratio",
        ratio(d.games_played as f64, scheduled as f64),
    ));
    m.push(("evo.paycache.hits", hits));
    m.push(("evo.paycache.misses", misses));
    m.push(("evo.paycache.hit_ratio", ratio(hits, hits + misses)));
}

/// Trace `w` under the derived seed `seed`.
pub fn trace(
    w: &Workload,
    seed: u64,
    scale: u64,
    scratch: &Path,
    t: &mut Tracer,
) -> Result<Outcome, String> {
    let mut m = Metrics::new();
    let mut failures = Vec::new();
    let digest = match &w.kind {
        Kind::Run {
            ssets,
            generations,
            dedup,
        } => replay_run(t, &mut m, *ssets, *generations, *dedup, seed, scratch)?,
        Kind::Distributed {
            ranks,
            ssets,
            generations,
            every_generation,
        } => replay_distributed(
            t,
            &mut m,
            *ranks,
            *ssets,
            *generations,
            *every_generation,
            seed,
        )?,
        Kind::Spatial { side, generations } => {
            replay_spatial(t, &mut m, *side, *generations, seed, scratch)?
        }
        Kind::Fixate { replicates } => replay_fixate(t, &mut m, *replicates, seed, scratch)?,
        Kind::Serve(spec) => replay_serve(t, &mut m, &mut failures, spec, seed, scratch)?,
    };
    probes(t, &mut m, scale.max(1), scratch)?;
    Ok(Outcome {
        digest,
        metrics: m,
        failures,
    })
}

// ------------------------------------------------------ wm_naive / wm_cached

/// The parameters `evogame-cli run|distributed` builds from the ledger's
/// flags: everything else is the CLI's (and `Params`') default.
fn well_mixed_params(ssets: u64, generations: u64, seed: u64) -> Params {
    Params {
        mem_steps: 1,
        num_ssets: ssets as usize,
        generations,
        seed,
        ..Params::default()
    }
}

fn distinct(assignments: &[u32]) -> usize {
    assignments.iter().collect::<BTreeSet<_>>().len()
}

/// A bare `step` loop with the CLI's record writer and nothing else — the
/// untraced reference for `ledger.trace_overhead_frac`. Nanoseconds.
fn untraced_loop(
    generations: u64,
    path: &Path,
    mut step: impl FnMut() -> GenerationRecord,
) -> Result<u64, String> {
    let mut writer = RecordWriter::new(File::create(path).map_err(err("record file"))?);
    let start = Instant::now();
    for _ in 0..generations {
        writer.write_generation(&step()).map_err(err("record"))?;
    }
    let ns = start.elapsed().as_nanos() as u64;
    writer.finish().map_err(err("record flush"))?;
    Ok(ns)
}

fn untraced_run(params: &Params, dedup: bool, path: &Path) -> Result<u64, String> {
    let mut pop = Population::new(params.clone()).map_err(err("params"))?;
    pop.dedup = dedup;
    untraced_loop(params.generations, path, || pop.step())
}

fn replay_run(
    t: &mut Tracer,
    m: &mut Metrics,
    ssets: u64,
    generations: u64,
    dedup: bool,
    seed: u64,
    scratch: &Path,
) -> Result<String, String> {
    let params = well_mixed_params(ssets, generations, seed);
    let records = scratch.join("records.jsonl");
    let before = obs::counters().snapshot();

    // The ledger's own generation loop: the three engine phases and the
    // record layer called one by one, as `Population::step` and `cmd_run`
    // call them, so that each gets a span.
    t.enter("replay");
    t.enter("init");
    let pop = Population::new(params.clone()).map_err(err("params"))?;
    let space = *pop.space();
    let mut pool = pop.pool().clone();
    let mut assignments = pop.assignments().to_vec();
    let nature = NatureAgent::from_params(&params);
    let cache = PayoffCache::new(params.game);
    let mut stats = RunStats::default();
    let mut writer = RecordWriter::new(File::create(&records).map_err(err("record file"))?);
    t.exit();
    t.enter("run");
    for g in 0..generations {
        t.enter("evo.engine.generation");
        t.enter("evo.engine.plan");
        let plan = engine::plan(
            &nature,
            assignments.len() as u32,
            params.rule,
            FitnessPolicy::EveryGeneration,
            g,
        );
        t.exit();
        t.enter("evo.engine.provide");
        let provided = LocalProvider {
            space: &space,
            assignments: &assignments,
            pool: &pool,
            game: &params.game,
            seed: params.seed,
            exec_mode: ExecMode::Rayon,
            dedup,
            kernel: GameKernel::Naive,
            expected_fitness: false,
            cache: Some(&cache),
        }
        .provide(&plan);
        t.exit();
        t.enter("evo.engine.apply");
        let delta = engine::apply(
            &nature,
            &space,
            &plan,
            &provided,
            &mut assignments,
            &mut pool,
            &mut stats,
        );
        t.exit();
        t.enter("evo.engine.record");
        let (mean, max) = engine::fitness_summary(&plan, &provided.view);
        let rec = delta.into_record(g, mean, max, distinct(&assignments));
        writer.write_generation(&rec).map_err(err("record"))?;
        t.exit();
        t.exit();
    }
    t.exit();
    t.enter("finish");
    let features: Vec<Vec<f64>> = assignments
        .iter()
        .map(|&id| pool.get(id).feature_vector())
        .collect();
    let digest = state_digest(&assignments, &features);
    let lines = writer.lines();
    writer.finish().map_err(err("record flush"))?;
    t.exit();
    t.exit();
    if lines != generations {
        return Err(format!(
            "replay wrote {lines} records for {generations} generations"
        ));
    }

    counter_metrics(m, &before, stats.games_played);
    m.push(("evo.paycache.entries", cache.len() as f64));
    for (metric, span) in [
        ("evo.engine.plan_ns", "evo.engine.plan"),
        ("evo.engine.provide_ns", "evo.engine.provide"),
        ("evo.engine.apply_ns", "evo.engine.apply"),
        ("evo.engine.record_ns", "evo.engine.record"),
    ] {
        m.push((metric, t.mean_ns(span)));
    }
    let per_gen = t.durations("evo.engine.generation");
    m.push((
        "evo.engine.gen_ns_p50",
        percentile_u64(&per_gen, 50.0) as f64,
    ));
    m.push((
        "evo.engine.gen_ns_p99",
        percentile_u64(&per_gen, 99.0) as f64,
    ));

    let traced_ns = t.total_ns("run");
    let plain_ns = t.span("variant.untraced", |_| {
        untraced_run(&params, dedup, &records)
    })?;
    m.push((
        "ledger.trace_overhead_frac",
        ratio(traced_ns as f64 - plain_ns as f64, plain_ns as f64),
    ));
    if dedup {
        // Three obs spans per generation are disabled in every measured run;
        // this is what switching them on (`--manifest-out`) would cost.
        obs::set_enabled(true);
        let timed = t.span("variant.obs_timing_on", |_| {
            untraced_run(&params, dedup, &records)
        });
        obs::set_enabled(false);
        m.push((
            "obs.timing_on_overhead_frac",
            ratio(timed? as f64 - plain_ns as f64, plain_ns as f64),
        ));
    }
    Ok(format!("{digest:016x}"))
}

// -------------------------------------------- dist_everygen / dist_ondemand

fn replay_distributed(
    t: &mut Tracer,
    m: &mut Metrics,
    ranks: u64,
    ssets: u64,
    generations: u64,
    every_generation: bool,
    seed: u64,
) -> Result<String, String> {
    let params = well_mixed_params(ssets, generations, seed);
    let policy = if every_generation {
        FitnessPolicy::EveryGeneration
    } else {
        FitnessPolicy::OnDemand
    };
    let config = |ranks: u64| DistConfig::new(params.clone(), ranks as usize, policy);
    let gens = generations as f64;
    let before = obs::counters().snapshot();

    t.enter("replay");
    let cfg = t.span("init", |_| config(ranks));
    let out = t
        .span("cluster.dist.run", |_| run_distributed(&cfg))
        .map_err(err("run_distributed"))?;
    let digest = t.span("finish", |_| state_digest(&out.assignments, &out.features));
    t.exit();

    let delta = obs::counters().snapshot().delta_since(&before);
    counter_metrics(m, &before, out.stats.games_played);
    let run_ns = t.total_ns("cluster.dist.run") as f64;
    m.push(("cluster.dist.ns_per_gen", run_ns / gens));
    m.push(("cluster.dist.msgs_per_gen", out.messages_sent as f64 / gens));
    m.push(("cluster.dist.bytes_per_gen", delta.comm_bytes as f64 / gens));

    if every_generation {
        // Strong scaling on the paper's headline configuration: the same
        // population on one compute rank fewer. 1.0 would be ideal.
        let fewer = config(ranks - 1);
        t.span("variant.ranks_minus_one", |_| run_distributed(&fewer))
            .map_err(err("run_distributed"))?;
        let compute = (ranks - 1) as f64;
        m.push((
            "cluster.dist.strong_eff",
            ratio(
                t.total_ns("variant.ranks_minus_one") as f64 * (compute - 1.0),
                compute * run_ns,
            ),
        ));
        // Without the cache every scheduled game is replayed, which at this
        // population size is an order of magnitude slower: a tenth of the
        // generations is enough for a per-generation figure.
        let short_gens = (generations / 10).max(5);
        let mut uncached = DistConfig::new(
            well_mixed_params(ssets, short_gens, seed),
            ranks as usize,
            policy,
        );
        uncached.disable_payoff_cache = true;
        t.span("variant.cache_off", |_| run_distributed(&uncached))
            .map_err(err("run_distributed"))?;
        let uncached_ns_per_gen = t.total_ns("variant.cache_off") as f64 / short_gens as f64;
        m.push(("cluster.dist.cache_off_ns_per_gen", uncached_ns_per_gen));
        // LogGP prediction from this machine's measured kernel cost (the
        // network constants stay Blue Gene/P's), against the uncached run:
        // the model knows nothing of the payoff cache.
        let predicted_s = t.span("variant.perf_model", |_| {
            PerfModel::new(MachineProfile::measured_local(params.game.rounds, false)).predict(
                &PerfWorkload {
                    num_ssets: ssets,
                    mem_steps: params.mem_steps,
                    generations: short_gens,
                    pc_rate: params.pc_rate,
                    mutation_rate: params.mutation_rate,
                    policy,
                },
                ranks - 1,
            )
        });
        m.push((
            "cluster.perf.pred_ratio",
            ratio(predicted_s * 1e9, uncached_ns_per_gen * short_gens as f64),
        ));
    }
    Ok(format!("{digest:016x}"))
}

// ------------------------------------------------------------------ spatial

/// `evogame-cli spatial`'s parameters for the ledger's flags.
fn lattice_params(side: u64, generations: u64, seed: u64) -> SpatialParams {
    let mut p = SpatialParams {
        width: side as usize,
        height: side as usize,
        mem_steps: 0,
        generations,
        seed,
        ..SpatialParams::default()
    };
    p.game.rounds = 1;
    p.game.noise = 0.0;
    p.game.payoff = PayoffMatrix::from_rstp(1.0, 0.0, 1.85, 0.0);
    p
}

fn replay_spatial(
    t: &mut Tracer,
    m: &mut Metrics,
    side: u64,
    generations: u64,
    seed: u64,
    scratch: &Path,
) -> Result<String, String> {
    let params = lattice_params(side, generations, seed);
    let init = InitPattern::RandomDefectors(0.5);
    let records = scratch.join("records.jsonl");
    let cells = (side * side) as f64;
    let before = obs::counters().snapshot();

    t.enter("replay");
    t.enter("init");
    let mut pop = SpatialPopulation::new(params.clone(), init.clone());
    let mut writer = RecordWriter::new(File::create(&records).map_err(err("record file"))?);
    t.exit();
    t.enter("run");
    for _ in 0..generations {
        let rec = t.span("evo.spatial.step", |_| pop.step());
        t.enter("evo.engine.record");
        writer.write_generation(&rec).map_err(err("record"))?;
        t.exit();
    }
    t.exit();
    t.enter("finish");
    let snap = pop.snapshot();
    let digest = state_digest(&snap.assignments, &snap.features);
    writer.finish().map_err(err("record flush"))?;
    t.exit();
    t.exit();
    counter_metrics(m, &before, pop.stats().games_played);
    m.push(("evo.engine.record_ns", t.mean_ns("evo.engine.record")));

    // The provide phase on its own, cache on and cache off, on a second
    // population walking the same trajectory. `step` builds its provider
    // privately, so the ledger builds an identical one over the public
    // tables and times that.
    let probe_gens = generations.min(12);
    let mut walker = SpatialPopulation::new(params.clone(), init.clone());
    let cache = PayoffCache::new(params.game);
    let space = StateSpace::new(params.mem_steps).map_err(err("state space"))?;
    t.enter("variant.provide");
    for _ in 0..probe_gens {
        let lattice = *walker.lattice();
        let plan = engine::graph_plan(
            GraphScope::of(&lattice, params.include_self),
            walker.generation(),
        );
        for (span, cache) in [
            ("evo.spatial.provide", Some(&cache)),
            ("evo.spatial.provide_cache_off", None),
        ] {
            let mut provider = LatticeProvider {
                space: &space,
                view: &lattice,
                grid: walker.grid(),
                pool: walker.pool(),
                game: &params.game,
                seed: params.seed,
                kernel: GameKernel::Naive,
                cache,
                range: 0..walker.grid().len(),
            };
            black_box(t.span(span, |_| provider.provide(&plan)));
        }
        walker.step();
    }
    t.exit();
    m.push(("evo.paycache.entries", cache.len() as f64));
    let provide = t.mean_ns("evo.spatial.provide");
    m.push(("evo.spatial.provide_ns_per_cell", provide / cells));
    m.push((
        "evo.spatial.update_ns_per_cell",
        (t.mean_ns("evo.spatial.step") - provide) / cells,
    ));
    m.push((
        "evo.spatial.cache_off_ns_per_cell",
        t.mean_ns("evo.spatial.provide_cache_off") / cells,
    ));

    // Iterated games on the same lattice: memory-1, 50 rounds, Fermi update.
    let mut iterated = lattice_params(side, probe_gens, seed);
    iterated.mem_steps = 1;
    iterated.game.rounds = 50;
    iterated.update = SpatialUpdate::Fermi { beta: 1.0 };
    let mut iter_pop = SpatialPopulation::new(iterated, init.clone());
    t.enter("variant.iterated");
    for _ in 0..probe_gens {
        t.span("evo.spatial.step_iterated", |_| iter_pop.step());
    }
    t.exit();
    m.push((
        "evo.spatial.iterated_ns_per_cell",
        t.mean_ns("evo.spatial.step_iterated") / cells,
    ));

    let traced_ns = t.total_ns("run");
    let mut plain = SpatialPopulation::new(params.clone(), init);
    let plain_ns = t.span("variant.untraced", |_| {
        untraced_loop(generations, &records, || plain.step())
    })?;
    m.push((
        "ledger.trace_overhead_frac",
        ratio(traced_ns as f64 - plain_ns as f64, plain_ns as f64),
    ));
    Ok(format!("{digest:016x}"))
}

// ------------------------------------------------------------------- fixate

/// `evogame-cli fixate`'s default spec: ALLD invading ALLC under Moran.
fn fixation_spec(replicates: u64, seed: u64) -> Result<FixationSpec, String> {
    let params = Params {
        mem_steps: 1,
        num_ssets: FIXATE_SSETS as usize,
        generations: 10_000,
        seed,
        pc_rate: 1.0,
        mutation_rate: 0.0,
        rule: UpdateRule::Moran,
        ..Params::default()
    };
    let space = params.validate().map_err(err("params"))?;
    Ok(FixationSpec {
        params,
        resident: Strategy::Pure(ipd::classic::all_c(&space)),
        mutant: Strategy::Pure(ipd::classic::all_d(&space)),
        replicates: replicates as u32,
    })
}

fn replay_fixate(
    t: &mut Tracer,
    m: &mut Metrics,
    replicates: u64,
    seed: u64,
    scratch: &Path,
) -> Result<String, String> {
    let spec = fixation_spec(replicates, seed)?;
    let records = scratch.join("records.jsonl");
    let before = obs::counters().snapshot();

    t.enter("replay");
    t.enter("init");
    let mut batch = FixationBatch::new(spec.clone()).map_err(err("fixation spec"))?;
    let mut writer = RecordWriter::new(File::create(&records).map_err(err("record file"))?);
    t.exit();
    let outcome = t.span("evo.fixation.batch_run", |_| batch.run());
    t.enter("evo.engine.record");
    for rec in outcome.records() {
        writer.write_generation(&rec).map_err(err("record"))?;
    }
    writer.finish().map_err(err("record flush"))?;
    t.exit();
    let digest = t.span("finish", |_| outcome.digest());
    t.exit();

    let total_gens: u64 = outcome.results.iter().map(|r| r.generations).sum();
    // Each generation of a replicate schedules the full 16x16 round.
    counter_metrics(m, &before, total_gens * FIXATE_SSETS * FIXATE_SSETS);
    m.push((
        "evo.fixation.gens_per_replicate",
        ratio(total_gens as f64, replicates as f64),
    ));
    m.push((
        "evo.engine.record_ns",
        ratio(t.total_ns("evo.engine.record") as f64, replicates as f64),
    ));

    // Replicates one at a time, so each gets a span: the batch's rayon
    // fan-out hides per-replicate times. Then the same replicates with no
    // shared cache, and once more with no spans.
    let sample = replicates.min(240) as u32;
    let probe = FixationBatch::new(spec.clone()).map_err(err("fixation spec"))?;
    let mut sample_gens = 0u64;
    t.enter("variant.replicates");
    for r in 0..sample {
        sample_gens += t
            .span("evo.fixation.replicate", |_| probe.run_replicate(r))
            .generations;
    }
    t.exit();
    t.enter("variant.cache_off");
    for r in 0..sample {
        black_box(t.span("evo.fixation.replicate_cache_off", |_| {
            spec.run_replicate(r, None)
        }));
    }
    t.exit();
    let per_replicate = t.durations("evo.fixation.replicate");
    m.push((
        "evo.fixation.replicate_ns_p50",
        percentile_u64(&per_replicate, 50.0) as f64,
    ));
    m.push((
        "evo.fixation.replicate_ns_p99",
        percentile_u64(&per_replicate, 99.0) as f64,
    ));
    let traced_ns = t.total_ns("evo.fixation.replicate") as f64;
    m.push((
        "evo.fixation.ns_per_gen",
        ratio(traced_ns, sample_gens as f64),
    ));
    m.push((
        "evo.fixation.cache_off_replicate_ns",
        t.mean_ns("evo.fixation.replicate_cache_off"),
    ));
    let plain = FixationBatch::new(spec).map_err(err("fixation spec"))?;
    let plain_ns = t.span("variant.untraced", |_| {
        let start = Instant::now();
        for r in 0..sample {
            black_box(plain.run_replicate(r));
        }
        start.elapsed().as_nanos() as f64
    });
    m.push((
        "ledger.trace_overhead_frac",
        ratio(traced_ns - plain_ns, plain_ns),
    ));
    Ok(format!("{digest:016x}"))
}

// -------------------------------------------------------------------- serve

fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(meta) if meta.is_dir() => {
                    let (f, b) = dir_usage(&entry.path());
                    files += f;
                    bytes += b;
                }
                Ok(meta) => {
                    files += 1;
                    bytes += meta.len();
                }
                Err(_) => {}
            }
        }
    }
    (files, bytes)
}

fn replay_serve(
    t: &mut Tracer,
    m: &mut Metrics,
    failures: &mut Vec<String>,
    spec: &ServeSpec,
    seed: u64,
    scratch: &Path,
) -> Result<String, String> {
    let jobs = serve_jobs(spec, seed);
    let spool_dir = scratch.join("spool");
    let _ = std::fs::remove_dir_all(&spool_dir);

    t.enter("replay");
    t.enter("init");
    let spool = Spool::new(&spool_dir).map_err(err("spool"))?;
    let server = Server::with_spool(
        ServerConfig {
            workers: SERVE_WORKERS as usize,
            queue_depth: SERVE_QUEUE_DEPTH as usize,
        },
        Some(spool),
    );
    t.exit();
    let requests: Vec<JobRequest> = t
        .span("svc.request.parse_all", |_| {
            jobs.iter()
                .map(|j| serde_json::from_str::<JobRequest>(&j.line))
                .collect::<Result<_, _>>()
        })
        .map_err(err("generated request line"))?;
    t.enter("svc.server.submit_all");
    for request in requests.iter().cloned() {
        let id = request.id.clone();
        if let Err(e) = server.submit(request) {
            failures.push(format!("job {id} rejected: {e}"));
        }
    }
    t.exit();
    t.span("svc.server.wait_idle", |_| server.wait_idle());
    t.enter("finish");
    // The same lines `evogame-cli serve` prints, so the two hash alike.
    let mut lines = String::new();
    let mut retries = 0u64;
    for job in &jobs {
        match server.status(&job.id) {
            Some(JobStatus::Completed {
                state_digest,
                retries: r,
            }) => {
                lines.push_str(&format!(
                    "job {}: completed | state digest {state_digest} | retries {r}\n",
                    job.id
                ));
                retries += u64::from(r);
            }
            other => {
                lines.push_str(&format!("job {}: not completed\n", job.id));
                failures.push(format!("job {} ended as {other:?}", job.id));
            }
        }
    }
    server.shutdown();
    t.exit();
    t.exit();

    let (files, bytes) = dir_usage(&spool_dir);
    let n = jobs.len() as f64;
    m.push(("svc.server.retries", retries as f64));
    m.push(("svc.spool.files_per_job", files as f64 / n));
    m.push(("svc.spool.bytes_per_job", bytes as f64 / n));

    // The two runners only `serve` reaches, on the batch's first lattice and
    // fixation specs, as single spans plus counter deltas.
    let first = |prefix: &str| requests.iter().find(|r| r.id.starts_with(prefix));
    if let Some(spatial) = first("sp-dist").and_then(|r| r.spatial.clone()) {
        let gens = spatial.params.generations as f64;
        let cfg = SpatialDistConfig::new(spatial.params, spatial.init, SERVE_RANKS as usize);
        let before = obs::counters().snapshot();
        let out = t
            .span("cluster.graph.run", |_| run_spatial_distributed(&cfg))
            .map_err(err("run_spatial_distributed"))?;
        let delta = obs::counters().snapshot().delta_since(&before);
        m.push((
            "cluster.graph.ns_per_gen",
            t.total_ns("cluster.graph.run") as f64 / gens,
        ));
        m.push((
            "cluster.graph.msgs_per_gen",
            out.messages_sent as f64 / gens,
        ));
        m.push((
            "cluster.graph.bytes_per_gen",
            delta.comm_bytes as f64 / gens,
        ));
    }
    if let Some(fixation) = first("fix-dist").and_then(|r| r.fixation.clone()) {
        let reps = f64::from(fixation.replicates);
        let cfg = FixationDistConfig::new(fixation, SERVE_RANKS as usize);
        let out = t
            .span("cluster.fixation.run", |_| run_fixation_distributed(&cfg))
            .map_err(err("run_fixation_distributed"))?;
        m.push((
            "cluster.fixation.ns_per_replicate",
            t.total_ns("cluster.fixation.run") as f64 / reps,
        ));
        m.push((
            "cluster.fixation.msgs_per_replicate",
            out.messages_sent as f64 / reps,
        ));
    }
    Ok(format!("{:016x}", fnv1a(&lines)))
}

// ------------------------------------------------------------------- probes

/// Time `iters` calls of `f` under one span; nanoseconds per call.
fn per_call(t: &mut Tracer, span: &'static str, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    t.enter(span);
    for i in 0..iters {
        f(i);
    }
    t.exit();
    t.total_ns(span) as f64 / iters as f64
}

/// Like [`per_call`], but on every core at once: nanoseconds per call as
/// one thread sees them while the others hammer the same shared state.
fn per_call_contended(
    t: &mut Tracer,
    span: &'static str,
    iters: u64,
    f: impl Fn(u64) + Sync,
) -> f64 {
    let threads = nproc();
    t.enter(span);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| (0..iters).for_each(&f));
        }
    });
    t.exit();
    t.total_ns(span) as f64 / iters as f64
}

fn probes(t: &mut Tracer, m: &mut Metrics, scale: u64, scratch: &Path) -> Result<(), String> {
    let n = |full: u64| (full / scale).max(8);
    t.enter("probes");
    probe_ipd(t, m, &n);
    probe_evo(t, m, &n)?;
    probe_cluster(t, m, &n)?;
    probe_svc(t, m, &n, scratch)?;
    probe_obs(t, m, &n);
    t.exit();
    Ok(())
}

fn probe_ipd(t: &mut Tracer, m: &mut Metrics, n: &impl Fn(u64) -> u64) {
    let space = StateSpace::new(1).expect("memory-1 state space");
    let cfg = GameConfig::default();
    let roster: Vec<PureStrategy> = (0..16)
        .map(|k| PureStrategy::from_memory_one_index(space, k))
        .collect();
    let pick = |i: u64| {
        (
            &roster[(i % 16) as usize],
            &roster[((i / 16 + i) % 16) as usize],
        )
    };
    m.push((
        "ipd.game.det_ns",
        per_call(t, "probe.ipd.game.det", n(4_000), |i| {
            let (a, b) = pick(i);
            black_box(play_deterministic(&space, a, b, &cfg));
        }),
    ));
    m.push((
        "ipd.game.cycle_ns",
        per_call(t, "probe.ipd.game.cycle", n(4_000), |i| {
            let (a, b) = pick(i);
            black_box(play_deterministic_cycle(&space, a, b, &cfg));
        }),
    ));
    // The `serve` batch's stochastic class: mixed strategies, noise 0.01.
    let noisy = GameConfig { noise: 0.01, ..cfg };
    let mut rng = stream(1, Domain::Analysis, 0, 0);
    let sa = Strategy::random(space, true, &mut rng);
    let sb = Strategy::random(space, true, &mut rng);
    m.push((
        "ipd.game.stoch_ns",
        per_call(t, "probe.ipd.game.stoch", n(1_000), |_| {
            black_box(play(&space, &sa, &sb, &noisy, &mut rng));
        }),
    ));
    let pairs: Vec<(&PureStrategy, &PureStrategy)> = (0..256).map(pick).collect();
    let rounds = n(32);
    let batch_ns = per_call(t, "probe.ipd.batch", rounds, |_| {
        black_box(ipd::batch::play_deterministic_batch(&space, &pairs, &cfg));
    });
    m.push(("ipd.batch.ns_per_game", batch_ns / pairs.len() as f64));
    m.push((
        "ipd.strategy.random_ns",
        per_call(t, "probe.ipd.strategy.random", n(20_000), |_| {
            black_box(Strategy::random(space, false, &mut rng));
        }),
    ));
}

fn probe_evo(t: &mut Tracer, m: &mut Metrics, n: &impl Fn(u64) -> u64) -> Result<(), String> {
    let game = GameConfig::default();
    // A cache the size `wm_cached` ends with: all 16x16 memory-1 pairs.
    let cache = PayoffCache::new(game);
    for a in 0..16 {
        for b in 0..16 {
            cache.insert(a, b, PayoffKind::Sampled, f64::from(a * 16 + b));
        }
    }
    let get = |i: u64| {
        black_box(cache.get((i % 16) as u32, ((i / 16) % 16) as u32, PayoffKind::Sampled));
    };
    m.push((
        "evo.paycache.get_ns",
        per_call(t, "probe.evo.paycache.get", n(400_000), get),
    ));
    m.push((
        "evo.paycache.get_ns_contended",
        per_call_contended(t, "probe.evo.paycache.get_contended", n(400_000), get),
    ));
    let fresh = PayoffCache::new(game);
    m.push((
        "evo.paycache.insert_ns",
        per_call(t, "probe.evo.paycache.insert", n(100_000), |i| {
            fresh.insert(
                (i >> 16) as u32,
                (i & 0xffff) as u32,
                PayoffKind::Sampled,
                1.0,
            );
        }),
    ));
    m.push((
        "evo.rngstream.stream_ns",
        per_call(t, "probe.evo.rngstream.stream", n(100_000), |i| {
            black_box(stream(7, Domain::GamePlay, i, 3));
        }),
    ));

    // One fixation replicate's set-up.
    let spec = fixation_spec(1, 11)?;
    m.push((
        "evo.population.new_ns",
        per_call(t, "probe.evo.population.new", n(2_000), |_| {
            black_box(
                Population::new_uniform(spec.params.clone(), spec.resident.clone())
                    .expect("valid params"),
            );
        }),
    ));

    // Record lines as `run --records` writes them, into memory.
    let mut pop = Population::new(well_mixed_params(64, 400, 5)).map_err(err("params"))?;
    pop.dedup = true;
    let records: Vec<GenerationRecord> = (0..n(400)).map(|_| pop.step()).collect();
    let mut writer = RecordWriter::new(Vec::<u8>::new());
    let line_ns = per_call(t, "probe.evo.record.write", records.len() as u64, |i| {
        writer
            .write_generation(&records[i as usize])
            .expect("in-memory sink");
    });
    let bytes = writer.finish().map_err(err("record flush"))?.len();
    m.push(("evo.record.write_ns_per_line", line_ns));
    m.push((
        "evo.record.bytes_per_line",
        bytes as f64 / records.len() as f64,
    ));

    // Checkpoint of a `wm_cached`-shaped population; restore includes the
    // cache pre-warm `Population::restore` does.
    let mut big = Population::new(well_mixed_params(512, 1_000, 9)).map_err(err("params"))?;
    big.dedup = true;
    big.run(n(200));
    let mut json = String::new();
    let serialize_ns = per_call(t, "probe.evo.checkpoint.serialize", n(40), |_| {
        json = serde_json::to_string(&big.checkpoint()).expect("checkpoint serialises");
    });
    m.push(("evo.checkpoint.bytes", json.len() as f64));
    m.push(("evo.checkpoint.serialize_ns", serialize_ns));
    m.push((
        "evo.checkpoint.restore_ns",
        per_call(t, "probe.evo.checkpoint.restore", n(20), |_| {
            let cp = serde_json::from_str(&json).expect("checkpoint parses");
            black_box(Population::restore(cp).expect("checkpoint restores"));
        }),
    ));
    Ok(())
}

/// Run `body` on rank 0 of a 3-rank virtual cluster while ranks 1 and 2 run
/// `peer`; returns rank 0's result.
fn on_cluster(
    body: impl Fn(&Comm<u64>) -> f64 + Send + Sync + 'static,
    peer: impl Fn(&Comm<u64>) + Send + Sync + 'static,
) -> f64 {
    VirtualCluster::run(SERVE_RANKS as usize, move |comm: Comm<u64>| {
        if comm.rank() == 0 {
            body(&comm)
        } else {
            peer(&comm);
            0.0
        }
    })[0]
}

fn probe_cluster(t: &mut Tracer, m: &mut Metrics, n: &impl Fn(u64) -> u64) -> Result<(), String> {
    const TAG: u32 = 1;
    let iters = n(1_500);
    let ns_per = move |start: Instant| start.elapsed().as_nanos() as f64 / iters as f64;
    t.enter("probe.cluster");
    // Ping-pong between ranks 0 and 1: one wake-up each way.
    let rtt = on_cluster(
        move |c| {
            let start = Instant::now();
            for i in 0..iters {
                c.send(1, TAG, i).expect("send");
                c.recv(Some(1), Some(TAG)).expect("recv");
            }
            ns_per(start)
        },
        move |c| {
            if c.rank() == 1 {
                for _ in 0..iters {
                    let got = c.recv(Some(0), Some(TAG)).expect("recv");
                    c.send(0, TAG, got.payload).expect("send");
                }
            }
        },
    );
    // Sends alone: the receiver drains afterwards.
    let send = on_cluster(
        move |c| {
            let start = Instant::now();
            for i in 0..iters {
                c.send(1, TAG, i).expect("send");
            }
            ns_per(start)
        },
        move |c| {
            if c.rank() == 1 {
                for _ in 0..iters {
                    c.recv(Some(0), Some(TAG)).expect("recv");
                }
            }
        },
    );
    // Collectives are entered by every rank; rank 0's clock is reported.
    let collective = |op: fn(&Collective<'_, Comm<u64>>, usize, u64)| {
        let all = move |c: &Comm<u64>| {
            let coll = Collective::new(c);
            let start = Instant::now();
            for i in 0..iters {
                op(&coll, c.rank(), i);
            }
            ns_per(start)
        };
        on_cluster(all, move |c| {
            all(c);
        })
    };
    let bcast = collective(|coll, rank, i| {
        coll.bcast(0, (rank == 0).then_some(i)).expect("bcast");
    });
    let gather = collective(|coll, _, i| {
        coll.gather(0, i).expect("gather");
    });
    let barrier = collective(|coll, _, i| coll.barrier(i).expect("barrier"));
    t.exit();
    m.push(("cluster.comm.rtt_ns", rtt));
    m.push(("cluster.comm.send_ns", send));
    m.push(("cluster.collective.bcast_ns", bcast));
    m.push(("cluster.collective.gather_ns", gather));
    m.push(("cluster.collective.barrier_ns", barrier));

    // A distributed run of zero generations: spawn, initialise, join.
    let empty = DistConfig::new(
        well_mixed_params(64, 0, 3),
        SERVE_RANKS as usize,
        FitnessPolicy::OnDemand,
    );
    let mut failed = None;
    let spawn_join = per_call(t, "probe.cluster.dist.spawn_join", n(40), |_| {
        if let Err(e) = run_distributed(&empty) {
            failed = Some(e.to_string());
        }
    });
    if let Some(e) = failed {
        return Err(format!("zero-generation distributed run: {e}"));
    }
    m.push(("cluster.dist.spawn_join_ns", spawn_join));
    Ok(())
}

fn probe_svc(
    t: &mut Tracer,
    m: &mut Metrics,
    n: &impl Fn(u64) -> u64,
    scratch: &Path,
) -> Result<(), String> {
    let one_generation = |id: String| JobRequest::new(id, well_mixed_params(16, 1, 1));
    let line = serde_json::to_string(&one_generation("probe".into())).map_err(err("request"))?;
    m.push((
        "svc.request.parse_ns",
        per_call(t, "probe.svc.request.parse", n(2_000), |_| {
            black_box(serde_json::from_str::<JobRequest>(&line).expect("request parses"));
        }),
    ));
    let mut queue = JobQueue::new(SERVE_QUEUE_DEPTH as usize);
    m.push((
        "svc.queue.admit_pop_ns",
        per_call(t, "probe.svc.queue.admit_pop", n(2_000), |i| {
            queue
                .admit(one_generation(format!("q{i}")))
                .expect("admitted");
            black_box(queue.pop());
        }),
    ));

    // Submit-to-Completed of a one-generation job, one at a time on one
    // worker: the server's fixed cost per job, without and with a spool.
    let spool_dir = scratch.join("probe-spool");
    let _ = std::fs::remove_dir_all(&spool_dir);
    let spool = Spool::new(&spool_dir).map_err(err("spool"))?;
    let config = ServerConfig {
        workers: 1,
        queue_depth: SERVE_QUEUE_DEPTH as usize,
    };
    let mut receipt = None;
    for (metric, span, server, iters) in [
        (
            "svc.server.job_overhead_ns",
            "probe.svc.server.job",
            Server::new(config),
            n(150),
        ),
        (
            "svc.server.job_overhead_spool_ns",
            "probe.svc.server.job_spool",
            Server::with_spool(config, Some(spool.clone())),
            n(60),
        ),
    ] {
        let ns = per_call(t, span, iters, |i| {
            let id = format!("j{i}");
            server.submit(one_generation(id.clone())).expect("admitted");
            black_box(server.wait(&id));
        });
        m.push((metric, ns));
        receipt = server.receipt("j0");
        server.shutdown();
    }
    let receipt = receipt.ok_or("probe job left no receipt")?;
    m.push((
        "svc.receipt.serialize_ns",
        per_call(t, "probe.svc.receipt.serialize", n(400), |_| {
            black_box(serde_json::to_string(&receipt).expect("receipt serialises"));
        }),
    ));

    let mut pop = Population::new(well_mixed_params(64, 100, 5)).map_err(err("params"))?;
    pop.dedup = true;
    let chunk: Vec<GenerationRecord> = (0..100).map(|_| pop.step()).collect();
    let appends = n(40);
    let append_ns = per_call(t, "probe.svc.spool.append", appends, |_| {
        spool
            .append_records("append-probe", &chunk)
            .expect("spool append");
    });
    m.push((
        "svc.spool.append_ns_per_record",
        append_ns / chunk.len() as f64,
    ));
    m.push((
        "svc.spool.replace_ns",
        per_call(t, "probe.svc.spool.replace", n(60), |_| {
            spool
                .write_status("append-probe", &JobStatus::Running)
                .expect("spool status");
        }),
    ));
    let _ = std::fs::remove_dir_all(&spool_dir);
    Ok(())
}

fn probe_obs(t: &mut Tracer, m: &mut Metrics, n: &impl Fn(u64) -> u64) {
    let add = |_| obs::counters().add_game(1);
    m.push((
        "obs.counter_add_ns",
        per_call(t, "probe.obs.counter_add", n(2_000_000), add),
    ));
    m.push((
        "obs.counter_add_ns_contended",
        per_call_contended(t, "probe.obs.counter_add_contended", n(2_000_000), add),
    ));
    // Not an obs call, but the same kind of per-call tax: with
    // RAYON_NUM_THREADS unset the vendored rayon asks std for the core count
    // (affinity mask, cgroup quota files) on every `collect`, i.e. at least
    // once per generation.
    m.push((
        "rayon.default_threads_lookup_ns",
        per_call(t, "probe.rayon.default_threads_lookup", n(20_000), |_| {
            black_box(std::thread::available_parallelism().map_or(1, |n| n.get()));
        }),
    ));
    m.push((
        "obs.span_off_ns",
        per_call(t, "probe.obs.span_off", n(2_000_000), |_| {
            drop(black_box(obs::span("ledger.probe")))
        }),
    ));
}
