//! Observability for the evolution engine: counters, spans, histograms,
//! and the machine-readable **run manifest**.
//!
//! The paper's evaluation (§VI) is entirely about *measured* behaviour —
//! per-generation wall time, game-kernel throughput, communication volume.
//! This crate gives the reproduction the same visibility. It sits at the
//! bottom of the dependency graph (below `ipd`, `evo-core`, and `cluster`)
//! and exposes three layers, all documented as a stable contract in
//! `docs/OBSERVABILITY.md`:
//!
//! 1. **Counters** ([`counters`]) — process-global relaxed atomics that are
//!    *always on*. The instrumented crates increment them at well-defined
//!    points: games played, rounds simulated, Fermi updates, mutations,
//!    RNG streams opened, messages/bytes through the virtual cluster.
//! 2. **Spans** ([`span`]) — named wall-clock timings through the hot
//!    paths (generation loop, fitness evaluation, collectives, the
//!    distributed engine). Gated by [`set_enabled`]: when disabled a span
//!    is a single relaxed atomic load.
//! 3. **The run manifest** ([`RunManifest`]) — a JSON document capturing
//!    params, seed, thread count, per-generation timings, and counter
//!    snapshots. The CLI (`--manifest-out`), the quickstart example, and
//!    the `bench` fig/table regenerators all emit this one format.
//!
//! # Determinism guarantee
//!
//! Nothing in this crate ever constructs, advances, or otherwise touches
//! the engine's counter-based RNG streams (`evo_core::rngstream`). Metrics
//! read wall clocks and atomics only, so enabling or disabling
//! observability **cannot change a simulation trajectory** — results stay
//! bit-identical at any thread count. `tests/observability.rs` in the
//! workspace root enforces this.
//!
//! # Examples
//!
//! Counters are always live; read them with a snapshot:
//!
//! ```
//! let before = obs::counters().snapshot();
//! obs::counters().add_game(200); // what ipd::game::play does per game
//! let after = obs::counters().snapshot();
//! assert!(after.monotone_since(&before));
//! assert!(after.games_played >= before.games_played + 1);
//! assert!(after.rounds_simulated >= before.rounds_simulated + 200);
//! ```
//!
//! Spans time a scope when observability is enabled:
//!
//! ```
//! obs::set_enabled(true);
//! {
//!     let _span = obs::span("example.work");
//!     std::hint::black_box(40 + 2);
//! }
//! let spans = obs::span_snapshots();
//! let s = spans.iter().find(|s| s.name == "example.work").unwrap();
//! assert!(s.count >= 1);
//! obs::set_enabled(false);
//! ```
//!
//! A manifest round-trips through JSON:
//!
//! ```
//! use serde::Serialize;
//! let manifest = obs::RunManifest::capture(
//!     42u64.to_value(),               // any serialisable params
//!     42,                             // seed
//!     1,                              // threads
//!     2,                              // generations
//!     0.5,                            // elapsed seconds
//!     &obs::CounterSnapshot::default(),
//!     &[1_000, 2_000],                // per-generation nanoseconds
//! );
//! let json = manifest.to_json();
//! let back = obs::RunManifest::from_json(&json).unwrap();
//! assert_eq!(manifest, back);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use serde::{Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Version of the [`RunManifest`] JSON schema. Bump on any
/// backwards-incompatible change and update `docs/OBSERVABILITY.md`.
pub const MANIFEST_SCHEMA_VERSION: u32 = 1;

// --------------------------------------------------------------- counters

/// The process-global event counters. All increments use relaxed atomics —
/// cheap enough to stay **always on**, independent of [`enabled`].
///
/// Counters only ever increase within a process (there is deliberately no
/// reset), so concurrent readers can rely on monotonicity. Attribute
/// counts to a region of interest by taking a [`Counters::snapshot`]
/// before and after and diffing with [`CounterSnapshot::delta_since`].
#[derive(Debug)]
pub struct Counters {
    games_played: AtomicU64,
    rounds_simulated: AtomicU64,
    fermi_updates: AtomicU64,
    mutations: AtomicU64,
    rng_streams: AtomicU64,
    comm_messages: AtomicU64,
    comm_bytes: AtomicU64,
    collective_ops: AtomicU64,
    perf_model_evals: AtomicU64,
    faults_injected: AtomicU64,
    comm_timeouts: AtomicU64,
    checkpoints_written: AtomicU64,
    payoff_cache_hits: AtomicU64,
    payoff_cache_misses: AtomicU64,
    markov_fastpath_evals: AtomicU64,
    jobs_accepted: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_retried: AtomicU64,
    replicates_run: AtomicU64,
    fixations: AtomicU64,
    extinctions: AtomicU64,
}

static COUNTERS: Counters = Counters {
    games_played: AtomicU64::new(0),
    rounds_simulated: AtomicU64::new(0),
    fermi_updates: AtomicU64::new(0),
    mutations: AtomicU64::new(0),
    rng_streams: AtomicU64::new(0),
    comm_messages: AtomicU64::new(0),
    comm_bytes: AtomicU64::new(0),
    collective_ops: AtomicU64::new(0),
    perf_model_evals: AtomicU64::new(0),
    faults_injected: AtomicU64::new(0),
    comm_timeouts: AtomicU64::new(0),
    checkpoints_written: AtomicU64::new(0),
    payoff_cache_hits: AtomicU64::new(0),
    payoff_cache_misses: AtomicU64::new(0),
    markov_fastpath_evals: AtomicU64::new(0),
    jobs_accepted: AtomicU64::new(0),
    jobs_rejected: AtomicU64::new(0),
    jobs_completed: AtomicU64::new(0),
    jobs_retried: AtomicU64::new(0),
    replicates_run: AtomicU64::new(0),
    fixations: AtomicU64::new(0),
    extinctions: AtomicU64::new(0),
};

/// The process-global [`Counters`] instance.
pub fn counters() -> &'static Counters {
    &COUNTERS
}

impl Counters {
    /// One iterated game finished, `rounds` rounds long. Incremented by
    /// every game kernel in `ipd::game` (sampled, deterministic, cycle,
    /// transcript); the cycle kernel counts the *logical* rounds it pays
    /// out arithmetically.
    #[inline]
    pub fn add_game(&self, rounds: u32) {
        self.add_games(1, rounds);
    }

    /// `games` iterated games finished together, each `rounds_each` rounds
    /// long — one flush for a lockstep group (`ipd::game`) or a
    /// word-parallel batch (`ipd::batch`) instead of two writes per game to
    /// the line every worker shares. Totals are exactly those of `games`
    /// calls to [`Counters::add_game`].
    #[inline]
    pub fn add_games(&self, games: u64, rounds_each: u32) {
        self.games_played.fetch_add(games, Ordering::Relaxed);
        self.rounds_simulated
            .fetch_add(games * rounds_each as u64, Ordering::Relaxed);
    }

    /// One Fermi pairwise comparison resolved
    /// (`NatureAgent::resolve_pc`).
    #[inline]
    pub fn add_fermi_update(&self) {
        self.fermi_updates.fetch_add(1, Ordering::Relaxed);
    }

    /// One mutation strategy drawn (`NatureAgent::mutation_strategy`).
    #[inline]
    pub fn add_mutation(&self) {
        self.mutations.fetch_add(1, Ordering::Relaxed);
    }

    /// One counter-based RNG stream opened (`evo_core::rngstream::stream`).
    #[inline]
    pub fn add_rng_stream(&self) {
        self.add_rng_streams(1);
    }

    /// `streams` RNG streams opened and tallied by their opener, reported
    /// in one write (a fixation replicate's streams, at its end). Totals
    /// are exactly those of `streams` calls to [`Counters::add_rng_stream`];
    /// a zero tally writes nothing.
    #[inline]
    pub fn add_rng_streams(&self, streams: u64) {
        if streams != 0 {
            self.rng_streams.fetch_add(streams, Ordering::Relaxed);
        }
    }

    /// One point-to-point message of `bytes` payload bytes sent through
    /// `cluster::comm` (collective traffic included — collectives are
    /// built from point-to-point sends).
    #[inline]
    pub fn add_comm_message(&self, bytes: u64) {
        self.comm_messages.fetch_add(1, Ordering::Relaxed);
        self.comm_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// One collective operation (bcast/reduce/gather/barrier) initiated on
    /// one rank (`cluster::collective`).
    #[inline]
    pub fn add_collective_op(&self) {
        self.collective_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// One analytic performance-model evaluation
    /// (`cluster::perf::PerfModel::breakdown`).
    #[inline]
    pub fn add_perf_model_eval(&self) {
        self.perf_model_evals.fetch_add(1, Ordering::Relaxed);
    }

    /// One scheduled fault executed by the virtual cluster's transport or
    /// engine (message drop/delay/duplicate applied, rank killed on plan).
    #[inline]
    pub fn add_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// One receive deadline expired (`cluster::comm` returned
    /// `ClusterError::Timeout`). Fault-free runs never increment this.
    #[inline]
    pub fn add_comm_timeout(&self) {
        self.comm_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// One run checkpoint serialised to stable storage (periodic
    /// `--checkpoint-every` snapshots and degraded-run final snapshots).
    #[inline]
    pub fn add_checkpoint_written(&self) {
        self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
    }

    /// A finished run of probes of the cross-generation payoff cache
    /// (`evo_core::paycache`): `hits` pairwise payoffs served without
    /// playing the game, `misses` computed and inserted. The prober tallies
    /// in plain integers and reports once per evaluation, so the shared
    /// counter lines are written once per evaluation, not once per game; a
    /// zero tally writes nothing.
    #[inline]
    pub fn add_payoff_cache_probes(&self, hits: u64, misses: u64) {
        if hits != 0 {
            self.payoff_cache_hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses != 0 {
            self.payoff_cache_misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// One pairwise payoff computed analytically by Markov forward
    /// iteration (`ipd::markov::expected_outcome`) instead of round
    /// simulation — the expected-fitness fast path.
    #[inline]
    pub fn add_markov_fastpath_eval(&self) {
        self.markov_fastpath_evals.fetch_add(1, Ordering::Relaxed);
    }

    /// One simulation job admitted by the service layer's queue
    /// (`svc::JobQueue`, docs/SERVICE.md).
    #[inline]
    pub fn add_job_accepted(&self) {
        self.jobs_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// One simulation job refused admission (queue full, duplicate id, or
    /// invalid request).
    #[inline]
    pub fn add_job_rejected(&self) {
        self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// One simulation job finished with a receipt (docs/SERVICE.md).
    #[inline]
    pub fn add_job_completed(&self) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// One degraded simulation job automatically re-enqueued from its
    /// `DegradedRun` checkpoint (docs/SERVICE.md retry semantics).
    #[inline]
    pub fn add_job_retried(&self) {
        self.jobs_retried.fetch_add(1, Ordering::Relaxed);
    }

    /// One fixation replicate run to absorption or its generation cap
    /// (`evo_core::fixation`).
    #[inline]
    pub fn add_replicate_run(&self) {
        self.replicates_run.fetch_add(1, Ordering::Relaxed);
    }

    /// One fixation replicate ended with the mutant lineage fixed.
    #[inline]
    pub fn add_fixation(&self) {
        self.fixations.fetch_add(1, Ordering::Relaxed);
    }

    /// One fixation replicate ended with the mutant lineage extinct.
    #[inline]
    pub fn add_extinction(&self) {
        self.extinctions.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of every counter (each load
    /// is individually atomic; the set is not a cross-counter transaction).
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            games_played: self.games_played.load(Ordering::Relaxed),
            rounds_simulated: self.rounds_simulated.load(Ordering::Relaxed),
            fermi_updates: self.fermi_updates.load(Ordering::Relaxed),
            mutations: self.mutations.load(Ordering::Relaxed),
            rng_streams: self.rng_streams.load(Ordering::Relaxed),
            comm_messages: self.comm_messages.load(Ordering::Relaxed),
            comm_bytes: self.comm_bytes.load(Ordering::Relaxed),
            collective_ops: self.collective_ops.load(Ordering::Relaxed),
            perf_model_evals: self.perf_model_evals.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            comm_timeouts: self.comm_timeouts.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            payoff_cache_hits: self.payoff_cache_hits.load(Ordering::Relaxed),
            payoff_cache_misses: self.payoff_cache_misses.load(Ordering::Relaxed),
            markov_fastpath_evals: self.markov_fastpath_evals.load(Ordering::Relaxed),
            jobs_accepted: self.jobs_accepted.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_retried: self.jobs_retried.load(Ordering::Relaxed),
            replicates_run: self.replicates_run.load(Ordering::Relaxed),
            fixations: self.fixations.load(Ordering::Relaxed),
            extinctions: self.extinctions.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the [`Counters`] — the `counters` field of the
/// run manifest. Field meanings and increment points are documented on the
/// corresponding [`Counters`] methods and in `docs/OBSERVABILITY.md`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Iterated games completed ([`Counters::add_game`]).
    pub games_played: u64,
    /// Game rounds simulated, summed over games.
    pub rounds_simulated: u64,
    /// Fermi pairwise comparisons resolved.
    pub fermi_updates: u64,
    /// Mutation strategies drawn.
    pub mutations: u64,
    /// Counter-based RNG streams opened.
    pub rng_streams: u64,
    /// Point-to-point messages sent through the virtual cluster.
    pub comm_messages: u64,
    /// Payload bytes moved through the virtual cluster (in-memory
    /// `size_of` of each message's payload type — a lower bound for
    /// heap-owning payloads).
    pub comm_bytes: u64,
    /// Collective operations initiated, summed over ranks.
    pub collective_ops: u64,
    /// Analytic performance-model evaluations.
    pub perf_model_evals: u64,
    /// Scheduled faults executed (message faults applied, ranks killed on
    /// plan). `#[serde(default)]`: absent in pre-fault-tolerance manifests.
    #[serde(default)]
    pub faults_injected: u64,
    /// Receive deadlines expired in the virtual cluster; always 0 in
    /// fault-free runs. `#[serde(default)]`: absent in older manifests.
    #[serde(default)]
    pub comm_timeouts: u64,
    /// Run checkpoints serialised. `#[serde(default)]`: absent in older
    /// manifests.
    #[serde(default)]
    pub checkpoints_written: u64,
    /// Pairwise payoffs served from the cross-generation payoff cache.
    /// `#[serde(default)]`: absent in pre-cache manifests.
    #[serde(default)]
    pub payoff_cache_hits: u64,
    /// Pairwise payoffs computed and inserted into the payoff cache.
    /// `#[serde(default)]`: absent in pre-cache manifests.
    #[serde(default)]
    pub payoff_cache_misses: u64,
    /// Pairwise payoffs computed analytically via Markov forward iteration
    /// (the expected-fitness fast path). `#[serde(default)]`: absent in
    /// older manifests.
    #[serde(default)]
    pub markov_fastpath_evals: u64,
    /// Simulation jobs admitted by the service layer (docs/SERVICE.md).
    /// `#[serde(default)]`: absent in pre-service manifests.
    #[serde(default)]
    pub jobs_accepted: u64,
    /// Simulation jobs refused admission (queue full, duplicate id,
    /// invalid request). `#[serde(default)]`: absent in older manifests.
    #[serde(default)]
    pub jobs_rejected: u64,
    /// Simulation jobs completed with a receipt. `#[serde(default)]`:
    /// absent in older manifests.
    #[serde(default)]
    pub jobs_completed: u64,
    /// Degraded simulation jobs automatically re-enqueued from their
    /// checkpoint. `#[serde(default)]`: absent in older manifests.
    #[serde(default)]
    pub jobs_retried: u64,
    /// Fixation replicates run to absorption or their generation cap
    /// (`evo_core::fixation`). `#[serde(default)]`: absent in older
    /// manifests.
    #[serde(default)]
    pub replicates_run: u64,
    /// Fixation replicates that ended with the mutant lineage fixed.
    /// `#[serde(default)]`: absent in older manifests.
    #[serde(default)]
    pub fixations: u64,
    /// Fixation replicates that ended with the mutant lineage extinct.
    /// `#[serde(default)]`: absent in older manifests.
    #[serde(default)]
    pub extinctions: u64,
}

impl CounterSnapshot {
    /// `true` if every counter in `self` is ≥ its value in `earlier` —
    /// the monotonicity the process-global counters guarantee.
    pub fn monotone_since(&self, earlier: &CounterSnapshot) -> bool {
        self.games_played >= earlier.games_played
            && self.rounds_simulated >= earlier.rounds_simulated
            && self.fermi_updates >= earlier.fermi_updates
            && self.mutations >= earlier.mutations
            && self.rng_streams >= earlier.rng_streams
            && self.comm_messages >= earlier.comm_messages
            && self.comm_bytes >= earlier.comm_bytes
            && self.collective_ops >= earlier.collective_ops
            && self.perf_model_evals >= earlier.perf_model_evals
            && self.faults_injected >= earlier.faults_injected
            && self.comm_timeouts >= earlier.comm_timeouts
            && self.checkpoints_written >= earlier.checkpoints_written
            && self.payoff_cache_hits >= earlier.payoff_cache_hits
            && self.payoff_cache_misses >= earlier.payoff_cache_misses
            && self.markov_fastpath_evals >= earlier.markov_fastpath_evals
            && self.jobs_accepted >= earlier.jobs_accepted
            && self.jobs_rejected >= earlier.jobs_rejected
            && self.jobs_completed >= earlier.jobs_completed
            && self.jobs_retried >= earlier.jobs_retried
            && self.replicates_run >= earlier.replicates_run
            && self.fixations >= earlier.fixations
            && self.extinctions >= earlier.extinctions
    }

    /// Per-counter difference `self − baseline` (saturating), attributing
    /// activity to the window between two snapshots. In a process with
    /// concurrent instrumented work the delta includes that work too;
    /// single-run tools (the CLI, the regenerators) run one engine at a
    /// time so the delta is exactly the run's activity.
    pub fn delta_since(&self, baseline: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            games_played: self.games_played.saturating_sub(baseline.games_played),
            rounds_simulated: self
                .rounds_simulated
                .saturating_sub(baseline.rounds_simulated),
            fermi_updates: self.fermi_updates.saturating_sub(baseline.fermi_updates),
            mutations: self.mutations.saturating_sub(baseline.mutations),
            rng_streams: self.rng_streams.saturating_sub(baseline.rng_streams),
            comm_messages: self.comm_messages.saturating_sub(baseline.comm_messages),
            comm_bytes: self.comm_bytes.saturating_sub(baseline.comm_bytes),
            collective_ops: self.collective_ops.saturating_sub(baseline.collective_ops),
            perf_model_evals: self
                .perf_model_evals
                .saturating_sub(baseline.perf_model_evals),
            faults_injected: self.faults_injected.saturating_sub(baseline.faults_injected),
            comm_timeouts: self.comm_timeouts.saturating_sub(baseline.comm_timeouts),
            checkpoints_written: self
                .checkpoints_written
                .saturating_sub(baseline.checkpoints_written),
            payoff_cache_hits: self
                .payoff_cache_hits
                .saturating_sub(baseline.payoff_cache_hits),
            payoff_cache_misses: self
                .payoff_cache_misses
                .saturating_sub(baseline.payoff_cache_misses),
            markov_fastpath_evals: self
                .markov_fastpath_evals
                .saturating_sub(baseline.markov_fastpath_evals),
            jobs_accepted: self.jobs_accepted.saturating_sub(baseline.jobs_accepted),
            jobs_rejected: self.jobs_rejected.saturating_sub(baseline.jobs_rejected),
            jobs_completed: self.jobs_completed.saturating_sub(baseline.jobs_completed),
            jobs_retried: self.jobs_retried.saturating_sub(baseline.jobs_retried),
            replicates_run: self.replicates_run.saturating_sub(baseline.replicates_run),
            fixations: self.fixations.saturating_sub(baseline.fixations),
            extinctions: self.extinctions.saturating_sub(baseline.extinctions),
        }
    }
}

// ------------------------------------------------------------ enable flag

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn the *timing* layer (spans, per-generation timings) on or off.
/// Counters are unaffected — they are always on. Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the timing layer is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ------------------------------------------------------------------ spans

struct SpanStat {
    name: &'static str,
    count: u64,
    total_ns: u64,
}

static SPANS: Mutex<Vec<SpanStat>> = Mutex::new(Vec::new());

fn spans_lock() -> std::sync::MutexGuard<'static, Vec<SpanStat>> {
    SPANS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Start timing a named scope. The returned guard records elapsed wall
/// time into the process-global span registry when dropped — but only if
/// observability was [`enabled`] when the span was opened; otherwise both
/// construction and drop are no-ops (one relaxed atomic load).
///
/// `name` should be a stable dotted path (`"population.generation"`); the
/// instrumented set is listed in `docs/OBSERVABILITY.md`.
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: enabled().then(Instant::now),
    }
}

/// Guard returned by [`span`]; see there.
#[derive(Debug)]
#[must_use = "a span guard measures until it is dropped"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = start.elapsed().as_nanos() as u64;
        let mut spans = spans_lock();
        match spans.iter_mut().find(|s| s.name == self.name) {
            Some(s) => {
                s.count += 1;
                s.total_ns += ns;
            }
            None => spans.push(SpanStat {
                name: self.name,
                count: 1,
                total_ns: ns,
            }),
        }
    }
}

/// Aggregated timing of one named span — the `spans` entries of the run
/// manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// The span's stable dotted name.
    pub name: String,
    /// Completed executions recorded.
    pub count: u64,
    /// Total wall time across executions, nanoseconds.
    pub total_ns: u64,
}

impl SpanSnapshot {
    /// Mean wall time per execution, nanoseconds (0 if never executed).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Snapshot of every span recorded so far in this process, in
/// first-recorded order.
pub fn span_snapshots() -> Vec<SpanSnapshot> {
    spans_lock()
        .iter()
        .map(|s| SpanSnapshot {
            name: s.name.to_string(),
            count: s.count,
            total_ns: s.total_ns,
        })
        .collect()
}

// -------------------------------------------------------------- histogram

/// Number of buckets in a [`HistogramSnapshot`] (one per power of two of
/// `u64`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂ histogram — the `generation_ns_histogram` field of the run
/// manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// `buckets[i]` counts the values `v` with `⌊log₂ v⌋ = i − 1`;
    /// `buckets[0]` counts `v = 0`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Bucket a slice of values (used at manifest-capture time to
    /// summarise a timing series).
    pub fn from_values(values: &[u64]) -> Self {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        for &v in values {
            buckets[(64 - v.leading_zeros()) as usize] += 1;
        }
        HistogramSnapshot { buckets }
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }
}

// --------------------------------------------------------------- manifest

/// The machine-readable record of one instrumented run — the single
/// telemetry format shared by `evogame-cli --manifest-out`, the quickstart
/// example, and the `bench` fig/table regenerators. Serialises to the JSON
/// schema documented in `docs/OBSERVABILITY.md`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Schema version ([`MANIFEST_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The run's full parameter set, as the producer serialised it
    /// (`evo_core::Params` for engine runs).
    pub params: Value,
    /// The run's RNG seed (also inside `params`; duplicated for cheap
    /// indexing).
    pub seed: u64,
    /// Worker threads the run was configured with
    /// (`rayon::current_num_threads()` for the shared-memory engine; rank
    /// count for distributed runs).
    pub threads: usize,
    /// Generations the run executed.
    pub generations: u64,
    /// Total wall time of the run, seconds.
    pub elapsed_seconds: f64,
    /// Per-generation wall time, nanoseconds, in generation order. Empty
    /// when the timing layer was disabled; producers may cap the series
    /// (the engine keeps the first [`GENERATION_TIMING_CAP`] entries).
    pub per_generation_ns: Vec<u64>,
    /// Log₂ histogram of `per_generation_ns` as stored: of a capped
    /// series it covers the capped part only.
    pub generation_ns_histogram: HistogramSnapshot,
    /// Counter activity attributed to the run
    /// ([`CounterSnapshot::delta_since`] a baseline taken at run start).
    pub counters: CounterSnapshot,
    /// Process-wide span timings at capture time (totals, not deltas).
    pub spans: Vec<SpanSnapshot>,
}

/// Maximum `per_generation_ns` entries the engine retains; later
/// generations of a longer run are timed by the spans only.
pub const GENERATION_TIMING_CAP: usize = 100_000;

impl RunManifest {
    /// Capture a manifest for a finished run.
    ///
    /// `counters_at_start` is the [`Counters::snapshot`] taken when the
    /// run began; the manifest stores the delta so the numbers describe
    /// this run, not the whole process. `per_generation_ns` is the
    /// producer's timing series (empty when timing was disabled).
    pub fn capture(
        params: Value,
        seed: u64,
        threads: usize,
        generations: u64,
        elapsed_seconds: f64,
        counters_at_start: &CounterSnapshot,
        per_generation_ns: &[u64],
    ) -> Self {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            params,
            seed,
            threads,
            generations,
            elapsed_seconds,
            per_generation_ns: per_generation_ns.to_vec(),
            generation_ns_histogram: HistogramSnapshot::from_values(per_generation_ns),
            counters: counters().snapshot().delta_since(counters_at_start),
            spans: span_snapshots(),
        }
    }

    /// Render as pretty-printed JSON (the `--manifest-out` file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .expect("RunManifest serialisation is infallible")
    }

    /// Parse a manifest back from its JSON rendering.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_increment_and_stay_monotone() {
        let before = counters().snapshot();
        counters().add_game(200);
        counters().add_games(3, 50);
        counters().add_fermi_update();
        counters().add_mutation();
        counters().add_rng_stream();
        counters().add_comm_message(64);
        counters().add_collective_op();
        counters().add_perf_model_eval();
        counters().add_fault_injected();
        counters().add_comm_timeout();
        counters().add_checkpoint_written();
        counters().add_payoff_cache_probes(3, 2);
        counters().add_markov_fastpath_eval();
        counters().add_job_accepted();
        counters().add_job_rejected();
        counters().add_job_completed();
        counters().add_job_retried();
        counters().add_replicate_run();
        counters().add_fixation();
        counters().add_extinction();
        let after = counters().snapshot();
        assert!(after.monotone_since(&before));
        let delta = after.delta_since(&before);
        assert!(delta.games_played >= 4);
        assert!(delta.rounds_simulated >= 350);
        assert!(delta.comm_bytes >= 64);
        assert!(delta.faults_injected >= 1);
        assert!(delta.comm_timeouts >= 1);
        assert!(delta.checkpoints_written >= 1);
        assert!(delta.payoff_cache_hits >= 3);
        assert!(delta.payoff_cache_misses >= 2);
        assert!(delta.markov_fastpath_evals >= 1);
        assert!(delta.jobs_accepted >= 1);
        assert!(delta.jobs_rejected >= 1);
        assert!(delta.jobs_completed >= 1);
        assert!(delta.jobs_retried >= 1);
        assert!(delta.replicates_run >= 1);
        assert!(delta.fixations >= 1);
        assert!(delta.extinctions >= 1);
    }

    #[test]
    fn snapshot_without_fault_fields_parses_as_zero() {
        // Manifests written before the fault-tolerance counters existed
        // must still deserialise.
        let legacy = r#"{
            "games_played": 1, "rounds_simulated": 2, "fermi_updates": 3,
            "mutations": 4, "rng_streams": 5, "comm_messages": 6,
            "comm_bytes": 7, "collective_ops": 8, "perf_model_evals": 9
        }"#;
        let snap: CounterSnapshot = serde_json::from_str(legacy).unwrap();
        assert_eq!(snap.faults_injected, 0);
        assert_eq!(snap.comm_timeouts, 0);
        assert_eq!(snap.checkpoints_written, 0);
        assert_eq!(snap.payoff_cache_hits, 0);
        assert_eq!(snap.payoff_cache_misses, 0);
        assert_eq!(snap.markov_fastpath_evals, 0);
        assert_eq!(snap.jobs_accepted, 0);
        assert_eq!(snap.jobs_rejected, 0);
        assert_eq!(snap.jobs_completed, 0);
        assert_eq!(snap.jobs_retried, 0);
        assert_eq!(snap.replicates_run, 0);
        assert_eq!(snap.fixations, 0);
        assert_eq!(snap.extinctions, 0);
        assert_eq!(snap.games_played, 1);
    }

    #[test]
    fn disabled_spans_record_nothing_new() {
        set_enabled(false);
        let name = "obs.test.disabled";
        let before = span_snapshots()
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.count);
        drop(span(name));
        let after = span_snapshots()
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.count);
        assert_eq!(before, after);
    }

    #[test]
    fn enabled_spans_aggregate() {
        set_enabled(true);
        for _ in 0..3 {
            let _s = span("obs.test.enabled");
        }
        set_enabled(false);
        let snaps = span_snapshots();
        let s = snaps.iter().find(|s| s.name == "obs.test.enabled").unwrap();
        assert!(s.count >= 3);
        assert_eq!(s.mean_ns(), s.total_ns / s.count);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        // Buckets 0, 1, 2, 2 and 11.
        let snap = HistogramSnapshot::from_values(&[0, 1, 2, 3, 1024]);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 2);
        assert_eq!(snap.buckets[11], 1);
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(0), 0);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(3), 7);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn manifest_roundtrips_and_diffs_counters() {
        let baseline = counters().snapshot();
        counters().add_game(10);
        let m = RunManifest::capture(
            Value::Map(vec![("seed".into(), Value::UInt(7))]),
            7,
            4,
            2,
            1.25,
            &baseline,
            &[500, 700],
        );
        assert_eq!(m.schema_version, MANIFEST_SCHEMA_VERSION);
        assert!(m.counters.games_played >= 1);
        assert_eq!(m.generation_ns_histogram.count(), 2);
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    }
}
