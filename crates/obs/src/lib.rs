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
//! 1. **Counters** ([`counters`]) — process-global relaxed atomics, one
//!    per [`Counter`], that are *always on*. The instrumented crates
//!    increment them with [`Counters::add`] at well-defined points: games
//!    played, rounds simulated, Fermi updates, mutations, RNG streams
//!    opened, messages/bytes through the virtual cluster.
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

/// One process-global event counter: an index into [`Counters`] and a
/// field of [`CounterSnapshot`] (`GamesPlayed` is `games_played`). The
/// variants are in manifest order; each says what it counts and where
/// it is incremented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Iterated games finished: every game kernel in `ipd::game` and
    /// `ipd::batch`, through [`Counters::add_game`] or, once per lockstep
    /// group or word-parallel batch, [`Counters::add_games`].
    GamesPlayed,
    /// Game rounds simulated, summed over games, at the same points. The
    /// cycle kernel counts the *logical* rounds it pays out arithmetically.
    RoundsSimulated,
    /// Fermi pairwise comparisons resolved, counted once per decision by
    /// `evo_core::engine::apply` (a distributed run's compute ranks decide
    /// again without counting).
    FermiUpdates,
    /// Mutation strategies drawn, counted once per decision by
    /// `evo_core::engine::apply`.
    Mutations,
    /// Counter-based RNG streams opened (`evo_core::rngstream::stream`).
    /// Inside a fixation replicate the opening thread tallies them and
    /// adds the tally once, when the replicate ends.
    RngStreams,
    /// Point-to-point messages sent through `cluster::comm`, collective
    /// traffic included: collectives are built from point-to-point sends
    /// ([`Counters::add_comm_message`]).
    CommMessages,
    /// Payload bytes of those messages: the in-memory `size_of` of each
    /// message's payload type, a lower bound for heap-owning payloads.
    CommBytes,
    /// Collective operations (bcast/reduce/gather/barrier) initiated, one
    /// per participating rank (`cluster::collective`).
    CollectiveOps,
    /// Analytic performance-model evaluations
    /// (`cluster::perf::PerfModel::breakdown`).
    PerfModelEvals,
    /// Scheduled faults executed by the virtual cluster's transport or
    /// engine (message drop/delay/duplicate applied, rank killed on plan).
    FaultsInjected,
    /// Receive deadlines expired (`cluster::comm` returned
    /// `ClusterError::Timeout`). Fault-free runs never increment this.
    CommTimeouts,
    /// Run checkpoints serialised to stable storage: the CLI's periodic,
    /// final and degraded-run snapshots, and `svc`'s spool checkpoints.
    CheckpointsWritten,
    /// Pairwise payoffs served from the cross-generation payoff cache
    /// (`evo_core::paycache`) without playing the game. The prober
    /// tallies in plain integers and adds once per evaluation (once per
    /// replicate in a fixation batch), not once per game.
    PayoffCacheHits,
    /// Pairwise payoffs computed and inserted into the payoff cache, at
    /// the same points.
    PayoffCacheMisses,
    /// Pairwise payoffs computed analytically by Markov forward iteration
    /// (`ipd::markov::expected_outcome`) instead of round simulation —
    /// the expected-fitness fast path.
    MarkovFastpathEvals,
    /// Simulation jobs admitted by the service layer's queue
    /// (`svc::JobQueue`, docs/SERVICE.md).
    JobsAccepted,
    /// Simulation jobs refused admission (queue full, duplicate id, or
    /// invalid request); the CLI adds unparseable request lines.
    JobsRejected,
    /// Simulation jobs finished with a receipt (docs/SERVICE.md).
    JobsCompleted,
    /// Degraded simulation jobs automatically re-enqueued from their
    /// `DegradedRun` checkpoint (docs/SERVICE.md retry semantics).
    JobsRetried,
    /// Fixation replicates run to absorption or their generation cap
    /// (`evo_core::fixation`).
    ReplicatesRun,
    /// Fixation replicates that ended with the mutant lineage fixed.
    Fixations,
    /// Fixation replicates that ended with the mutant lineage extinct.
    Extinctions,
}

impl Counter {
    /// Every counter, in declaration order: the order of the
    /// [`CounterSnapshot`] fields and of a manifest's `counters` object.
    pub const ALL: [Counter; 22] = [
        Counter::GamesPlayed,
        Counter::RoundsSimulated,
        Counter::FermiUpdates,
        Counter::Mutations,
        Counter::RngStreams,
        Counter::CommMessages,
        Counter::CommBytes,
        Counter::CollectiveOps,
        Counter::PerfModelEvals,
        Counter::FaultsInjected,
        Counter::CommTimeouts,
        Counter::CheckpointsWritten,
        Counter::PayoffCacheHits,
        Counter::PayoffCacheMisses,
        Counter::MarkovFastpathEvals,
        Counter::JobsAccepted,
        Counter::JobsRejected,
        Counter::JobsCompleted,
        Counter::JobsRetried,
        Counter::ReplicatesRun,
        Counter::Fixations,
        Counter::Extinctions,
    ];
}

/// The process-global event counters, one relaxed atomic per [`Counter`] —
/// cheap enough to stay **always on**, independent of [`enabled`].
///
/// Counters only ever increase within a process (there is deliberately no
/// reset), so concurrent readers can rely on monotonicity. Attribute
/// counts to a region of interest by taking a [`Counters::snapshot`]
/// before and after and diffing with [`CounterSnapshot::delta_since`].
#[derive(Debug)]
pub struct Counters([AtomicU64; Counter::ALL.len()]);

static COUNTERS: Counters = Counters([const { AtomicU64::new(0) }; Counter::ALL.len()]);

/// The process-global [`Counters`] instance.
pub fn counters() -> &'static Counters {
    &COUNTERS
}

impl Counters {
    /// `n` events of counter `c`, in one relaxed atomic add. A zero `n`
    /// writes nothing, so a tally that flushes empty (a probe session or
    /// a replicate's stream tally) leaves the shared line alone.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if n != 0 {
            self.0[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// One iterated game finished, `rounds` rounds long.
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
        self.add(Counter::GamesPlayed, games);
        self.add(Counter::RoundsSimulated, games * rounds_each as u64);
    }

    /// One point-to-point message of `bytes` payload bytes sent through
    /// `cluster::comm`.
    #[inline]
    pub fn add_comm_message(&self, bytes: u64) {
        self.add(Counter::CommMessages, 1);
        self.add(Counter::CommBytes, bytes);
    }

    /// A consistent-enough point-in-time copy of every counter (each load
    /// is individually atomic; the set is not a cross-counter transaction).
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut snap = CounterSnapshot::default();
        for c in Counter::ALL {
            *snap.field_mut(c) = self.0[c as usize].load(Ordering::Relaxed);
        }
        snap
    }
}

/// A point-in-time copy of the [`Counters`] — the `counters` field of the
/// run manifest. Each field is the [`Counter`] of the same name; the
/// table in `docs/OBSERVABILITY.md` lists them in this order. Fields
/// marked `#[serde(default)]` are absent in manifests written before the
/// counter existed and parse as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// [`Counter::GamesPlayed`].
    pub games_played: u64,
    /// [`Counter::RoundsSimulated`].
    pub rounds_simulated: u64,
    /// [`Counter::FermiUpdates`].
    pub fermi_updates: u64,
    /// [`Counter::Mutations`].
    pub mutations: u64,
    /// [`Counter::RngStreams`].
    pub rng_streams: u64,
    /// [`Counter::CommMessages`].
    pub comm_messages: u64,
    /// [`Counter::CommBytes`].
    pub comm_bytes: u64,
    /// [`Counter::CollectiveOps`].
    pub collective_ops: u64,
    /// [`Counter::PerfModelEvals`].
    pub perf_model_evals: u64,
    /// [`Counter::FaultsInjected`].
    #[serde(default)]
    pub faults_injected: u64,
    /// [`Counter::CommTimeouts`].
    #[serde(default)]
    pub comm_timeouts: u64,
    /// [`Counter::CheckpointsWritten`].
    #[serde(default)]
    pub checkpoints_written: u64,
    /// [`Counter::PayoffCacheHits`].
    #[serde(default)]
    pub payoff_cache_hits: u64,
    /// [`Counter::PayoffCacheMisses`].
    #[serde(default)]
    pub payoff_cache_misses: u64,
    /// [`Counter::MarkovFastpathEvals`].
    #[serde(default)]
    pub markov_fastpath_evals: u64,
    /// [`Counter::JobsAccepted`].
    #[serde(default)]
    pub jobs_accepted: u64,
    /// [`Counter::JobsRejected`].
    #[serde(default)]
    pub jobs_rejected: u64,
    /// [`Counter::JobsCompleted`].
    #[serde(default)]
    pub jobs_completed: u64,
    /// [`Counter::JobsRetried`].
    #[serde(default)]
    pub jobs_retried: u64,
    /// [`Counter::ReplicatesRun`].
    #[serde(default)]
    pub replicates_run: u64,
    /// [`Counter::Fixations`].
    #[serde(default)]
    pub fixations: u64,
    /// [`Counter::Extinctions`].
    #[serde(default)]
    pub extinctions: u64,
}

impl CounterSnapshot {
    /// The field that holds counter `c`.
    fn field_mut(&mut self, c: Counter) -> &mut u64 {
        match c {
            Counter::GamesPlayed => &mut self.games_played,
            Counter::RoundsSimulated => &mut self.rounds_simulated,
            Counter::FermiUpdates => &mut self.fermi_updates,
            Counter::Mutations => &mut self.mutations,
            Counter::RngStreams => &mut self.rng_streams,
            Counter::CommMessages => &mut self.comm_messages,
            Counter::CommBytes => &mut self.comm_bytes,
            Counter::CollectiveOps => &mut self.collective_ops,
            Counter::PerfModelEvals => &mut self.perf_model_evals,
            Counter::FaultsInjected => &mut self.faults_injected,
            Counter::CommTimeouts => &mut self.comm_timeouts,
            Counter::CheckpointsWritten => &mut self.checkpoints_written,
            Counter::PayoffCacheHits => &mut self.payoff_cache_hits,
            Counter::PayoffCacheMisses => &mut self.payoff_cache_misses,
            Counter::MarkovFastpathEvals => &mut self.markov_fastpath_evals,
            Counter::JobsAccepted => &mut self.jobs_accepted,
            Counter::JobsRejected => &mut self.jobs_rejected,
            Counter::JobsCompleted => &mut self.jobs_completed,
            Counter::JobsRetried => &mut self.jobs_retried,
            Counter::ReplicatesRun => &mut self.replicates_run,
            Counter::Fixations => &mut self.fixations,
            Counter::Extinctions => &mut self.extinctions,
        }
    }

    /// The value of counter `c`.
    fn get(mut self, c: Counter) -> u64 {
        *self.field_mut(c)
    }

    /// `true` if every counter in `self` is ≥ its value in `earlier` —
    /// the monotonicity the process-global counters guarantee.
    pub fn monotone_since(&self, earlier: &CounterSnapshot) -> bool {
        Counter::ALL.iter().all(|&c| self.get(c) >= earlier.get(c))
    }

    /// Per-counter difference `self − baseline` (saturating), attributing
    /// activity to the window between two snapshots. In a process with
    /// concurrent instrumented work the delta includes that work too;
    /// single-run tools (the CLI, the regenerators) run one engine at a
    /// time so the delta is exactly the run's activity.
    pub fn delta_since(&self, baseline: &CounterSnapshot) -> CounterSnapshot {
        let mut delta = *self;
        for c in Counter::ALL {
            *delta.field_mut(c) = self.get(c).saturating_sub(baseline.get(c));
        }
        delta
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
    fn each_counter_is_one_snapshot_field_in_manifest_order() {
        let zero = CounterSnapshot::default().to_value();
        let keys: Vec<&String> = zero.as_map().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(Counter::ALL.len(), keys.len());
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?}: ALL is in declaration order");
            let mut snap = CounterSnapshot::default();
            *snap.field_mut(c) = 1;
            let value = snap.to_value();
            let set: Vec<&String> = value.as_map().unwrap().iter()
                .filter(|(_, v)| *v == Value::UInt(1))
                .map(|(k, _)| k)
                .collect();
            assert_eq!(set, [keys[i]], "{c:?} sets exactly the i-th key");
        }
    }

    #[test]
    fn counters_increment_and_stay_monotone() {
        let before = counters().snapshot();
        for c in Counter::ALL {
            counters().add(c, 1);
        }
        counters().add_game(200);
        counters().add_games(3, 50);
        counters().add_comm_message(64);
        counters().add(Counter::PayoffCacheHits, 3);
        counters().add(Counter::PayoffCacheMisses, 2);
        let after = counters().snapshot();
        assert!(after.monotone_since(&before));
        let delta = after.delta_since(&before);
        for c in Counter::ALL {
            assert!(delta.get(c) >= 1, "{c:?}");
        }
        assert!(delta.games_played >= 4);
        assert!(delta.rounds_simulated >= 350);
        assert!(delta.comm_bytes >= 64);
        assert!(delta.payoff_cache_hits >= 3);
        assert!(delta.payoff_cache_misses >= 2);
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

    /// Held by the tests that flip the process-global [`set_enabled`]
    /// switch: run in parallel, one test's `set_enabled(true)` could land
    /// between the other's `set_enabled(false)` and its span.
    static SPAN_SWITCH: Mutex<()> = Mutex::new(());

    fn span_switch() -> std::sync::MutexGuard<'static, ()> {
        SPAN_SWITCH.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_spans_record_nothing_new() {
        let _switch = span_switch();
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
        let _switch = span_switch();
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
