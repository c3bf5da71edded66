//! Run records — the Nature Agent's "records keeper" output (paper §V).
//!
//! The paper's Nature Agent "handles all file I/O to record the global
//! variables across generations". These types are the serialisable
//! equivalents: per-generation event records and full population snapshots
//! (the raw data behind the paper's Fig 2 strategy-population views).

use crate::nature::Event;
use crate::pool::{census, StratId, StrategyPool};
use ipd::state::StateSpace;
use ipd::strategy::Strategy;
use serde::{Deserialize, Serialize};

/// What happened in one generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationRecord {
    /// Generation index (0-based; the state *before* this generation's
    /// dynamics is what the events acted upon).
    pub generation: u64,
    /// Population-dynamics events (pairwise comparison, mutation).
    pub events: Vec<Event>,
    /// Mean SSet relative fitness, if fitness was evaluated this
    /// generation (`None` under the `OnDemand` policy in PC-free
    /// generations).
    pub mean_fitness: Option<f64>,
    /// Maximum SSet relative fitness, if evaluated.
    pub max_fitness: Option<f64>,
    /// Number of distinct strategies present after the generation's events.
    pub distinct_strategies: usize,
}

impl GenerationRecord {
    /// `true` if any event changed a strategy assignment.
    pub fn population_changed(&self) -> bool {
        self.events.iter().any(|e| match e {
            Event::PairwiseComparison { adopted, .. } => *adopted,
            Event::Mutation { .. } => true,
            Event::Moran { parent, victim } => parent != victim,
            Event::ImitateBest { best, learner } => best != learner,
        })
    }
}

/// A full view of the population at one generation: per-SSet strategy ids
/// plus each SSet's strategy feature vector (per-state cooperation
/// probability) — the rows of the paper's Fig 2 image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationSnapshot {
    /// Generation at which the snapshot was taken.
    pub generation: u64,
    /// Strategy id assigned to each SSet.
    pub assignments: Vec<StratId>,
    /// `features[i]` = SSet `i`'s per-state cooperation probabilities.
    pub features: Vec<Vec<f64>>,
}

impl PopulationSnapshot {
    /// Number of SSets.
    pub fn num_ssets(&self) -> usize {
        self.assignments.len()
    }

    /// Number of states per strategy (feature dimensionality).
    pub fn num_states(&self) -> usize {
        self.features.first().map_or(0, |f| f.len())
    }

    /// Number of distinct strategy ids present.
    pub fn distinct_strategies(&self) -> usize {
        census(&self.assignments).len()
    }
}

/// Version of the [`Checkpoint`] JSON schema. Bump on any
/// backwards-incompatible change and update `docs/FAULT_TOLERANCE.md`.
/// Version 1 is the original layout; files written before versioning
/// deserialise as version 0 (`#[serde(default)]`) and share that layout.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// A serialisable snapshot of the complete simulation state — see
/// [`crate::population::Population::checkpoint`]. Because the engine's RNG
/// streams are `(seed, domain, entity, generation)`-keyed, this struct is
/// the *entire* state: no generator positions need saving, and restoring
/// plus continuing is bit-identical to never stopping
/// (docs/FAULT_TOLERANCE.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Schema version this file was written with
    /// ([`CHECKPOINT_SCHEMA_VERSION`]); 0 for pre-versioning files, whose
    /// layout is identical.
    #[serde(default)]
    pub schema_version: u32,
    /// The run's parameters (seed included: streams are generation-keyed,
    /// so resuming continues the same randomness).
    pub params: crate::params::Params,
    /// Generation at which the checkpoint was taken.
    pub generation: u64,
    /// Every interned strategy, in id order.
    pub pool: Vec<ipd::strategy::Strategy>,
    /// Per-SSet strategy ids.
    pub assignments: Vec<StratId>,
    /// Aggregate statistics at checkpoint time.
    pub stats: RunStats,
}

impl Checkpoint {
    /// Snapshot a run's tables at a generation boundary (pool, assignments
    /// and stats mutually consistent) — the one place a [`Checkpoint`] is
    /// built.
    pub fn capture(
        params: &crate::params::Params,
        generation: u64,
        pool: &StrategyPool,
        assignments: &[StratId],
        stats: RunStats,
    ) -> Self {
        Checkpoint {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            params: params.clone(),
            generation,
            pool: pool_table(pool),
            assignments: assignments.to_vec(),
            stats,
        }
    }

    /// Decode and validate the strategy tables: the parameters' state
    /// space, the rebuilt interning pool (ids as written) and the per-SSet
    /// id table. Every resume path goes through here, so a hostile or
    /// damaged file fails typed before any engine code indexes with it
    /// (docs/FAULT_TOLERANCE.md §2).
    pub fn tables(&self) -> Result<(StateSpace, StrategyPool, Vec<StratId>), CheckpointError> {
        check_schema(self.schema_version, CHECKPOINT_SCHEMA_VERSION)?;
        let space = self
            .params
            .validate()
            .map_err(|e| CheckpointError::Params(e.to_string()))?;
        decode_tables(space, &self.pool, &self.assignments, self.params.num_ssets)
    }
}

/// Why a checkpoint cannot be resumed. Shared by every checkpoint family
/// ([`Checkpoint`], [`crate::spatial::SpatialCheckpoint`],
/// [`crate::fixation::FixationCheckpoint`]).
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The embedded run parameters fail their own validation.
    Params(String),
    /// Written under a newer schema than this build reads.
    FutureSchema {
        /// The file's `schema_version`.
        found: u32,
        /// The newest version this build understands.
        supported: u32,
    },
    /// The id table's length disagrees with the parameters.
    WrongLength {
        /// Entries in the file.
        found: usize,
        /// Entries the parameters call for.
        expected: usize,
    },
    /// A pool strategy lives in a different state space than the
    /// parameters' memory depth implies.
    SpaceMismatch {
        /// Pool index of the offending strategy.
        index: usize,
    },
    /// The pool lists one strategy twice: re-interning would collapse the
    /// two and shift every later id.
    DuplicatePoolEntry {
        /// Pool index of the second occurrence.
        index: usize,
    },
    /// The id table references a strategy the pool does not hold.
    UnknownStrategy {
        /// The dangling id.
        id: StratId,
        /// Strategies in the pool.
        pool: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Params(e) => write!(f, "invalid checkpoint parameters: {e}"),
            CheckpointError::FutureSchema { found, supported } => write!(
                f,
                "checkpoint schema version {found} is newer than this build supports ({supported})"
            ),
            CheckpointError::WrongLength { found, expected } => write!(
                f,
                "checkpoint holds {found} strategy assignments, its parameters say {expected}"
            ),
            CheckpointError::SpaceMismatch { index } => write!(
                f,
                "checkpoint pool entry {index} has a different memory depth than the parameters"
            ),
            CheckpointError::DuplicatePoolEntry { index } => write!(
                f,
                "checkpoint pool entry {index} duplicates an earlier strategy (ids would shift)"
            ),
            CheckpointError::UnknownStrategy { id, pool } => write!(
                f,
                "checkpoint references unknown strategy id {id} (pool holds {pool})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A checkpoint written under a schema newer than `supported` cannot be
/// trusted to mean what this build would read into it.
pub(crate) fn check_schema(found: u32, supported: u32) -> Result<(), CheckpointError> {
    if found > supported {
        return Err(CheckpointError::FutureSchema { found, supported });
    }
    Ok(())
}

/// Every interned strategy in id order — the `pool` field of a checkpoint.
pub(crate) fn pool_table(pool: &StrategyPool) -> Vec<Strategy> {
    pool.iter().map(|(_, s)| (**s).clone()).collect()
}

/// Re-intern a checkpoint's `pool` (ids must come out as written) and
/// validate its id table against it: `expected` entries, each naming a
/// pool strategy. `space` is handed back with the tables.
pub(crate) fn decode_tables(
    space: StateSpace,
    strategies: &[Strategy],
    ids: &[StratId],
    expected: usize,
) -> Result<(StateSpace, StrategyPool, Vec<StratId>), CheckpointError> {
    if ids.len() != expected {
        return Err(CheckpointError::WrongLength {
            found: ids.len(),
            expected,
        });
    }
    let mut pool = StrategyPool::new();
    for (index, s) in strategies.iter().enumerate() {
        if s.space() != &space {
            return Err(CheckpointError::SpaceMismatch { index });
        }
        if pool.intern(s.clone()) as usize != index {
            return Err(CheckpointError::DuplicatePoolEntry { index });
        }
    }
    match ids.iter().find(|&&id| id as usize >= pool.len()) {
        Some(&id) => Err(CheckpointError::UnknownStrategy {
            id,
            pool: pool.len(),
        }),
        None => Ok((space, pool, ids.to_vec())),
    }
}

/// Aggregate statistics over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Generations executed.
    pub generations: u64,
    /// Pairwise-comparison events that occurred.
    pub pc_events: u64,
    /// PC events in which the learner adopted the teacher's strategy.
    pub adoptions: u64,
    /// Mutation events.
    pub mutations: u64,
    /// Fitness evaluations actually performed (≤ generations under
    /// `OnDemand`).
    pub fitness_evaluations: u64,
    /// Iterated games played across the run (fitness evaluations × games
    /// per generation, or the deduplicated count when dedup is active).
    pub games_played: u64,
}

/// Streaming JSONL writer for run records — the Nature Agent's file I/O
/// role (§V). One JSON object per line; generic over any `Write` sink so
/// tests can capture in memory and the CLI can stream to disk.
pub struct RecordWriter<W: std::io::Write> {
    sink: std::io::BufWriter<W>,
    lines: u64,
}

impl<W: std::io::Write> std::fmt::Debug for RecordWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordWriter")
            .field("lines", &self.lines)
            .finish_non_exhaustive()
    }
}

impl<W: std::io::Write> RecordWriter<W> {
    /// Wrap a sink.
    pub fn new(sink: W) -> Self {
        RecordWriter {
            sink: std::io::BufWriter::new(sink),
            lines: 0,
        }
    }

    /// Append one generation record as a JSON line.
    pub fn write_generation(&mut self, rec: &GenerationRecord) -> std::io::Result<()> {
        self.write_value(rec)
    }

    /// Append a population snapshot as a JSON line.
    pub fn write_snapshot(&mut self, snap: &PopulationSnapshot) -> std::io::Result<()> {
        self.write_value(snap)
    }

    fn write_value<T: Serialize>(&mut self, value: &T) -> std::io::Result<()> {
        use std::io::Write as _;
        let line = serde_json::to_string(value)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        writeln!(self.sink, "{line}")?;
        self.lines += 1;
        Ok(())
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush and return the sink.
    pub fn finish(self) -> std::io::Result<W> {
        self.sink
            .into_inner()
            .map_err(|e| std::io::Error::other(e.to_string()))
    }
}

/// FNV-1a over the serialised final state (assignments plus per-SSet
/// feature vectors): a cheap deterministic fingerprint that scripts and
/// the service layer compare across backends, across
/// interrupted-then-resumed vs straight-through runs, and across repeated
/// submissions of the same job (docs/SERVICE.md). The CLI prints it as the
/// `state digest` stderr line; `svc` receipts carry it as `state_digest`.
pub fn state_digest<A: Serialize, F: Serialize>(assignments: &A, features: &F) -> u64 {
    // detlint: allow(panic-path, reason = "invariant: callers pass id and f64 tables, whose in-memory JSON serialisation has no failure path; a digest that could silently skip state would defeat its purpose")
    let json = serde_json::to_string(&(assignments, features)).expect("state serialises");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Parse a JSONL stream of generation records (inverse of
/// [`RecordWriter::write_generation`]); stops with an error on the first
/// malformed line.
pub fn read_generations(text: &str) -> Result<Vec<GenerationRecord>, serde_json::Error> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_writer_roundtrips_jsonl() {
        let recs: Vec<GenerationRecord> = (0..5)
            .map(|g| GenerationRecord {
                generation: g,
                events: if g % 2 == 0 {
                    vec![Event::Mutation {
                        sset: g as u32,
                        strategy: g as u32 + 10,
                    }]
                } else {
                    vec![]
                },
                mean_fitness: Some(g as f64),
                max_fitness: Some(g as f64 * 2.0),
                distinct_strategies: 3,
            })
            .collect();
        let mut w = RecordWriter::new(Vec::new());
        for r in &recs {
            w.write_generation(r).unwrap();
        }
        assert_eq!(w.lines(), 5);
        let bytes = w.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 5);
        let back = read_generations(&text).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn read_generations_rejects_garbage() {
        assert!(read_generations("not json\n").is_err());
        assert!(read_generations("").unwrap().is_empty());
    }

    #[test]
    fn record_writer_handles_snapshots() {
        let snap = PopulationSnapshot {
            generation: 3,
            assignments: vec![0, 1],
            features: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
        };
        let mut w = RecordWriter::new(Vec::new());
        w.write_snapshot(&snap).unwrap();
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let back: PopulationSnapshot = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn population_changed_detects_adoption_and_mutation() {
        let none = GenerationRecord {
            generation: 0,
            events: vec![],
            mean_fitness: None,
            max_fitness: None,
            distinct_strategies: 3,
        };
        assert!(!none.population_changed());

        let rejected = GenerationRecord {
            events: vec![Event::PairwiseComparison {
                teacher: 0,
                learner: 1,
                teacher_fitness: 1.0,
                learner_fitness: 2.0,
                p: 0.3,
                adopted: false,
            }],
            ..none.clone()
        };
        assert!(!rejected.population_changed());

        let adopted = GenerationRecord {
            events: vec![Event::PairwiseComparison {
                teacher: 0,
                learner: 1,
                teacher_fitness: 3.0,
                learner_fitness: 2.0,
                p: 0.7,
                adopted: true,
            }],
            ..none.clone()
        };
        assert!(adopted.population_changed());

        let mutated = GenerationRecord {
            events: vec![Event::Mutation { sset: 4, strategy: 9 }],
            ..none
        };
        assert!(mutated.population_changed());
    }

    #[test]
    fn snapshot_accessors() {
        let snap = PopulationSnapshot {
            generation: 10,
            assignments: vec![0, 1, 0, 2],
            features: vec![vec![1.0, 0.0]; 4],
        };
        assert_eq!(snap.num_ssets(), 4);
        assert_eq!(snap.num_states(), 2);
        assert_eq!(snap.distinct_strategies(), 3);
    }

    #[test]
    fn state_digest_is_stable_and_input_sensitive() {
        let a = (vec![0u32, 1, 2], vec![vec![1.0f64, 0.0]]);
        let d1 = state_digest(&a.0, &a.1);
        let d2 = state_digest(&a.0, &a.1);
        assert_eq!(d1, d2, "same state, same digest");
        let d3 = state_digest(&vec![0u32, 1, 3], &a.1);
        assert_ne!(d1, d3, "different assignments, different digest");
    }

    #[test]
    fn records_serde_roundtrip() {
        let rec = GenerationRecord {
            generation: 5,
            events: vec![Event::Mutation { sset: 1, strategy: 2 }],
            mean_fitness: Some(10.0),
            max_fitness: Some(20.0),
            distinct_strategies: 2,
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: GenerationRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(rec, back);
    }
}
