//! Counter-based deterministic RNG streams.
//!
//! Every stochastic decision in the engine draws from a ChaCha stream keyed
//! by `(seed, domain, entity, generation)`. Because a stream's output
//! depends only on that key — never on which thread produced previous draws
//! — the parallel engine is **schedule-invariant**: rayon with any number of
//! worker threads yields results bit-identical to the sequential reference.
//! This is the property that lets the test suite validate the parallel
//! implementation against the simple one, and it mirrors the paper's need
//! for each node to "calculate its position … individually" from global
//! state (§V) rather than coordinating.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::marker::PhantomData;

/// The independent randomness domains used by the engine. Keeping domains
/// disjoint guarantees that, e.g., game-play draws can never perturb the
/// Nature Agent's selection sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum Domain {
    /// Initial strategy assignment at generation zero.
    Init = 1,
    /// Per-game move sampling and execution noise.
    GamePlay = 2,
    /// Nature Agent: PC event scheduling and pair selection.
    Nature = 3,
    /// Nature Agent: mutation scheduling and new-strategy generation.
    Mutation = 4,
    /// Analysis-side draws (e.g. k-means initialisation).
    Analysis = 5,
    /// Fault-injection schedules (`cluster::faults`). Disjoint from every
    /// evolution domain so drawing a fault plan can never perturb a
    /// trajectory.
    Faults = 6,
    /// Structured-population dynamics: per-vertex spatial update draws
    /// (Fermi neighbor choice and adoption on lattices/graphs). Disjoint
    /// from `Nature` so well-mixed and graph-structured dynamics can never
    /// perturb each other's schedules.
    Graph = 7,
    /// Fixation-probability replicate seeding (`evo_core::fixation`): the
    /// per-replicate engine seeds of a `FixationBatch` are derived from
    /// streams keyed by the replicate index, so a batch's trajectory set is
    /// a pure function of `(batch seed, replicate index)` — independent of
    /// sharding, thread count, or completion order.
    Fixation = 8,
}

/// SplitMix64 — the standard 64-bit mixer; used only for key derivation.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the 32-byte ChaCha key for a stream.
fn derive_key(seed: u64, domain: Domain, entity: u64, generation: u64) -> [u8; 32] {
    // Four mixed words; each chains the previous so every input bit
    // influences every output word.
    let w0 = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    let w1 = splitmix64(w0 ^ (domain as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
    let w2 = splitmix64(w1 ^ entity.wrapping_mul(0x8EBC_6AF0_9C88_C6E3));
    let w3 = splitmix64(w2 ^ generation.wrapping_mul(0x5899_89AF_CBFF_E1C5));
    let mut key = [0u8; 32];
    key[0..8].copy_from_slice(&w0.to_le_bytes());
    key[8..16].copy_from_slice(&w1.to_le_bytes());
    key[16..24].copy_from_slice(&w2.to_le_bytes());
    key[24..32].copy_from_slice(&w3.to_le_bytes());
    key
}

/// An independent RNG stream for `(seed, domain, entity, generation)`.
///
/// ChaCha8 is used: cryptographic quality is unnecessary, but ChaCha gives
/// platform-stable output (unlike `StdRng`, whose algorithm may change
/// between `rand` releases) and cheap arbitrary keying.
pub fn stream(seed: u64, domain: Domain, entity: u64, generation: u64) -> ChaCha8Rng {
    // Telemetry counts streams *opened*, not raw draws: counting per draw
    // would cost an atomic op in the innermost loop for a number with no
    // extra analytical value. The counter cannot perturb the stream itself
    // (docs/OBSERVABILITY.md, "Determinism guarantee").
    let tallied = TALLY.with(|tally| {
        let (depth, streams) = tally.get();
        if depth > 0 {
            tally.set((depth, streams + 1));
        }
        depth > 0
    });
    if !tallied {
        obs::counters().add(obs::Counter::RngStreams, 1);
    }
    ChaCha8Rng::from_seed(derive_key(seed, domain, entity, generation))
}

thread_local! {
    /// This thread's open [`StreamTally`] scopes and the streams opened
    /// inside them, not yet reported. `(0, 0)` outside any scope.
    static TALLY: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}

/// While one is alive, the streams this thread opens are counted here and
/// reach `obs` in one write when the outermost scope on the thread ends —
/// on unwind too — instead of one shared-counter write each. Scopes nest:
/// an inner one (a rayon worker running a second replicate while it waits
/// inside the first) adds to the outer one's tally. Streams opened on
/// other threads are counted there, as ever. Totals are unchanged; only
/// when they reach the counter moves.
#[derive(Debug)]
pub(crate) struct StreamTally {
    /// The tally belongs to the thread that opened the scope.
    _this_thread: PhantomData<*const ()>,
}

impl StreamTally {
    /// Open a scope on this thread.
    pub(crate) fn open() -> Self {
        TALLY.with(|tally| {
            let (depth, streams) = tally.get();
            tally.set((depth + 1, streams));
        });
        StreamTally {
            _this_thread: PhantomData,
        }
    }
}

impl Drop for StreamTally {
    fn drop(&mut self) {
        let flushed = TALLY.with(|tally| match tally.get() {
            (1, streams) => {
                tally.set((0, 0));
                streams
            }
            (depth, streams) => {
                tally.set((depth - 1, streams));
                0
            }
        });
        obs::counters().add(obs::Counter::RngStreams, flushed);
    }
}

/// Stream for the game a specific SSet plays against a specific opponent in
/// a specific generation. `focal` and `opponent` are SSet indices; the
/// entity id packs both so the (i, j) and (j, i) games are independent
/// (the paper plays them as two separate agent-level games).
pub fn game_stream(
    seed: u64,
    focal: u32,
    opponent: u32,
    num_ssets: u32,
    generation: u64,
) -> ChaCha8Rng {
    let entity = (focal as u64) * (num_ssets as u64) + opponent as u64;
    stream(seed, Domain::GamePlay, entity, generation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_key_same_stream() {
        let mut a = stream(1, Domain::GamePlay, 2, 3);
        let mut b = stream(1, Domain::GamePlay, 2, 3);
        for _ in 0..64 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_entities_differ() {
        let mut a = stream(1, Domain::GamePlay, 2, 3);
        let mut b = stream(1, Domain::GamePlay, 4, 3);
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn different_domains_differ() {
        let mut a = stream(1, Domain::Nature, 2, 3);
        let mut b = stream(1, Domain::Mutation, 2, 3);
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn different_generations_differ() {
        let mut a = stream(1, Domain::GamePlay, 2, 3);
        let mut b = stream(1, Domain::GamePlay, 2, 4);
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = stream(1, Domain::Init, 0, 0);
        let mut b = stream(2, Domain::Init, 0, 0);
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn game_stream_is_asymmetric_in_players() {
        let mut ij = game_stream(9, 3, 5, 100, 7);
        let mut ji = game_stream(9, 5, 3, 100, 7);
        assert_ne!(ij.random::<u64>(), ji.random::<u64>());
    }

    #[test]
    fn tally_scopes_nest_and_flush_once_even_on_unwind() {
        let tally = || TALLY.with(Cell::get);
        let before = obs::counters().snapshot().rng_streams;
        {
            let _outer = StreamTally::open();
            stream(1, Domain::Init, 0, 0);
            {
                let _inner = StreamTally::open();
                stream(1, Domain::Init, 1, 0);
                stream(1, Domain::Init, 2, 0);
                assert_eq!(tally(), (2, 3));
            }
            assert_eq!(tally(), (1, 3), "the inner scope adds to the outer one");
        }
        assert_eq!(tally(), (0, 0), "the outermost scope flushed");
        let unwound = std::panic::catch_unwind(|| {
            let _scope = StreamTally::open();
            stream(1, Domain::Init, 3, 0);
            panic!("unwind through an open scope");
        });
        assert!(unwound.is_err());
        assert_eq!(tally(), (0, 0), "the drop guard flushed on unwind");
        // Other tests open streams concurrently, so only a lower bound.
        assert!(obs::counters().snapshot().rng_streams >= before + 4);
    }

    #[test]
    fn splitmix_mixes_zero() {
        // Degenerate inputs must still produce distinct keys.
        let k0 = derive_key(0, Domain::Init, 0, 0);
        let k1 = derive_key(0, Domain::Init, 0, 1);
        let k2 = derive_key(0, Domain::Init, 1, 0);
        assert_ne!(k0, k1);
        assert_ne!(k0, k2);
        assert_ne!(k1, k2);
    }

    #[test]
    fn stream_output_is_stable() {
        // Pin the concrete output so accidental algorithm changes (which
        // would silently invalidate recorded experiments) fail loudly.
        let mut r = stream(42, Domain::GamePlay, 7, 11);
        let got: Vec<u64> = (0..4).map(|_| r.random()).collect();
        assert_eq!(
            got,
            [0x846f_fb30_5359_aa3e, 0xec67_15a3_05cc_e20a, 0x9d6c_3d42_1189_a73f, 0x4471_117d_a9e6_1a01]
        );
        // Distribution smoke check: mean of u8 draws near 127.5.
        let mut r = stream(42, Domain::GamePlay, 7, 11);
        let mean: f64 =
            (0..10_000).map(|_| r.random::<u8>() as f64).sum::<f64>() / 10_000.0;
        assert!((mean - 127.5).abs() < 3.0, "mean {mean}");
    }
}
