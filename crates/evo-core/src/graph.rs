//! Explicit population topologies for structured evolutionary dynamics.
//!
//! The paper's §II situates the model in the cellular-automata lineage of
//! spatial games (Nowak & May's lattice dilemma, reference \[30\]); this
//! module makes that structure a first-class engine concept instead of a
//! side loop. [`Lattice`] is the periodic (torus) grid with
//! [`Neighborhood::VonNeumann4`] or [`Neighborhood::Moore8`] stencils: a
//! vertex set with a *deterministically ordered* neighbor list per vertex.
//!
//! # Determinism contract
//!
//! Everything downstream — the spatial `FitnessProvider`, the per-vertex
//! update draws, the rank-sharded distributed runner — iterates neighbors
//! through [`Lattice::neighbor`] in index order `0..degree(v)`. Because
//! that order is a pure function of the topology (the stencil's offset
//! order), payoff accumulation and RNG consumption are schedule-invariant:
//! any thread count, any rank partition, same bits (docs/GRAPH.md).
//!
//! A [`GraphScope`] is the *plan-level* summary of a topology: a tiny
//! `Copy` descriptor that rides inside `engine::GenPlan` (and therefore
//! inside the distributed `Plan` broadcast) without dragging the adjacency
//! data along. The concrete [`Lattice`] lives with the population that
//! owns it; the scope only says how many vertices the plan covers and
//! whether self-play is included.

use serde::{Deserialize, Serialize};

/// Which cells count as neighbours on a [`Lattice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Neighborhood {
    /// The four orthogonally adjacent cells.
    VonNeumann4,
    /// All eight surrounding cells.
    Moore8,
}

impl Neighborhood {
    /// The neighbour offsets `(dx, dy)` in the fixed order payoffs are
    /// accumulated in. The order is part of the determinism contract:
    /// changing it changes f64 rounding and therefore trajectories.
    pub fn offsets(&self) -> &'static [(i64, i64)] {
        match self {
            Neighborhood::VonNeumann4 => &[(0, -1), (0, 1), (-1, 0), (1, 0)],
            Neighborhood::Moore8 => &[
                (-1, -1),
                (0, -1),
                (1, -1),
                (-1, 0),
                (1, 0),
                (-1, 1),
                (0, 1),
                (1, 1),
            ],
        }
    }
}

/// A periodic (torus) `width × height` lattice with a fixed stencil. Cell
/// `i` sits at `(i % width, i / width)` — row-major, like the paper's
/// Fig 2 rasters — and both axes wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lattice {
    /// Columns.
    pub width: usize,
    /// Rows.
    pub height: usize,
    /// Which stencil defines adjacency.
    pub neighborhood: Neighborhood,
}

impl Lattice {
    /// A torus lattice. Both dimensions must be ≥ 3 so the stencil never
    /// wraps onto the focal cell or counts a neighbour twice.
    pub fn new(width: usize, height: usize, neighborhood: Neighborhood) -> Self {
        assert!(width >= 3 && height >= 3, "lattice must be at least 3×3");
        Lattice {
            width,
            height,
            neighborhood,
        }
    }

    /// Row-major cell index of torus coordinates `(x, y)` (any integers;
    /// both axes wrap).
    pub fn index(&self, x: i64, y: i64) -> usize {
        let w = self.width as i64;
        let h = self.height as i64;
        let xi = x.rem_euclid(w);
        let yi = y.rem_euclid(h);
        (yi * w + xi) as usize
    }

    /// The `(x, y)` coordinates of cell `i`.
    pub fn coords(&self, i: usize) -> (usize, usize) {
        (i % self.width, i / self.width)
    }

    /// The row (y coordinate) of cell `i` — the unit the distributed
    /// backend shards by.
    pub fn row_of(&self, i: usize) -> usize {
        i / self.width
    }

    /// Number of cells.
    #[allow(clippy::len_without_is_empty)] // `new` rejects anything below 3×3
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Number of neighbours of cell `v` (the stencil size).
    pub fn degree(&self, _v: usize) -> usize {
        self.neighborhood.offsets().len()
    }

    /// The `k`-th neighbour of `v` in stencil offset order,
    /// `k < degree(v)`. A pure function of the topology.
    pub fn neighbor(&self, v: usize, k: usize) -> usize {
        let (x, y) = self.coords(v);
        let (dx, dy) = self.neighborhood.offsets()[k];
        self.index(x as i64 + dx, y as i64 + dy)
    }

    /// The neighbours of `v` in stencil offset order, materialised.
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        (0..self.degree(v)).map(|k| self.neighbor(v, k)).collect()
    }
}

/// Plan-level descriptor of a neighbourhood evaluation: how many vertices
/// the generation covers and whether each vertex additionally plays
/// itself. `Copy` + `Eq` so `GenPlan` stays broadcastable by value; the
/// adjacency itself never travels with the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphScope {
    /// Vertex count of the topology the plan evaluates over.
    pub vertices: u32,
    /// Whether each vertex also accumulates a self-play payoff
    /// (Nowak–May's convention includes it).
    pub include_self: bool,
}

impl GraphScope {
    /// The scope describing one generation over `lattice`.
    pub fn of(lattice: &Lattice, include_self: bool) -> Self {
        GraphScope {
            vertices: lattice.len() as u32,
            include_self,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_neighbor_counts_match_stencil() {
        let vn = Lattice::new(5, 4, Neighborhood::VonNeumann4);
        let mo = Lattice::new(5, 4, Neighborhood::Moore8);
        for v in 0..vn.len() {
            assert_eq!(vn.degree(v), 4);
            assert_eq!(mo.degree(v), 8);
            assert_eq!(vn.neighbors(v).len(), 4);
        }
    }

    #[test]
    fn lattice_wraps_on_both_axes() {
        let l = Lattice::new(4, 3, Neighborhood::VonNeumann4);
        // Cell 0 is (0, 0); its left neighbour wraps to x = 3, its up
        // neighbour wraps to y = 2.
        let n = l.neighbors(0);
        assert!(n.contains(&l.index(3, 0)), "left wrap");
        assert!(n.contains(&l.index(0, 2)), "up wrap");
        assert_eq!(l.index(-1, -1), l.index(3, 2));
    }

    #[test]
    fn lattice_neighbors_follow_offset_order() {
        let l = Lattice::new(5, 5, Neighborhood::Moore8);
        let v = l.index(2, 2);
        let expect: Vec<usize> = l
            .neighborhood
            .offsets()
            .iter()
            .map(|&(dx, dy)| l.index(2 + dx, 2 + dy))
            .collect();
        assert_eq!(l.neighbors(v), expect);
    }

    #[test]
    fn graph_scope_summarises_a_view() {
        let l = Lattice::new(3, 3, Neighborhood::VonNeumann4);
        let s = GraphScope::of(&l, true);
        assert_eq!(s.vertices, 9);
        assert!(s.include_self);
    }

    #[test]
    fn graph_scope_serde_roundtrip() {
        let s = GraphScope {
            vertices: 64,
            include_self: false,
        };
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<GraphScope>(&json).unwrap(), s);
    }
}
