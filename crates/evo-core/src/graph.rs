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
//! through [`Lattice::stencil`] (one slot: [`Lattice::neighbor`]) in index
//! order `0..degree(v)`. Because
//! that order is a pure function of the topology (the stencil's offset
//! order), payoff accumulation and RNG consumption are schedule-invariant:
//! any thread count, any rank partition, same bits (docs/GRAPH.md).
//!
//! A [`GraphScope`] is the *plan-level* summary of a topology: a tiny
//! `Copy` descriptor that rides inside `engine::GenPlan` without dragging
//! the adjacency data along. The concrete [`Lattice`] lives with the
//! population that owns it; the scope only says how many vertices the plan
//! covers and whether self-play is included. A distributed rank derives
//! it from its own copy of the lattice, so no plan travels.

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
    /// changing it changes f64 rounding and therefore trajectories. Every
    /// component is -1, 0 or 1: [`Lattice::stencil`] wraps by compare, not
    /// by division, and relies on it.
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
        self.offset(x, y, self.neighborhood.offsets()[k])
    }

    /// The neighbours of `v` in stencil offset order — the order every
    /// payoff sum and update walks. `v`'s coordinates are found once and
    /// each offset wraps with a compare, so the walk divides once, not
    /// twice per neighbour.
    #[inline]
    pub fn stencil(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        let (x, y) = self.coords(v);
        self.neighborhood.offsets().iter().map(move |&d| self.offset(x, y, d))
    }

    /// The neighbours of `v` in stencil offset order, materialised.
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        self.stencil(v).collect()
    }

    /// The cell one stencil offset `(dx, dy)` away from `(x, y)`.
    #[inline]
    fn offset(&self, x: usize, y: usize, (dx, dy): (i64, i64)) -> usize {
        step(y, dy, self.height) * self.width + step(x, dx, self.width)
    }
}

/// Coordinate `c` moved by `d` ∈ {-1, 0, 1} along an axis of `n` cells
/// that wraps ([`Neighborhood::offsets`] never steps further).
#[inline]
fn step(c: usize, d: i64, n: usize) -> usize {
    if d < 0 {
        if c == 0 {
            n - 1
        } else {
            c - 1
        }
    } else if d > 0 {
        if c + 1 == n {
            0
        } else {
            c + 1
        }
    } else {
        c
    }
}

/// Plan-level descriptor of a neighbourhood evaluation: how many vertices
/// the generation covers and whether each vertex additionally plays
/// itself. `Copy` + `Eq`, so a `GenPlan` holding it is a plain value; the
/// adjacency itself stays with the lattice.
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

    /// The compare-wrapped walk against the `rem_euclid` formula it
    /// replaced (`index(x + dx, y + dy)`), for every cell and stencil slot
    /// of square, wide and tall tori down to the 3-cell minimum, where
    /// every border cell wraps.
    #[test]
    fn stencil_equals_the_rem_euclid_formula() {
        for neighborhood in [Neighborhood::Moore8, Neighborhood::VonNeumann4] {
            assert!(
                neighborhood.offsets().iter().all(|&(dx, dy)| dx.abs() <= 1 && dy.abs() <= 1),
                "{neighborhood:?}: an offset beyond ±1 breaks the compare wrap"
            );
            for (w, h) in [(3, 3), (3, 7), (7, 3), (12, 12), (128, 128)] {
                let l = Lattice::new(w, h, neighborhood);
                for v in 0..l.len() {
                    let (x, y) = (v % w, v / w);
                    let oracle: Vec<usize> = neighborhood
                        .offsets()
                        .iter()
                        .map(|&(dx, dy)| l.index(x as i64 + dx, y as i64 + dy))
                        .collect();
                    assert_eq!(l.stencil(v).collect::<Vec<_>>(), oracle, "{neighborhood:?} {w}×{h} cell {v}");
                    assert_eq!(l.neighbors(v), oracle, "{neighborhood:?} {w}×{h} cell {v}");
                    for (k, &want) in oracle.iter().enumerate() {
                        assert_eq!(l.neighbor(v, k), want, "{neighborhood:?} {w}×{h} cell {v} slot {k}");
                    }
                }
            }
        }
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
