//! Decomposition of the global lattice over MPI ranks (paper §II-B: "each
//! node (or rank) maintains a sub-grid of the global lattice").

use crate::geometry::{Dir, Geometry};
use crate::ND;

/// A Cartesian decomposition of a global lattice over a rank grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    global: [usize; ND],
    ranks: [usize; ND],
    local: [usize; ND],
}

impl Decomposition {
    /// Decompose `global` over a `ranks` Cartesian grid. Every global extent
    /// must divide evenly.
    pub fn new(global: [usize; ND], ranks: [usize; ND]) -> Decomposition {
        let mut local = [0usize; ND];
        for mu in 0..ND {
            assert!(ranks[mu] >= 1, "rank grid extent must be >= 1");
            assert!(
                global[mu] % ranks[mu] == 0,
                "global extent {} not divisible by rank grid {} in dim {}",
                global[mu],
                ranks[mu],
                mu
            );
            local[mu] = global[mu] / ranks[mu];
        }
        Decomposition {
            global,
            ranks,
            local,
        }
    }

    /// Single-rank decomposition.
    pub fn single(global: [usize; ND]) -> Decomposition {
        Decomposition::new(global, [1; ND])
    }

    /// Total number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.ranks.iter().product()
    }

    /// Global lattice extents.
    pub fn global_dims(&self) -> [usize; ND] {
        self.global
    }

    /// Rank-grid extents.
    pub fn rank_dims(&self) -> [usize; ND] {
        self.ranks
    }

    /// Per-rank sub-grid geometry (identical for all ranks).
    pub fn local_geometry(&self) -> Geometry {
        Geometry::new(self.local)
    }

    /// Cartesian coordinate of a rank (lexicographic, dim 0 fastest).
    pub fn rank_coord(&self, mut rank: usize) -> [usize; ND] {
        debug_assert!(rank < self.n_ranks());
        let mut c = [0usize; ND];
        for mu in 0..ND {
            c[mu] = rank % self.ranks[mu];
            rank /= self.ranks[mu];
        }
        c
    }

    /// Rank id of a rank-grid coordinate.
    pub fn rank_of_coord(&self, c: [usize; ND]) -> usize {
        let mut r = 0usize;
        for mu in (0..ND).rev() {
            debug_assert!(c[mu] < self.ranks[mu]);
            r = r * self.ranks[mu] + c[mu];
        }
        r
    }

    /// Neighbouring rank one step in `(mu, dir)` with periodic wrap.
    pub fn neighbor_rank(&self, rank: usize, mu: usize, dir: Dir) -> usize {
        let mut c = self.rank_coord(rank);
        let l = self.ranks[mu];
        c[mu] = match dir {
            Dir::Forward => (c[mu] + 1) % l,
            Dir::Backward => (c[mu] + l - 1) % l,
        };
        self.rank_of_coord(c)
    }

    /// Is dimension `mu` split across more than one rank? (Shifts along
    /// unsplit dimensions never communicate.)
    pub fn is_split(&self, mu: usize) -> bool {
        self.ranks[mu] > 1
    }

    /// Global coordinate of a local site on a given rank.
    pub fn global_coord(&self, rank: usize, local_site: usize) -> [usize; ND] {
        let rc = self.rank_coord(rank);
        let lc = self.local_geometry().coord_of(local_site);
        std::array::from_fn(|mu| rc[mu] * self.local[mu] + lc[mu])
    }

    /// Global checkerboard parity of a local site on a rank — needed so
    /// that even/odd subsets agree across rank boundaries.
    pub fn global_parity(&self, rank: usize, local_site: usize) -> usize {
        self.global_coord(rank, local_site).iter().sum::<usize>() % 2
    }
}

/// One rank's view of an N-rank 4D decomposition: its coordinate in the
/// rank grid plus the precomputed per-face neighbours that halo exchange
/// talks to every `eval`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankGrid {
    decomp: Decomposition,
    rank: usize,
    coord: [usize; ND],
    /// `faces[mu][dir as usize]` — neighbouring rank one step in `(mu, dir)`.
    faces: [[usize; 2]; ND],
}

impl RankGrid {
    pub fn new(decomp: Decomposition, rank: usize) -> RankGrid {
        assert!(rank < decomp.n_ranks(), "rank {rank} out of grid");
        let coord = decomp.rank_coord(rank);
        let faces = std::array::from_fn(|mu| {
            [
                decomp.neighbor_rank(rank, mu, Dir::Forward),
                decomp.neighbor_rank(rank, mu, Dir::Backward),
            ]
        });
        RankGrid {
            decomp,
            rank,
            coord,
            faces,
        }
    }

    pub fn decomp(&self) -> &Decomposition {
        &self.decomp
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This rank's Cartesian coordinate in the rank grid.
    pub fn coord(&self) -> [usize; ND] {
        self.coord
    }

    /// Precomputed face neighbour one step in `(mu, dir)` (self when `mu`
    /// is unsplit).
    pub fn face_neighbor(&self, mu: usize, dir: Dir) -> usize {
        self.faces[mu][match dir {
            Dir::Forward => 0,
            Dir::Backward => 1,
        }]
    }

    /// Which dimensions are split across ranks.
    pub fn split_dims(&self) -> [bool; ND] {
        std::array::from_fn(|mu| self.decomp.is_split(mu))
    }

    /// Number of split dimensions (0 = single-rank in every direction).
    pub fn n_split(&self) -> usize {
        self.split_dims().iter().filter(|&&s| s).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divides_evenly() {
        let d = Decomposition::new([8, 8, 8, 16], [2, 1, 2, 4]);
        assert_eq!(d.local_geometry().dims(), [4, 8, 4, 4]);
        assert_eq!(d.n_ranks(), 16);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_uneven_split() {
        Decomposition::new([6, 4, 4, 4], [4, 1, 1, 1]);
    }

    #[test]
    fn rank_coord_roundtrip() {
        let d = Decomposition::new([8, 8, 8, 8], [2, 2, 2, 2]);
        for r in 0..d.n_ranks() {
            assert_eq!(d.rank_of_coord(d.rank_coord(r)), r);
        }
    }

    #[test]
    fn neighbor_rank_periodic() {
        let d = Decomposition::new([8, 4, 4, 4], [4, 1, 1, 1]);
        assert_eq!(d.neighbor_rank(3, 0, Dir::Forward), 0);
        assert_eq!(d.neighbor_rank(0, 0, Dir::Backward), 3);
        // unsplit dimension: neighbour is self
        assert_eq!(d.neighbor_rank(2, 1, Dir::Forward), 2);
        assert!(!d.is_split(1));
        assert!(d.is_split(0));
    }

    #[test]
    fn global_coords_tile_the_lattice() {
        let d = Decomposition::new([4, 4, 2, 2], [2, 2, 1, 1]);
        let mut seen = std::collections::HashSet::new();
        let lvol = d.local_geometry().vol();
        for r in 0..d.n_ranks() {
            for s in 0..lvol {
                assert!(seen.insert(d.global_coord(r, s)));
            }
        }
        assert_eq!(seen.len(), 4 * 4 * 2 * 2);
    }

    #[test]
    fn rank_grid_faces_match_decomposition() {
        let d = Decomposition::new([8, 8, 8, 8], [2, 2, 2, 2]);
        for r in 0..d.n_ranks() {
            let g = RankGrid::new(d.clone(), r);
            assert_eq!(g.coord(), d.rank_coord(r));
            for mu in 0..ND {
                for dir in [Dir::Forward, Dir::Backward] {
                    assert_eq!(g.face_neighbor(mu, dir), d.neighbor_rank(r, mu, dir));
                }
                // forward/backward are inverse walks
                let fwd = g.face_neighbor(mu, Dir::Forward);
                let back = RankGrid::new(d.clone(), fwd).face_neighbor(mu, Dir::Backward);
                assert_eq!(back, r);
            }
        }
        assert_eq!(RankGrid::new(d, 0).n_split(), 4);
    }

    #[test]
    fn global_parity_consistent_across_boundary() {
        // Neighbouring sites across a rank boundary must have opposite
        // global parity.
        let d = Decomposition::new([4, 4, 4, 4], [2, 1, 1, 1]);
        let g = d.local_geometry();
        // last x-slab of rank 0 is adjacent to first x-slab of rank 1
        for s in g.face_sites(0, Dir::Forward) {
            let c0 = d.global_coord(0, s as usize);
            // corresponding neighbour site on rank 1: x_local = 0, same other coords
            let lc = g.coord_of(s as usize);
            let n_local = g.index_of([0, lc[1], lc[2], lc[3]]);
            let c1 = d.global_coord(1, n_local);
            assert_eq!(c1[0], c0[0] + 1);
            assert_ne!(d.global_parity(0, s as usize), d.global_parity(1, n_local));
        }
    }
}
