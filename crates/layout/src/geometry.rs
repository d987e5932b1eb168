//! Hypercubic lattice geometry: coordinates, parities, neighbours, faces.

use crate::ND;

/// Direction of a shift operation (paper §II-C: displace grid points in the
/// specified dimension and direction by one grid point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// `shift(phi, mu, FORWARD)`: the value at `x` becomes `phi(x + µ̂)`.
    Forward,
    /// `shift(phi, mu, BACKWARD)`: the value at `x` becomes `phi(x − µ̂)`.
    Backward,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::Forward => Dir::Backward,
            Dir::Backward => Dir::Forward,
        }
    }

    /// Index 0 (forward) / 1 (backward) for table lookups.
    pub fn index(self) -> usize {
        match self {
            Dir::Forward => 0,
            Dir::Backward => 1,
        }
    }
}

/// One entry of a neighbour table. Local neighbours store the site index
/// directly; off-node neighbours (multi-rank runs) store an index into the
/// receive buffer for the corresponding face, tagged with a flag bit. The
/// generated kernels turn the flag into a branch-free `selp` between the
/// field base pointer and the receive-buffer base pointer (§V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborEntry(pub u32);

impl NeighborEntry {
    /// Flag bit marking an off-node neighbour.
    pub const REMOTE_FLAG: u32 = 1 << 31;

    /// A local neighbour at `site`.
    pub fn local(site: usize) -> Self {
        debug_assert!((site as u32) < Self::REMOTE_FLAG);
        NeighborEntry(site as u32)
    }

    /// An off-node neighbour at position `slot` in the receive buffer.
    pub fn remote(slot: usize) -> Self {
        debug_assert!((slot as u32) < Self::REMOTE_FLAG);
        NeighborEntry(slot as u32 | Self::REMOTE_FLAG)
    }

    /// Is this entry off-node?
    #[cfg(test)]
    fn is_remote(self) -> bool {
        self.0 & Self::REMOTE_FLAG != 0
    }

    /// The index (site or receive-buffer slot) without the flag.
    pub fn index(self) -> usize {
        (self.0 & !Self::REMOTE_FLAG) as usize
    }
}

/// Geometry of one rank's sub-grid: an `ND`-dimensional hypercubic lattice
/// with lexicographic site ordering (`x` fastest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Geometry {
    dims: [usize; ND],
    vol: usize,
}

impl Geometry {
    /// Create from per-dimension extents. All extents must be ≥ 1; at least
    /// one must be > 1 for a meaningful lattice.
    pub fn new(dims: [usize; ND]) -> Geometry {
        assert!(dims.iter().all(|&d| d >= 1), "extent must be >= 1");
        let vol = dims.iter().product();
        assert!(vol > 0 && vol < (1usize << 31), "volume out of range");
        Geometry { dims, vol }
    }

    /// Symmetric lattice `L^4` (the paper's benchmark volumes `V = L^4`).
    pub fn symmetric(l: usize) -> Geometry {
        Geometry::new([l; ND])
    }

    /// Per-dimension extents.
    pub fn dims(&self) -> [usize; ND] {
        self.dims
    }

    /// Number of sites.
    pub fn vol(&self) -> usize {
        self.vol
    }

    /// Coordinate of a lexicographic site index (`x` fastest).
    pub fn coord_of(&self, mut idx: usize) -> [usize; ND] {
        debug_assert!(idx < self.vol);
        let mut c = [0usize; ND];
        for mu in 0..ND {
            c[mu] = idx % self.dims[mu];
            idx /= self.dims[mu];
        }
        c
    }

    /// Lexicographic site index of a coordinate.
    pub fn index_of(&self, c: [usize; ND]) -> usize {
        let mut idx = 0usize;
        for mu in (0..ND).rev() {
            debug_assert!(c[mu] < self.dims[mu]);
            idx = idx * self.dims[mu] + c[mu];
        }
        idx
    }

    /// Checkerboard parity of a site: (Σ coords) mod 2.
    pub fn parity(&self, idx: usize) -> usize {
        self.coord_of(idx).iter().sum::<usize>() % 2
    }

    /// Periodic neighbour of `idx` one step in `(mu, dir)`. Returns the
    /// neighbour index and whether the step wrapped around the boundary
    /// (i.e. would be off-node in a multi-rank decomposition along `mu`).
    pub fn neighbor(&self, idx: usize, mu: usize, dir: Dir) -> (usize, bool) {
        let mut c = self.coord_of(idx);
        let l = self.dims[mu];
        let wrapped;
        match dir {
            Dir::Forward => {
                if c[mu] + 1 == l {
                    c[mu] = 0;
                    wrapped = true;
                } else {
                    c[mu] += 1;
                    wrapped = false;
                }
            }
            Dir::Backward => {
                if c[mu] == 0 {
                    c[mu] = l - 1;
                    wrapped = true;
                } else {
                    c[mu] -= 1;
                    wrapped = false;
                }
            }
        }
        (self.index_of(c), wrapped)
    }

    /// The boundary slab read by a shift in `(mu, dir)`: sites whose
    /// neighbour in that direction wraps (is off-node when the lattice is
    /// decomposed along `mu`). For `Forward` this is the `x_mu = L-1` slab,
    /// for `Backward` the `x_mu = 0` slab. Returned in ascending site order.
    pub fn face_sites(&self, mu: usize, dir: Dir) -> Vec<u32> {
        let target = match dir {
            Dir::Forward => self.dims[mu] - 1,
            Dir::Backward => 0,
        };
        (0..self.vol)
            .filter(|&i| self.coord_of(i)[mu] == target)
            .map(|i| i as u32)
            .collect()
    }

    /// Number of sites in one face slab orthogonal to `mu`.
    pub fn face_vol(&self, mu: usize) -> usize {
        self.vol / self.dims[mu]
    }

    /// Position of `site` within the `(mu, dir)` face slab — the slot order
    /// used by gather/scatter kernels and transfer buffers. Sites in a slab
    /// are numbered in ascending site order; this computes the rank of
    /// `site` among its slab without materialising the list.
    pub fn face_slot(&self, mu: usize, site: usize) -> usize {
        // Lexicographic index with dimension `mu` removed.
        let c = self.coord_of(site);
        let mut slot = 0usize;
        for nu in (0..ND).rev() {
            if nu == mu {
                continue;
            }
            slot = slot * self.dims[nu] + c[nu];
        }
        slot
    }

    /// Neighbour table for `(mu, dir)` in single-rank (fully periodic local)
    /// mode: every entry is local.
    pub fn neighbor_table_local(&self, mu: usize, dir: Dir) -> Vec<NeighborEntry> {
        (0..self.vol)
            .map(|i| NeighborEntry::local(self.neighbor(i, mu, dir).0))
            .collect()
    }

    /// Neighbour table for `(mu, dir)` when dimension `mu` is decomposed
    /// across ranks: wrapped neighbours become receive-buffer slots.
    pub fn neighbor_table_remote(&self, mu: usize, dir: Dir) -> Vec<NeighborEntry> {
        (0..self.vol)
            .map(|i| {
                let (n, wrapped) = self.neighbor(i, mu, dir);
                if wrapped {
                    NeighborEntry::remote(self.face_slot(mu, i))
                } else {
                    NeighborEntry::local(n)
                }
            })
            .collect()
    }

    /// Sites *not* on any of the given faces — the "inner sites" whose
    /// evaluation can proceed while face data is in flight (§V).
    pub fn inner_sites(&self, faces: &[(usize, Dir)]) -> Vec<u32> {
        (0..self.vol)
            .filter(|&i| {
                let c = self.coord_of(i);
                !faces.iter().any(|&(mu, dir)| {
                    let target = match dir {
                        Dir::Forward => self.dims[mu] - 1,
                        Dir::Backward => 0,
                    };
                    c[mu] == target
                })
            })
            .map(|i| i as u32)
            .collect()
    }

    /// Union of the given face slabs, deduplicated, ascending.
    pub fn face_union(&self, faces: &[(usize, Dir)]) -> Vec<u32> {
        (0..self.vol)
            .filter(|&i| {
                let c = self.coord_of(i);
                faces.iter().any(|&(mu, dir)| {
                    let target = match dir {
                        Dir::Forward => self.dims[mu] - 1,
                        Dir::Backward => 0,
                    };
                    c[mu] == target
                })
            })
            .map(|i| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_roundtrip() {
        let g = Geometry::new([4, 3, 2, 5]);
        for i in 0..g.vol() {
            assert_eq!(g.index_of(g.coord_of(i)), i);
        }
    }

    #[test]
    fn volume() {
        assert_eq!(Geometry::symmetric(4).vol(), 256);
        assert_eq!(Geometry::new([40, 40, 40, 256]).vol(), 40 * 40 * 40 * 256);
    }

    #[test]
    fn neighbor_is_involutive() {
        let g = Geometry::new([4, 4, 2, 3]);
        for i in 0..g.vol() {
            for mu in 0..ND {
                let (f, _) = g.neighbor(i, mu, Dir::Forward);
                let (b, _) = g.neighbor(f, mu, Dir::Backward);
                assert_eq!(b, i);
            }
        }
    }

    #[test]
    fn neighbor_wrap_detection() {
        let g = Geometry::new([4, 4, 4, 4]);
        let origin = g.index_of([0, 0, 0, 0]);
        let (n, wrapped) = g.neighbor(origin, 0, Dir::Backward);
        assert!(wrapped);
        assert_eq!(g.coord_of(n)[0], 3);
        let (_, wrapped2) = g.neighbor(origin, 0, Dir::Forward);
        assert!(!wrapped2);
    }

    #[test]
    fn parity_alternates_along_axes() {
        let g = Geometry::symmetric(4);
        for i in 0..g.vol() {
            for mu in 0..ND {
                let (n, _) = g.neighbor(i, mu, Dir::Forward);
                assert_ne!(g.parity(i), g.parity(n));
            }
        }
    }

    #[test]
    fn face_sites_counts_and_content() {
        let g = Geometry::new([4, 3, 2, 5]);
        for mu in 0..ND {
            let fwd = g.face_sites(mu, Dir::Forward);
            let bwd = g.face_sites(mu, Dir::Backward);
            assert_eq!(fwd.len(), g.face_vol(mu));
            assert_eq!(bwd.len(), g.face_vol(mu));
            for &s in &fwd {
                assert_eq!(g.coord_of(s as usize)[mu], g.dims()[mu] - 1);
            }
            for &s in &bwd {
                assert_eq!(g.coord_of(s as usize)[mu], 0);
            }
        }
    }

    #[test]
    fn face_slot_is_dense_and_ordered() {
        let g = Geometry::new([4, 3, 2, 5]);
        for mu in 0..ND {
            for dir in [Dir::Forward, Dir::Backward] {
                let face = g.face_sites(mu, dir);
                let slots: Vec<usize> =
                    face.iter().map(|&s| g.face_slot(mu, s as usize)).collect();
                // slots are exactly 0..face_vol in ascending order
                assert_eq!(slots, (0..g.face_vol(mu)).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn neighbor_table_remote_flags_face_only() {
        let g = Geometry::new([4, 4, 4, 4]);
        let mu = 2;
        let tbl = g.neighbor_table_remote(mu, Dir::Forward);
        for (i, e) in tbl.iter().enumerate() {
            let on_face = g.coord_of(i)[mu] == 3;
            assert_eq!(e.is_remote(), on_face, "site {i}");
            if on_face {
                assert_eq!(e.index(), g.face_slot(mu, i));
            } else {
                assert_eq!(e.index(), g.neighbor(i, mu, Dir::Forward).0);
            }
        }
    }

    #[test]
    fn inner_face_partition_is_exact() {
        let g = Geometry::new([4, 4, 4, 4]);
        let faces = [(0, Dir::Forward), (1, Dir::Backward)];
        let inner = g.inner_sites(&faces);
        let face = g.face_union(&faces);
        assert_eq!(inner.len() + face.len(), g.vol());
        let mut all: Vec<u32> = inner.iter().chain(face.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..g.vol() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn neighbor_entry_encoding() {
        let l = NeighborEntry::local(12345);
        assert!(!l.is_remote());
        assert_eq!(l.index(), 12345);
        let r = NeighborEntry::remote(77);
        assert!(r.is_remote());
        assert_eq!(r.index(), 77);
    }
}
