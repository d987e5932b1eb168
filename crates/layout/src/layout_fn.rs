//! Data-layout functions mapping `(site, component)` to a linear real-number
//! index (paper §III-B, "JIT Data Views").

/// The two layouts: the paper's coalesced structure-of-arrays layout and the
/// naive array-of-structures layout kept for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LayoutKind {
    /// Structure of arrays — the paper's layout function
    /// `I = comp · IV + iV`: adjacent threads (sites) access adjacent
    /// memory → coalesced.
    #[default]
    SoA,
    /// Array of structures — `I = iV · n_comp + comp`: each thread's
    /// components are contiguous → strided, uncoalesced accesses.
    AoS,
}

/// Concrete layout of one field allocation: layout kind plus the two index
/// domain sizes it needs (`IV` = number of sites, `n_comp = IS·IC·IR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldLayout {
    /// Which layout function.
    pub kind: LayoutKind,
    /// Number of sites in the allocation (`IV`).
    pub n_sites: usize,
    /// Number of real components per site (`IS·IC·IR`).
    pub n_comp: usize,
}

impl FieldLayout {
    /// Build a layout.
    pub fn new(kind: LayoutKind, n_sites: usize, n_comp: usize) -> FieldLayout {
        FieldLayout {
            kind,
            n_sites,
            n_comp,
        }
    }

    /// Total number of reals in the allocation.
    #[inline]
    pub fn n_reals(&self) -> usize {
        self.n_sites * self.n_comp
    }

    /// Linear real index of `(site, comp)`.
    #[inline]
    pub fn real_index(&self, site: usize, comp: usize) -> usize {
        debug_assert!(site < self.n_sites && comp < self.n_comp);
        match self.kind {
            LayoutKind::SoA => comp * self.n_sites + site,
            LayoutKind::AoS => site * self.n_comp + comp,
        }
    }

    /// Stride in reals between consecutive sites at fixed component — 1 for
    /// SoA (coalesced), `n_comp` for AoS. The device performance model uses
    /// this to derive the coalescing efficiency factor.
    #[inline]
    pub fn site_stride(&self) -> usize {
        match self.kind {
            LayoutKind::SoA => 1,
            LayoutKind::AoS => self.n_comp,
        }
    }

    /// Stride in reals between consecutive components at fixed site.
    #[inline]
    #[cfg(test)]
    fn comp_stride(&self) -> usize {
        match self.kind {
            LayoutKind::SoA => self.n_sites,
            LayoutKind::AoS => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soa_matches_paper_formula() {
        // I(iV,iS,iC,iR) = ((iR*IC + iC)*IS + iS)*IV + iV with
        // comp = (iR*IC + iC)*IS + iS.
        let (is, ic, ir) = (4usize, 3usize, 2usize);
        let iv = 100usize;
        let l = FieldLayout::new(LayoutKind::SoA, iv, is * ic * ir);
        for i_r in 0..ir {
            for i_c in 0..ic {
                for i_s in 0..is {
                    for v in [0usize, 1, 57, 99] {
                        let comp = (i_r * ic + i_c) * is + i_s;
                        assert_eq!(l.real_index(v, comp), comp * iv + v);
                    }
                }
            }
        }
    }

    #[test]
    fn layouts_are_bijections() {
        for kind in [LayoutKind::SoA, LayoutKind::AoS] {
            let l = FieldLayout::new(kind, 12, 24);
            let mut seen = vec![false; l.n_reals()];
            for s in 0..12 {
                for c in 0..24 {
                    let i = l.real_index(s, c);
                    assert!(!seen[i], "collision at {i}");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn strides() {
        let soa = FieldLayout::new(LayoutKind::SoA, 64, 24);
        assert_eq!(soa.site_stride(), 1);
        assert_eq!(soa.comp_stride(), 64);
        let aos = FieldLayout::new(LayoutKind::AoS, 64, 24);
        assert_eq!(aos.site_stride(), 24);
        assert_eq!(aos.comp_stride(), 1);
        // consistency with real_index
        assert_eq!(
            soa.real_index(5, 3) + soa.site_stride(),
            soa.real_index(6, 3)
        );
        assert_eq!(
            aos.real_index(5, 3) + aos.comp_stride(),
            aos.real_index(5, 4)
        );
    }
}
