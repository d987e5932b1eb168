//! Trajectory cost accounting: the bridge between the functional HMC and
//! the strong-scaling replays of Figures 7/8.
//!
//! A [`TrajectorySpec`] describes the operation mix of one production HMC
//! trajectory (solver iterations per integrator step, force terms,
//! per-site byte/flop weights of the operations). The benchmark harness
//! replays it through `qdp_comm::MachineModel` for each of the paper's
//! three software configurations.

/// Per-site traffic of the common lattice operations (DP bytes).
pub mod weights {
    /// Wilson dslash: 8 gauge links (18 reals) + 8 neighbour spinors +
    /// 1 output spinor ≈ (8·18 + 9·24) · 8 B.
    pub const DSLASH_BYTES: f64 = ((8 * 18 + 9 * 24) * 8) as f64;
    /// Wilson dslash flops/site (standard count).
    pub const DSLASH_FLOPS: f64 = 1320.0;
    /// Fermion linear-algebra op (axpy-like): 3 spinors.
    pub const LINALG_BYTES: f64 = (3 * 24 * 8) as f64;
    /// axpy flops/site.
    pub const LINALG_FLOPS: f64 = 48.0;
    /// Gauge-force staple computation per link-direction: ~7 links
    /// read + 1 written per staple term, 6 staple terms, 4 dirs.
    pub const GAUGE_FORCE_BYTES: f64 = (4 * 6 * 8 * 18 * 8) as f64;
    /// Gauge-force flops/site.
    pub const GAUGE_FORCE_FLOPS: f64 = 4.0 * 6.0 * 3.0 * 198.0;
    /// Fermion-force outer products per direction: 2 spinors + 1 link
    /// in, 1 link out, 4 dirs.
    pub const FERMION_FORCE_BYTES: f64 = (4 * (2 * 24 + 2 * 18) * 8) as f64;
    /// Fermion-force flops/site.
    pub const FERMION_FORCE_FLOPS: f64 = 4.0 * 600.0;
    /// Halo bytes per face site of a spinor (DP).
    pub const SPINOR_FACE_BYTES: f64 = (24 * 8) as f64;
    /// Clover force per site: the Sheikholeslami–Wohlert force has dozens
    /// of link-products per direction; profiling of production Chroma puts
    /// its traffic near 300 KB/site per evaluation.
    pub const CLOVER_FORCE_BYTES: f64 = 300.0e3;
    /// Miscellaneous lattice expressions per trajectory (energies, link
    /// updates, expm, reunitarisation, monitoring): aggregate traffic.
    pub const MISC_BYTES_PER_SITE: f64 = 18.0e6;
}

/// The operation mix of one HMC trajectory (counts are *per trajectory*).
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectorySpec {
    /// Global lattice volume (sites).
    pub global_volume: usize,
    /// Integrator steps.
    pub md_steps: usize,
    /// Light-quark CG iterations per force evaluation (the dominant
    /// solves; the paper's `m_π ≈ 230 MeV` ensemble is solver-bound).
    pub light_cg_iters: usize,
    /// Strange-quark (rational, multi-shift) iterations per force
    /// evaluation.
    pub strange_cg_iters: usize,
    /// Force evaluations per MD step (integrator dependent).
    pub force_evals_per_step: usize,
    /// Gauge-force passes per trajectory (fine timescale of the
    /// multi-timescale integrator).
    pub gauge_force_passes: usize,
    /// Fermion/clover force passes per trajectory.
    pub fermion_force_passes: usize,
    /// Linear-algebra ops per CG iteration.
    pub linalg_per_iter: usize,
    /// Reductions (norms/inner products) per CG iteration.
    pub reductions_per_iter: usize,
}

impl TrajectorySpec {
    /// The production-run shape the paper benchmarks (V = 40³×256,
    /// 2+1 anisotropic clover, τ = 0.2): numbers chosen to reproduce the
    /// solver-dominated op mix of such an ensemble.
    pub fn production_40x256() -> TrajectorySpec {
        TrajectorySpec {
            global_volume: 40 * 40 * 40 * 256,
            md_steps: 20,
            light_cg_iters: 450,
            strange_cg_iters: 330,
            force_evals_per_step: 4,
            gauge_force_passes: 800,
            fermion_force_passes: 160,
            linalg_per_iter: 3,
            reductions_per_iter: 2,
        }
    }

    /// Total dslash applications in the trajectory (2 per CG iteration for
    /// the normal equations).
    pub fn total_dslash(&self) -> usize {
        let solves = self.md_steps * self.force_evals_per_step;
        2 * solves * (self.light_cg_iters + self.strange_cg_iters)
    }

    /// Total linear-algebra lattice ops.
    pub fn total_linalg(&self) -> usize {
        let solves = self.md_steps * self.force_evals_per_step;
        solves * (self.light_cg_iters + self.strange_cg_iters) * self.linalg_per_iter
    }

    /// Total global reductions.
    pub fn total_reductions(&self) -> usize {
        let solves = self.md_steps * self.force_evals_per_step;
        solves * (self.light_cg_iters + self.strange_cg_iters) * self.reductions_per_iter
    }

    /// Non-solve lattice traffic per site per trajectory (bytes): the part
    /// of the computation that is *not* a linear solve — what the paper's
    /// whole-application port accelerates and the CPU+QUDA configuration
    /// leaves on the CPU (§I, §VIII-D).
    pub fn non_solve_bytes_per_site(&self) -> f64 {
        self.gauge_force_passes as f64 * weights::GAUGE_FORCE_BYTES
            + self.fermion_force_passes as f64
                * (weights::FERMION_FORCE_BYTES + weights::CLOVER_FORCE_BYTES)
            + weights::MISC_BYTES_PER_SITE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_spec_is_solver_dominated() {
        let t = TrajectorySpec::production_40x256();
        assert_eq!(t.global_volume, 16_384_000);
        // tens of thousands of dslash applications per trajectory
        assert!(t.total_dslash() > 30_000);
    }

    #[test]
    fn weights_are_sane() {
        // dslash arithmetic intensity ~ 0.6 flop/byte in DP (Table II says
        // matvec-class kernels sit near 0.5–0.64)
        let ai = weights::DSLASH_FLOPS / weights::DSLASH_BYTES;
        assert!(ai > 0.3 && ai < 0.8, "AI {ai}");
    }
}
