//! Job and tenant descriptions — the serving API's request vocabulary.

use chroma_mini::{CgReport, HmcReport};

/// A tenant: an independent client with its own small lattice state.
/// Tenants share the server's context (JIT cache, persistent kernel store,
/// auto-tuner, device) but never each other's fields.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (used in telemetry counter names).
    pub name: String,
    /// Seed for the tenant's gauge configuration and trajectory RNG.
    pub seed: u64,
    /// Disorder of the warm-start configuration (0 = cold).
    pub warm_eps: f64,
}

impl TenantSpec {
    /// A tenant named `name` with deterministic per-name defaults.
    pub fn new(name: impl Into<String>, seed: u64) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            seed,
            warm_eps: 0.3,
        }
    }
}

/// One independent job request.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Measure the average plaquette of the tenant's configuration.
    Plaquette,
    /// CG solve of `M†M x = b` on the tenant's configuration.
    CgSolve {
        /// Wilson quark mass.
        mass: f64,
        /// Source-noise seed.
        seed: u64,
        /// Relative-residual tolerance.
        tol: f64,
        /// Iteration budget.
        max_iters: u32,
    },
    /// One small HMC trajectory evolving the tenant's configuration.
    HmcTrajectory {
        /// Gauge coupling.
        beta: f64,
        /// MD step size.
        dt: f64,
        /// MD steps per trajectory.
        n_steps: u32,
    },
}

impl JobSpec {
    /// Deficit-round-robin cost weight: roughly proportional to device
    /// work, so a tenant submitting trajectories cannot crowd out a tenant
    /// submitting measurements.
    pub fn cost(&self) -> u64 {
        match self {
            JobSpec::Plaquette => 1,
            JobSpec::CgSolve { .. } => 4,
            JobSpec::HmcTrajectory { .. } => 8,
        }
    }

    /// Short kind label for spans and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Plaquette => "plaquette",
            JobSpec::CgSolve { .. } => "cg_solve",
            JobSpec::HmcTrajectory { .. } => "hmc",
        }
    }
}

/// The answer to a [`JobSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobResult {
    /// Average plaquette.
    Plaquette(f64),
    /// CG solve outcome.
    CgSolve(CgReport),
    /// Trajectory outcome.
    Hmc(HmcReport),
}
