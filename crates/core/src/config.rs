//! Typed runtime configuration: every `QDP_*` knob in one place.
//!
//! [`QdpConfig::from_env`] is the only code in the workspace's libraries
//! that reads a `QDP_*` runtime variable (`ci.sh` enforces it): capture
//! the environment **once** at `main`, or build a config programmatically
//! — the subsystems (`qdp-ptx`, `qdp-jit`, `qdp-telemetry`, `qdp-comm`,
//! embedders like `qdp-serve`) take typed values and never touch raw env
//! vars. A context is then brought up through [`QdpContext::builder`].
//!
//! | env var                | field / knob                         |
//! |------------------------|--------------------------------------|
//! | `QDP_OPT`              | [`QdpConfig::opt_level`]             |
//! | `QDP_FUSE`             | [`QdpConfig::fuse`] (`0` = group budget 1) |
//! | `QDP_COMM_TIMEOUT_MS`  | [`QdpConfig::comm_timeout_ms`]       |
//! | `QDP_FAULT`            | [`QdpConfig::fault`]                 |
//! | `QDP_CHECKPOINT_DIR`   | [`QdpConfig::checkpoint_dir`]        |
//! | `QDP_CACHE_DIR`/`_CLEAR`| [`QdpConfig::store`]                |
//! | `QDP_PROFILE` & friends| [`QdpConfig::telemetry`]             |

use crate::context::QdpContext;
use qdp_comm::FaultPlan;
use qdp_gpu_sim::DeviceConfig;
use qdp_jit::{KernelStore, StoreConfig};
use qdp_layout::{Geometry, LayoutKind};
use qdp_ptx::opt::OptLevel;
use qdp_telemetry::{Telemetry, TelemetryConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// The consolidated runtime configuration. Field defaults match the
/// historical unset-environment behaviour exactly.
#[derive(Debug, Clone)]
pub struct QdpConfig {
    /// Kernel optimizer level (`QDP_OPT`; default on).
    pub opt_level: OptLevel,
    /// Whether `ctx.deferred()` scopes fuse (`QDP_FUSE`; default on). Off
    /// is a group budget of 1 on the same planner: one launch per recorded
    /// statement and per reduction temporary.
    pub fuse: bool,
    /// Per-message receive deadline for the virtual cluster
    /// (`QDP_COMM_TIMEOUT_MS`; default 5000).
    pub comm_timeout_ms: u64,
    /// Rank-failure injection plan (`QDP_FAULT`; default empty).
    pub fault: FaultPlan,
    /// Trajectory checkpoint directory (`QDP_CHECKPOINT_DIR`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Persistent kernel store (`QDP_CACHE_DIR` / `QDP_CACHE_CLEAR`;
    /// default: no persistence).
    pub store: StoreConfig,
    /// Telemetry switches (`QDP_PROFILE` / `QDP_ROOFLINE` / `QDP_TRACE` /
    /// `QDP_FLIGHT*`; default: flight recorder only).
    pub telemetry: TelemetryConfig,
}

impl Default for QdpConfig {
    fn default() -> QdpConfig {
        QdpConfig {
            opt_level: OptLevel::Default,
            fuse: true,
            comm_timeout_ms: 5000,
            fault: FaultPlan::new(),
            checkpoint_dir: None,
            store: StoreConfig::new(),
            telemetry: TelemetryConfig::new(),
        }
    }
}

impl QdpConfig {
    /// The defaults (identical to an empty environment).
    pub fn new() -> QdpConfig {
        QdpConfig::default()
    }

    /// Capture every `QDP_*` runtime knob from the environment, once.
    /// Processes that want env-driven behaviour call this at startup and
    /// pass the result around; nothing else reads the environment.
    pub fn from_env() -> QdpConfig {
        let var = |name: &str| std::env::var(name).ok();
        let on_unless_zero = |name: &str| var(name).map_or(true, |v| v != "0");
        let truthy =
            |name: &str| matches!(var(name).as_deref(), Some("1" | "true" | "yes" | "on"));
        let falsy =
            |name: &str| matches!(var(name).as_deref(), Some("0" | "false" | "no" | "off"));
        let path = |name: &str| var(name).filter(|p| !p.is_empty()).map(PathBuf::from);
        QdpConfig {
            opt_level: var("QDP_OPT").map_or(OptLevel::Default, |v| OptLevel::parse(&v)),
            fuse: on_unless_zero("QDP_FUSE"),
            comm_timeout_ms: var("QDP_COMM_TIMEOUT_MS")
                .and_then(|v| v.parse().ok())
                .unwrap_or(5000),
            fault: var("QDP_FAULT").map_or_else(FaultPlan::new, |s| FaultPlan::parse(&s)),
            checkpoint_dir: path("QDP_CHECKPOINT_DIR"),
            store: StoreConfig {
                dir: path("QDP_CACHE_DIR"),
                clear: truthy("QDP_CACHE_CLEAR"),
            },
            telemetry: TelemetryConfig {
                profile: truthy("QDP_PROFILE"),
                roofline: truthy("QDP_ROOFLINE"),
                trace_path: path("QDP_TRACE"),
                flight: !falsy("QDP_FLIGHT"),
                flight_cap: var("QDP_FLIGHT_CAP").and_then(|v| v.parse().ok()),
                flight_dir: path("QDP_FLIGHT_DIR"),
            },
        }
    }

    /// The fault plan with this config's comm deadline applied — what a
    /// cluster run should be handed.
    pub fn fault_plan(&self) -> FaultPlan {
        self.fault.clone().deadline_ms(self.comm_timeout_ms)
    }
}

/// Builder for a [`QdpContext`]: geometry is mandatory (constructor
/// argument), everything else defaults to the paper's benchmark setup
/// (K20x, ECC off, SoA layout) under a default [`QdpConfig`].
///
/// ```
/// use qdp_core::prelude::*;
///
/// let ctx = QdpContext::builder(Geometry::symmetric(4))
///     .opt_level(OptLevel::Aggressive)
///     .fuse(false)
///     .build();
/// assert_eq!(ctx.opt_level(), OptLevel::Aggressive);
/// ```
pub struct QdpContextBuilder {
    geometry: Geometry,
    device: DeviceConfig,
    layout: LayoutKind,
    config: QdpConfig,
    telemetry: Option<Arc<Telemetry>>,
    store: Option<Option<Arc<KernelStore>>>,
}

impl QdpContextBuilder {
    pub(crate) fn new(geometry: Geometry) -> QdpContextBuilder {
        QdpContextBuilder {
            geometry,
            device: DeviceConfig::k20x_ecc_off(),
            layout: LayoutKind::SoA,
            config: QdpConfig::new(),
            telemetry: None,
            store: None,
        }
    }

    /// Simulated device model (default: K20x, ECC off).
    pub fn device(mut self, cfg: DeviceConfig) -> Self {
        self.device = cfg;
        self
    }

    /// Data layout (default: coalesced SoA).
    pub fn layout(mut self, layout: LayoutKind) -> Self {
        self.layout = layout;
        self
    }

    /// Replace the whole config (e.g. `QdpConfig::from_env()`); individual
    /// knob methods called afterwards still apply on top.
    pub fn config(mut self, config: QdpConfig) -> Self {
        self.config = config;
        self
    }

    /// Kernel optimizer level.
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.config.opt_level = level;
        self
    }

    /// Enable/disable fusion of deferred scopes.
    pub fn fuse(mut self, on: bool) -> Self {
        self.config.fuse = on;
        self
    }

    /// Persist compiled kernels + tuner state into `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.store.dir = Some(dir.into());
        self
    }

    /// Per-message receive deadline for cluster communication.
    pub fn comm_timeout_ms(mut self, ms: u64) -> Self {
        self.config.comm_timeout_ms = ms;
        self
    }

    /// Trajectory checkpoint directory.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.checkpoint_dir = Some(dir.into());
        self
    }

    /// Telemetry switches (profiling, tracing, roofline, flight recorder).
    pub fn telemetry_config(mut self, cfg: TelemetryConfig) -> Self {
        self.config.telemetry = cfg;
        self
    }

    /// Inject an already-built telemetry registry (tests). Wins over
    /// [`QdpContextBuilder::telemetry_config`].
    pub fn telemetry(mut self, tel: Arc<Telemetry>) -> Self {
        self.telemetry = Some(tel);
        self
    }

    /// Inject an already-open kernel store, or `None` to force persistence
    /// off (tests). Wins over [`QdpContextBuilder::cache_dir`].
    pub fn kernel_store(mut self, store: Option<Arc<KernelStore>>) -> Self {
        self.store = Some(store);
        self
    }

    /// Bring up the context.
    pub fn build(self) -> Arc<QdpContext> {
        let telemetry = self
            .telemetry
            .unwrap_or_else(|| Arc::new(Telemetry::with_config(&self.config.telemetry)));
        let store = match self.store {
            Some(explicit) => explicit,
            None => KernelStore::from_config(
                &self.config.store,
                &self.device.fingerprint(),
                &telemetry,
            ),
        };
        QdpContext::assemble(
            self.device,
            self.geometry,
            self.layout,
            telemetry,
            store,
            self.config,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_unset_environment() {
        let cfg = QdpConfig::new();
        assert_eq!(cfg.opt_level, OptLevel::Default);
        assert!(cfg.fuse);
        assert_eq!(cfg.comm_timeout_ms, 5000);
        assert!(cfg.fault.is_empty());
        assert!(cfg.checkpoint_dir.is_none());
        assert_eq!(cfg.store, StoreConfig::new());
        assert_eq!(cfg.telemetry, TelemetryConfig::new());
    }

    #[test]
    fn fault_plan_carries_comm_deadline() {
        let mut cfg = QdpConfig::new();
        cfg.comm_timeout_ms = 123;
        assert_eq!(cfg.fault_plan().effective_deadline_ms(), 123);
    }

    #[test]
    fn builder_knobs_land_in_context() {
        let ctx = QdpContext::builder(Geometry::symmetric(2))
            .opt_level(OptLevel::None)
            .fuse(false)
            .comm_timeout_ms(77)
            .build();
        assert_eq!(ctx.opt_level(), OptLevel::None);
        assert!(!ctx.config().fuse);
        assert_eq!(ctx.config().comm_timeout_ms, 77);
        assert!(ctx.kernel_store().is_none());
    }

    #[test]
    fn builder_cache_dir_opens_store() {
        let dir = std::env::temp_dir().join(format!(
            "qdp_builder_store_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let ctx = QdpContext::builder(Geometry::symmetric(2))
            .cache_dir(&dir)
            .build();
        let store = ctx.kernel_store().expect("cache_dir must open a store");
        assert!(store.file_path().starts_with(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn opt_level_override_still_wins_over_config() {
        let ctx = QdpContext::builder(Geometry::symmetric(2))
            .opt_level(OptLevel::Aggressive)
            .build();
        ctx.set_opt_level(Some(OptLevel::None));
        assert_eq!(ctx.opt_level(), OptLevel::None);
        ctx.set_opt_level(None);
        assert_eq!(ctx.opt_level(), OptLevel::Aggressive);
    }
}
