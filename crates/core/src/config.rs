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
//! | `QDP_OPT`              | [`QdpConfig::opt_level`] (`0` = off, else on) |
//! | `QDP_FUSE`             | [`QdpConfig::fuse`] (`0` = group budget 1) |
//! | `QDP_FAULT`            | [`QdpConfig::fault`]                 |
//! | `QDP_CHECKPOINT_DIR`   | [`QdpConfig::checkpoint_dir`]        |
//! | `QDP_CACHE_DIR`        | [`QdpConfig::cache_dir`]             |
//! | `QDP_PROFILE`, `QDP_TRACE`, `QDP_FLIGHT_DIR` | [`QdpConfig::telemetry`] |

use crate::context::QdpContext;
use qdp_comm::FaultPlan;
use qdp_gpu_sim::DeviceConfig;
use qdp_jit::KernelStore;
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
    /// statement and per reduction.
    pub fuse: bool,
    /// Rank-failure injection plan (`QDP_FAULT`; default empty).
    pub fault: FaultPlan,
    /// Trajectory checkpoint directory (`QDP_CHECKPOINT_DIR`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Persistent kernel store directory (`QDP_CACHE_DIR`; default: no
    /// persistence). Persistence is on exactly when a directory is set.
    pub cache_dir: Option<PathBuf>,
    /// Telemetry switches (`QDP_PROFILE` / `QDP_TRACE` /
    /// `QDP_FLIGHT_DIR`; default: flight recorder only).
    pub telemetry: TelemetryConfig,
}

impl Default for QdpConfig {
    fn default() -> QdpConfig {
        QdpConfig {
            opt_level: OptLevel::Default,
            fuse: true,
            fault: FaultPlan::new(),
            checkpoint_dir: None,
            cache_dir: None,
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
        let path = |name: &str| var(name).filter(|p| !p.is_empty()).map(PathBuf::from);
        QdpConfig {
            opt_level: if on_unless_zero("QDP_OPT") {
                OptLevel::Default
            } else {
                OptLevel::None
            },
            fuse: on_unless_zero("QDP_FUSE"),
            fault: var("QDP_FAULT").map_or_else(FaultPlan::new, |s| FaultPlan::parse(&s)),
            checkpoint_dir: path("QDP_CHECKPOINT_DIR"),
            cache_dir: path("QDP_CACHE_DIR"),
            telemetry: TelemetryConfig {
                profile: truthy("QDP_PROFILE"),
                trace_path: path("QDP_TRACE"),
                flight_dir: path("QDP_FLIGHT_DIR"),
            },
        }
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
///     .opt_level(OptLevel::None)
///     .fuse(false)
///     .build();
/// assert_eq!(ctx.opt_level(), OptLevel::None);
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
        self.config.cache_dir = Some(dir.into());
        self
    }

    /// Trajectory checkpoint directory.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.checkpoint_dir = Some(dir.into());
        self
    }

    /// Inject an already-built telemetry registry (tests). Wins over
    /// [`QdpConfig::telemetry`].
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
            None => self.config.cache_dir.as_ref().map(|dir| {
                KernelStore::open(dir, &self.device.fingerprint(), Arc::clone(&telemetry))
            }),
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
        assert!(cfg.fault.is_empty());
        assert!(cfg.checkpoint_dir.is_none());
        assert!(cfg.cache_dir.is_none());
        assert_eq!(cfg.telemetry, TelemetryConfig::new());
    }

    #[test]
    fn builder_knobs_land_in_context() {
        let ctx = QdpContext::builder(Geometry::symmetric(2))
            .opt_level(OptLevel::None)
            .fuse(false)
            .build();
        assert_eq!(ctx.opt_level(), OptLevel::None);
        assert!(!ctx.config().fuse);
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
        assert_eq!(ctx.config().cache_dir.as_deref(), Some(dir.as_path()));
        let store = ctx.kernel_store().expect("cache_dir must open a store");
        assert!(store.file_path().starts_with(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn opt_level_knob_still_wins_over_config() {
        let mut cfg = QdpConfig::new();
        cfg.opt_level = OptLevel::None;
        let ctx = QdpContext::builder(Geometry::symmetric(2))
            .config(cfg)
            .opt_level(OptLevel::Default)
            .build();
        assert_eq!(ctx.opt_level(), OptLevel::Default);
    }
}
