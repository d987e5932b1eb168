//! The QDP-JIT runtime context: device, software cache, kernel cache,
//! auto-tuner, geometry and the device-resident tables (neighbour tables,
//! subset site lists).

use crate::config::{QdpConfig, QdpContextBuilder};
use crate::multinode::MultiRank;
use qdp_gpu_sim::sync::Mutex;
use qdp_cache::MemoryCache;
use qdp_expr::ShiftDir;
use qdp_gpu_sim::{Device, DeviceConfig, DevicePtr, StreamId};
use qdp_jit::{AutoTuner, KernelCache, KernelStore};
use qdp_layout::{Dir, Geometry, LayoutKind, Subset};
use qdp_ptx::opt::OptLevel;
use qdp_telemetry::{ProfileReport, Telemetry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// The runtime context: one per (simulated) GPU.
pub struct QdpContext {
    device: Arc<Device>,
    cache: MemoryCache,
    kernels: KernelCache,
    tuner: AutoTuner,
    geom: Geometry,
    layout: LayoutKind,
    config: QdpConfig,
    nbr_tables: Mutex<HashMap<(usize, ShiftDir, bool), DevicePtr>>,
    subset_tables: Mutex<HashMap<Subset, (DevicePtr, usize)>>,
    execute_payload: AtomicBool,
    opt_override: Mutex<Option<OptLevel>>,
    store: Option<Arc<KernelStore>>,
    /// The rank this context is in a multi-rank run (dangling when it is
    /// the whole machine).
    rank: Mutex<Weak<MultiRank>>,
}

impl QdpContext {
    /// Start building a context over `geom` — the one construction entry
    /// point. Defaults: K20x (ECC off), SoA layout, default [`QdpConfig`]
    /// (no environment is consulted; chain `.config(QdpConfig::from_env())`
    /// for env-driven behaviour).
    pub fn builder(geom: Geometry) -> QdpContextBuilder {
        QdpContextBuilder::new(geom)
    }

    /// Bring up a context on a fresh simulated device, configured from the
    /// environment (`QdpConfig::from_env()` — all `QDP_*` knobs honoured).
    /// Use [`QdpContext::builder`] for environment-free construction.
    pub fn new(cfg: DeviceConfig, geom: Geometry, layout: LayoutKind) -> Arc<QdpContext> {
        QdpContext::builder(geom)
            .device(cfg)
            .layout(layout)
            .config(QdpConfig::from_env())
            .build()
    }

    /// The builder's final assembly step: every construction path funnels
    /// here with all choices already resolved.
    pub(crate) fn assemble(
        cfg: DeviceConfig,
        geom: Geometry,
        layout: LayoutKind,
        telemetry: Arc<Telemetry>,
        store: Option<Arc<KernelStore>>,
        config: QdpConfig,
    ) -> Arc<QdpContext> {
        // Register the registry with the panic hook so a crash anywhere in
        // the stack dumps the flight recorder's black box to disk.
        telemetry.arm_panic_dump();
        let device = Arc::new(Device::with_telemetry(cfg, Arc::clone(&telemetry)));
        let max_block = device.config().max_threads_per_block;
        Arc::new(QdpContext {
            cache: MemoryCache::new(Arc::clone(&device)),
            kernels: KernelCache::with_store(telemetry, store.clone()),
            tuner: AutoTuner::with_store(max_block, store.clone()),
            device,
            geom,
            layout,
            config,
            nbr_tables: Mutex::new(HashMap::new()),
            subset_tables: Mutex::new(HashMap::new()),
            execute_payload: AtomicBool::new(true),
            opt_override: Mutex::new(None),
            store,
            rank: Mutex::new(Weak::new()),
        })
    }

    /// The resolved runtime configuration this context was built with.
    pub fn config(&self) -> &QdpConfig {
        &self.config
    }

    /// The telemetry registry shared by every layer of this context.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.device.telemetry()
    }

    /// Snapshot of everything telemetry has recorded so far (per-kernel
    /// profiles, counters, histograms, span aggregates).
    pub fn profile_report(&self) -> ProfileReport {
        self.telemetry().profile_report()
    }

    /// Roofline view of everything profiled so far: per-kernel arithmetic
    /// intensity and attained-vs-peak rates against this context's device
    /// peaks, each kernel classified memory- or compute-bound.
    pub fn roofline_report(&self) -> qdp_telemetry::RooflineReport {
        qdp_telemetry::RooflineReport::build(&self.profile_report(), &self.device.config().peaks())
    }

    /// Context with the paper's benchmark device (K20x, ECC off) and the
    /// coalesced SoA layout.
    pub fn k20x(geom: Geometry) -> Arc<QdpContext> {
        QdpContext::new(DeviceConfig::k20x_ecc_off(), geom, LayoutKind::SoA)
    }

    /// The simulated device.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The software memory cache (paper §IV).
    pub fn cache(&self) -> &MemoryCache {
        &self.cache
    }

    /// The JIT kernel cache (paper §III-D).
    pub fn kernels(&self) -> &KernelCache {
        &self.kernels
    }

    /// The block-size auto-tuner (paper §VII).
    pub fn tuner(&self) -> &AutoTuner {
        &self.tuner
    }

    /// The persistent kernel store backing the JIT cache and auto-tuner,
    /// if one is active for this context.
    pub fn kernel_store(&self) -> Option<&Arc<KernelStore>> {
        self.store.as_ref()
    }

    /// Sub-grid geometry of this rank.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The rank attached to this context by [`MultiRank::new`], if any.
    /// With one attached, statements that shift along a split dimension
    /// exchange halos and every reduction is summed over all ranks.
    pub fn attached_rank(&self) -> Option<Arc<MultiRank>> {
        self.rank.lock().upgrade()
    }

    pub(crate) fn attach_rank(&self, mr: &Arc<MultiRank>) {
        *self.rank.lock() = Arc::downgrade(mr);
    }

    /// Detach `mr` (being dropped) unless a newer rank replaced it.
    pub(crate) fn detach_rank(&self, mr: &MultiRank) {
        let mut slot = self.rank.lock();
        if std::ptr::eq(slot.as_ptr(), mr) {
            *slot = Weak::new();
        }
    }

    /// Sites of the whole lattice: the attached rank grid's global volume,
    /// or the local volume of an unattached context.
    pub fn global_vol(&self) -> usize {
        match self.attached_rank() {
            Some(mr) => mr.decomp().global_dims().iter().product(),
            None => self.geom.vol(),
        }
    }

    /// Data layout in effect.
    pub fn layout(&self) -> LayoutKind {
        self.layout
    }

    /// Whether kernel launches execute their payload functionally (true by
    /// default). Large benchmark sweeps may disable this after validating
    /// once — the simulated clock advances either way.
    pub fn payload_execution(&self) -> bool {
        self.execute_payload.load(Ordering::Relaxed)
    }

    /// Enable/disable functional payload execution.
    pub fn set_payload_execution(&self, on: bool) {
        self.execute_payload.store(on, Ordering::Relaxed);
    }

    /// Optimizer level in effect for expressions evaluated on this context:
    /// a per-context override if one was set, otherwise the configured
    /// level (`QDP_OPT` captured at construction via `QdpConfig::from_env`
    /// on the env-driven paths — the JIT cache keys on the level, never
    /// serving a kernel compiled under the other setting).
    pub fn opt_level(&self) -> OptLevel {
        self.opt_override.lock().unwrap_or(self.config.opt_level)
    }

    /// Pin (`Some`) or unpin (`None`) the optimizer level for this context,
    /// overriding the configured level. Used by differential tests that
    /// evaluate the same expression optimized and unoptimized inside one
    /// process.
    pub fn set_opt_level(&self, level: Option<OptLevel>) {
        *self.opt_override.lock() = level;
    }

    /// Open a deferred-evaluation scope: assignments and reductions issued
    /// through the returned [`crate::FusionScope`] are recorded and fused
    /// into multi-statement kernels on flush (reduction, explicit
    /// [`crate::FusionScope::flush`], or scope drop). With
    /// [`QdpConfig::fuse`] off (`QDP_FUSE=0` on the env-driven paths) the
    /// same planner runs at a group budget of 1.
    pub fn deferred(self: &Arc<Self>) -> crate::FusionScope {
        crate::FusionScope::new(Arc::clone(self))
    }

    /// Device pointer of the neighbour table for `(mu, dir)`. Built lazily
    /// and pinned (never spilled). `remote` selects the multi-rank variant
    /// whose wrapped entries point into receive buffers.
    pub fn neighbor_table(&self, mu: usize, dir: ShiftDir, remote: bool) -> DevicePtr {
        let mut map = self.nbr_tables.lock();
        if let Some(p) = map.get(&(mu, dir, remote)) {
            return *p;
        }
        let d = match dir {
            ShiftDir::Forward => Dir::Forward,
            ShiftDir::Backward => Dir::Backward,
        };
        let tbl = if remote {
            self.geom.neighbor_table_remote(mu, d)
        } else {
            self.geom.neighbor_table_local(mu, d)
        };
        let bytes: Vec<u8> = tbl.iter().flat_map(|e| e.0.to_le_bytes()).collect();
        let ptr = self.alloc_table(&format!("neighbour table (mu={mu}, {dir:?}, remote={remote})"), bytes.len());
        self.device.h2d_async(ptr, &bytes, StreamId::DEFAULT);
        map.insert((mu, dir, remote), ptr);
        ptr
    }

    /// Allocate a pinned device-resident table, recording it in the
    /// telemetry allocator counters. Panics with a diagnostic (requested
    /// bytes, device usage, table key) on device OOM — tables are pinned
    /// infrastructure, not spillable fields, so OOM here is fatal.
    fn alloc_table(&self, key: &str, bytes: usize) -> DevicePtr {
        let tel = self.telemetry();
        if tel.enabled() {
            tel.count("table.allocs", 1);
            tel.count("table.bytes", bytes as u64);
        }
        match self.device.alloc(bytes) {
            Ok(p) => p,
            Err(e) => panic!(
                "device memory exhausted while pinning {key}: requested {bytes} bytes, \
                 device using {} of {} bytes ({} free): {e}",
                self.device.memory().used(),
                self.device.config().memory_bytes,
                self.device.memory().free(),
            ),
        }
    }

    /// Device pointer and length of a subset's site list. `All` needs no
    /// table (threads map straight onto sites).
    pub fn subset_table(&self, subset: Subset) -> (Option<DevicePtr>, usize) {
        if subset == Subset::All {
            return (None, self.geom.vol());
        }
        let mut map = self.subset_tables.lock();
        if let Some((p, n)) = map.get(&subset) {
            return (Some(*p), *n);
        }
        let sites = subset.sites(&self.geom);
        let bytes: Vec<u8> = sites.iter().flat_map(|s| s.to_le_bytes()).collect();
        let ptr = self.alloc_table(&format!("subset table ({subset:?})"), bytes.len());
        self.device.h2d_async(ptr, &bytes, StreamId::DEFAULT);
        map.insert(subset, (ptr, sites.len()));
        (Some(ptr), sites.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_cached() {
        let ctx = QdpContext::k20x(Geometry::symmetric(4));
        let p1 = ctx.neighbor_table(0, ShiftDir::Forward, false);
        let p2 = ctx.neighbor_table(0, ShiftDir::Forward, false);
        assert_eq!(p1, p2);
        let p3 = ctx.neighbor_table(0, ShiftDir::Backward, false);
        assert_ne!(p1, p3);
        let (t1, n1) = ctx.subset_table(Subset::Even);
        let (t2, n2) = ctx.subset_table(Subset::Even);
        assert_eq!(t1, t2);
        assert_eq!(n1, 128);
        assert_eq!(n2, 128);
        let (t_all, n_all) = ctx.subset_table(Subset::All);
        assert!(t_all.is_none());
        assert_eq!(n_all, 256);
    }

    #[test]
    fn neighbor_table_contents() {
        let ctx = QdpContext::k20x(Geometry::symmetric(4));
        let p = ctx.neighbor_table(1, ShiftDir::Forward, false);
        let mem = ctx.device().memory();
        let g = ctx.geometry();
        for s in 0..g.vol() {
            let entry = mem.read_u32(p + 4 * s as u64);
            let (expect, _) = g.neighbor(s, 1, Dir::Forward);
            assert_eq!(entry as usize, expect);
        }
    }

    #[test]
    fn payload_toggle() {
        let ctx = QdpContext::k20x(Geometry::symmetric(2));
        assert!(ctx.payload_execution());
        ctx.set_payload_execution(false);
        assert!(!ctx.payload_execution());
    }
}
