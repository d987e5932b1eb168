//! The QDP-JIT runtime context: device, software cache, kernel cache (each
//! compiled kernel carries its own §VII block-size tuning record), the
//! persistent kernel store, geometry and the pinned device-resident tables
//! (neighbour tables, subset site lists, the §V inner/face site lists).

use crate::config::{QdpConfig, QdpContextBuilder};
use crate::eval::CoreError;
use crate::multinode::{to_dir, MultiRank};
use qdp_gpu_sim::sync::Mutex;
use qdp_cache::MemoryCache;
use qdp_expr::ShiftDir;
use qdp_gpu_sim::{Device, DeviceConfig, DevicePtr, StreamId};
use qdp_jit::{KernelCache, KernelStore};
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
    geom: Geometry,
    layout: LayoutKind,
    config: QdpConfig,
    /// Every pinned table: device pointer and entry count.
    tables: Mutex<HashMap<TableKey, (DevicePtr, usize)>>,
    execute_payload: AtomicBool,
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
        Arc::new(QdpContext {
            cache: MemoryCache::new(Arc::clone(&device)),
            kernels: KernelCache::with_store(telemetry, store),
            device,
            geom,
            layout,
            config,
            tables: Mutex::new(HashMap::new()),
            execute_payload: AtomicBool::new(true),
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

    /// The persistent kernel store backing the JIT cache and the tuned
    /// launches, if one is active for this context.
    pub fn kernel_store(&self) -> Option<&Arc<KernelStore>> {
        self.kernels.store()
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
    /// once — the simulated clock advances either way. With payload off no
    /// kernel writes a reduction's partials, so none is read: every
    /// reduction (`norm2`, `inner_product`, `sum_*`, `norm2_batch`) returns
    /// `+0.0` per component, while its second pass is still accounted and,
    /// on an attached rank, its batch still allreduced once.
    pub fn payload_execution(&self) -> bool {
        self.execute_payload.load(Ordering::Relaxed)
    }

    /// Enable/disable functional payload execution.
    pub fn set_payload_execution(&self, on: bool) {
        self.execute_payload.store(on, Ordering::Relaxed);
    }

    /// Optimizer level in effect for expressions evaluated on this context:
    /// the configured level (`QDP_OPT` captured at construction via
    /// `QdpConfig::from_env` on the env-driven paths), fixed for the
    /// context's life; every statement is planned at it. The JIT cache keys
    /// on the level, so two contexts at different levels never share a
    /// kernel.
    pub fn opt_level(&self) -> OptLevel {
        self.config.opt_level
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
    pub fn neighbor_table(
        &self,
        mu: usize,
        dir: ShiftDir,
        remote: bool,
    ) -> Result<DevicePtr, CoreError> {
        let key = TableKey::Neighbor(mu, to_dir(dir), remote);
        let (ptr, _) = self.pinned_table(key, StreamId::DEFAULT)?;
        Ok(ptr)
    }

    /// Device pointer and length of a subset's site list. `All` needs no
    /// table (threads map straight onto sites).
    pub fn subset_table(&self, subset: Subset) -> Result<(Option<DevicePtr>, usize), CoreError> {
        if subset == Subset::All {
            return Ok((None, self.geom.vol()));
        }
        let (ptr, len) = self.pinned_table(TableKey::Subset(subset), StreamId::DEFAULT)?;
        Ok((Some(ptr), len))
    }

    /// The pinned table for `key`: device pointer and entry count. On the
    /// first request the table is built, uploaded on `stream` and kept on
    /// the device (never spilled) for the context's life.
    pub(crate) fn pinned_table(
        &self,
        key: TableKey,
        stream: StreamId,
    ) -> Result<(DevicePtr, usize), CoreError> {
        let mut map = self.tables.lock();
        if let Some(&hit) = map.get(&key) {
            return Ok(hit);
        }
        let entries = key.entries(&self.geom);
        let bytes: Vec<u8> = entries.iter().flat_map(|e| e.to_le_bytes()).collect();
        let ptr = self.alloc_or_oom(format_args!("{key:?} table"), bytes.len())?;
        let tel = self.telemetry();
        if tel.enabled() {
            tel.count("table.allocs", 1);
            tel.count("table.bytes", bytes.len() as u64);
        }
        self.device.h2d_async(ptr, &bytes, stream);
        let table = (ptr, entries.len());
        map.insert(key, table);
        Ok(table)
    }

    /// Allocate `bytes` of raw (non-spillable) device memory for `what`;
    /// device OOM is a [`CoreError::DeviceOom`] with the memory picture.
    pub(crate) fn alloc_or_oom(
        &self,
        what: std::fmt::Arguments<'_>,
        bytes: usize,
    ) -> Result<DevicePtr, CoreError> {
        self.device.alloc(bytes).map_err(|_| {
            let mem = self.device.memory();
            CoreError::DeviceOom {
                what: what.to_string(),
                requested: bytes,
                used: mem.used(),
                free: mem.free(),
            }
        })
    }
}

/// What a pinned table holds (see [`QdpContext::pinned_table`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum TableKey {
    /// Neighbour sites along `(mu, dir)`; `true` for the multi-rank variant.
    Neighbor(usize, Dir, bool),
    /// The site list of a subset other than `All`.
    Subset(Subset),
    /// The §V inner sites: no neighbour across any of these faces.
    Inner(Vec<(usize, Dir)>),
    /// The §V face sites: the union of these faces.
    Face(Vec<(usize, Dir)>),
}

impl TableKey {
    /// The table's entries on `geom`.
    fn entries(&self, geom: &Geometry) -> Vec<u32> {
        match self {
            TableKey::Neighbor(mu, d, remote) => {
                let tbl = if *remote {
                    geom.neighbor_table_remote(*mu, *d)
                } else {
                    geom.neighbor_table_local(*mu, *d)
                };
                tbl.iter().map(|e| e.0).collect()
            }
            TableKey::Subset(subset) => subset.sites(geom),
            TableKey::Inner(faces) => geom.inner_sites(faces),
            TableKey::Face(faces) => geom.face_union(faces),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_cached() {
        let ctx = QdpContext::k20x(Geometry::symmetric(4));
        let p1 = ctx.neighbor_table(0, ShiftDir::Forward, false).unwrap();
        let p2 = ctx.neighbor_table(0, ShiftDir::Forward, false).unwrap();
        assert_eq!(p1, p2);
        let p3 = ctx.neighbor_table(0, ShiftDir::Backward, false).unwrap();
        assert_ne!(p1, p3);
        let (t1, n1) = ctx.subset_table(Subset::Even).unwrap();
        let (t2, n2) = ctx.subset_table(Subset::Even).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(n1, 128);
        assert_eq!(n2, 128);
        let (t_all, n_all) = ctx.subset_table(Subset::All).unwrap();
        assert!(t_all.is_none());
        assert_eq!(n_all, 256);
    }

    #[test]
    fn neighbor_table_contents() {
        let ctx = QdpContext::k20x(Geometry::symmetric(4));
        let p = ctx.neighbor_table(1, ShiftDir::Forward, false).unwrap();
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
