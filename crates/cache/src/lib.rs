//! # qdp-cache — automated GPU memory management (paper §IV)
//!
//! CUDA's off-loading execution model leaves host↔device transfers to the
//! library developer. QDP-JIT automates them with a software cache: before
//! a kernel launch, the expression's AST is walked, the referenced data
//! fields are extracted from the leaf nodes, and every one of them is made
//! available in GPU memory. Fields are **paged out** (copied to CPU memory)
//! either when host code accesses them or when a caching event cannot be
//! serviced — in which case a **least-recently-used** spilling policy picks
//! victims by the timestamp of their last reference from a compute kernel.
//!
//! This crate implements exactly that: a [`MemoryCache`] that owns the host
//! copies of all lattice fields, tracks device residency and dirtiness, and
//! performs page-in/page-out/spill traffic through the simulated device's
//! copy engine (so the Amdahl cost of transfers shows up on the simulated
//! clock, as it does in the paper's "CPU+QUDA" configuration). Paging
//! copies are issued on the synchronising default stream whatever stream
//! the issuing thread has bound: a page-in must complete before any
//! stream's kernel reads the field.
//!
//! A copy happens only when the other side holds the valid data:
//!
//! * **Page-in** (host → device) when a kernel needs a field whose host
//!   copy is the valid one and was written — by host code or by an earlier
//!   dirty page-out.
//! * **Page-out** (device → host) when host code touches, or a spill
//!   evicts, a field a kernel wrote ([`Residency::DeviceDirty`]). A clean
//!   field's device copy is simply freed.
//! * **Write-only first touch: no copy.** A registered field has no host
//!   buffer until something writes it; by contract it holds zeros. The
//!   first kernel reference allocates device memory and zero-fills it in
//!   place ([`CacheStats::first_touches`]), so solver temporaries and
//!   reduction scratch never move bytes over PCIe. Host access or a dirty
//!   page-out creates the host buffer on demand.
//! * **Scratch first touch: no copy, no fill.** A field registered with
//!   [`MemoryCache::register_scratch`] is one whose first kernel writes
//!   every byte before anything reads it (a full-lattice reduction
//!   temporary). Its first touch allocates the device range and leaves
//!   whatever the arena held there; it still counts as a first touch.

use qdp_gpu_sim::sync::Mutex;
use qdp_gpu_sim::{Device, DeviceError, DevicePtr, StreamId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a registered data field.
pub type FieldId = u64;

/// Residency state of one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Only the host copy is valid (all zeros if nothing ever wrote the
    /// field). A kernel reference pages it in — or, for a never-written
    /// field, zero-fills a fresh device copy without a transfer.
    HostOnly,
    /// Both copies exist and agree. Host access or a spill frees the device
    /// copy without a transfer.
    Synced,
    /// The device copy is newer (a kernel wrote it). Host access or a spill
    /// copies it back to the host first.
    DeviceDirty,
}

/// Cache statistics (reported by the cache ablation bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fields found already resident when requested by a kernel.
    pub hits: u64,
    /// Page-ins (host → device copies).
    pub page_ins: u64,
    /// First touches: device copies of never-written fields, zero-filled
    /// in place (or, for scratch fields, left unfilled) instead of paged in.
    pub first_touches: u64,
    /// Page-outs due to host access.
    pub page_outs: u64,
    /// Spills: page-outs forced by allocation pressure (LRU victims).
    pub spills: u64,
    /// Bytes spilled.
    pub spill_bytes: u64,
}

struct Entry {
    bytes: usize,
    /// The host copy; `None` until something writes the field, which then
    /// holds zeros.
    host: Option<Vec<u8>>,
    device: Option<DevicePtr>,
    state: Residency,
    last_touch: u64,
    /// Written whole by its first kernel: a first touch skips the fill.
    scratch: bool,
}

impl Entry {
    /// The host copy, created (zeros) on first need.
    fn host_mut(&mut self) -> &mut [u8] {
        let bytes = self.bytes;
        self.host.get_or_insert_with(|| vec![0u8; bytes])
    }
}

/// Errors from cache operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// Unknown field id.
    UnknownField(FieldId),
    /// The requested working set cannot fit on the device even after
    /// spilling everything else.
    WorkingSetTooLarge {
        /// Field that could not be paged in.
        field: FieldId,
        /// Underlying allocation failure.
        source: DeviceError,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::UnknownField(id) => write!(f, "unknown field {id}"),
            CacheError::WorkingSetTooLarge { field, source } => {
                write!(f, "cannot page in field {field}: {source}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// The software cache for GPU memory.
pub struct MemoryCache {
    device: Arc<Device>,
    fields: Mutex<HashMap<FieldId, Entry>>,
    next_id: AtomicU64,
    kernel_clock: AtomicU64,
    stats: Mutex<CacheStats>,
}

impl MemoryCache {
    /// Create a cache managing the given device's memory.
    pub fn new(device: Arc<Device>) -> MemoryCache {
        MemoryCache {
            device,
            fields: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            kernel_clock: AtomicU64::new(1),
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// The device this cache manages.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Register a new field of `bytes` zero-initialised bytes; returns its
    /// id. No memory is allocated until the field is first touched.
    pub fn register(&self, bytes: usize) -> FieldId {
        self.insert(bytes, false)
    }

    /// Register a scratch field of `bytes` bytes that the caller's first
    /// kernel overwrites whole before anything reads it; returns its id.
    /// Its first touch allocates without zero-filling, so the device range
    /// holds junk until that kernel runs.
    pub fn register_scratch(&self, bytes: usize) -> FieldId {
        self.insert(bytes, true)
    }

    fn insert(&self, bytes: usize, scratch: bool) -> FieldId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tel = self.device.telemetry();
        if tel.enabled() {
            tel.count("cache.fields_registered", 1);
            tel.count("cache.bytes_registered", bytes as u64);
        }
        self.fields.lock().insert(
            id,
            Entry {
                bytes,
                host: None,
                device: None,
                state: Residency::HostOnly,
                last_touch: 0,
                scratch,
            },
        );
        id
    }

    /// Drop a field, freeing its device allocation if any.
    pub fn unregister(&self, id: FieldId) {
        if let Some(e) = self.fields.lock().remove(&id) {
            if let Some(ptr) = e.device {
                self.device.free(ptr);
            }
        }
    }

    /// Size in bytes of a field.
    pub fn field_bytes(&self, id: FieldId) -> Result<usize, CacheError> {
        self.fields
            .lock()
            .get(&id)
            .map(|e| e.bytes)
            .ok_or(CacheError::UnknownField(id))
    }

    /// Residency of a field.
    pub fn residency(&self, id: FieldId) -> Result<Residency, CacheError> {
        self.fields
            .lock()
            .get(&id)
            .map(|e| e.state)
            .ok_or(CacheError::UnknownField(id))
    }

    /// Number of registered fields.
    pub fn len(&self) -> usize {
        self.fields.lock().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }

    fn page_out_locked(
        device: &Device,
        stats: &mut CacheStats,
        e: &mut Entry,
        spill: bool,
    ) {
        if let Some(ptr) = e.device.take() {
            if e.state == Residency::DeviceDirty {
                device.d2h_async(ptr, e.host_mut(), StreamId::DEFAULT);
            }
            device.free(ptr);
            e.state = Residency::HostOnly;
            let tel = device.telemetry();
            if spill {
                stats.spills += 1;
                stats.spill_bytes += e.bytes as u64;
                tel.record_flight("cache_spill", "", &[("bytes", e.bytes as f64)]);
                if tel.enabled() {
                    tel.count("cache.spills", 1);
                    tel.count("cache.spill_bytes", e.bytes as u64);
                }
            } else {
                stats.page_outs += 1;
                if tel.enabled() {
                    tel.count("cache.page_outs", 1);
                    tel.count("cache.page_out_bytes", e.bytes as u64);
                }
            }
        }
    }

    /// Make every field in `ids` resident on the device ("cache" them,
    /// paper §IV), spilling LRU victims as needed. Returns the device
    /// pointers in the same order and stamps the fields with a fresh
    /// kernel-reference timestamp.
    pub fn assure_on_device(&self, ids: &[FieldId]) -> Result<Vec<DevicePtr>, CacheError> {
        let stamp = self.kernel_clock.fetch_add(1, Ordering::Relaxed);
        let mut fields = self.fields.lock();
        let mut stats = self.stats.lock();

        for &id in ids {
            if !fields.contains_key(&id) {
                return Err(CacheError::UnknownField(id));
            }
        }

        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            // Fast path: already resident.
            {
                let e = fields.get_mut(&id).unwrap();
                e.last_touch = stamp;
                if let Some(ptr) = e.device {
                    stats.hits += 1;
                    self.device.telemetry().count("cache.hits", 1);
                    out.push(ptr);
                    continue;
                }
            }
            // Allocate, spilling LRU victims on failure.
            let bytes = fields[&id].bytes;
            let ptr = loop {
                match self.device.alloc(bytes) {
                    Ok(p) => break p,
                    Err(err) => {
                        // LRU victim: resident field with the oldest
                        // last-kernel-reference, excluding the working set.
                        // Fields one kernel referenced share a stamp; the
                        // lower id breaks the tie, so spilling does not
                        // depend on the map's iteration order.
                        let victim = fields
                            .iter()
                            .filter(|(vid, e)| e.device.is_some() && !ids.contains(vid))
                            .min_by_key(|(vid, e)| (e.last_touch, **vid))
                            .map(|(vid, _)| *vid);
                        match victim {
                            Some(vid) => {
                                let e = fields.get_mut(&vid).unwrap();
                                Self::page_out_locked(&self.device, &mut stats, e, true);
                            }
                            None => {
                                return Err(CacheError::WorkingSetTooLarge {
                                    field: id,
                                    source: err,
                                })
                            }
                        }
                    }
                }
            };
            let e = fields.get_mut(&id).unwrap();
            let tel = self.device.telemetry();
            match &e.host {
                Some(host) => {
                    self.device.h2d_async(ptr, host, StreamId::DEFAULT);
                    stats.page_ins += 1;
                    if tel.enabled() {
                        tel.count("cache.page_ins", 1);
                        tel.count("cache.page_in_bytes", bytes as u64);
                    }
                }
                None => {
                    // Never written: the contents are zeros by contract,
                    // unless the field is scratch its first kernel writes
                    // whole. QDP++ leaves new fields uninitialised, so this
                    // fill is the simulator keeping our zero contract, not
                    // a transfer — it adds no simulated time.
                    if !e.scratch {
                        self.device.memory().fill_zero(ptr, bytes);
                    }
                    stats.first_touches += 1;
                    if tel.enabled() {
                        tel.count("cache.first_touches", 1);
                    }
                }
            }
            e.device = Some(ptr);
            e.state = Residency::Synced;
            out.push(ptr);
        }
        Ok(out)
    }

    /// Mark a field as written by a kernel (device copy newer than host).
    pub fn mark_device_dirty(&self, id: FieldId) -> Result<(), CacheError> {
        let mut fields = self.fields.lock();
        let e = fields.get_mut(&id).ok_or(CacheError::UnknownField(id))?;
        if e.device.is_some() {
            e.state = Residency::DeviceDirty;
        }
        Ok(())
    }

    /// Host read access: pages the field out first (paper: fields are
    /// paged out "when they are accessed by CPU code").
    pub fn with_host<T>(
        &self,
        id: FieldId,
        f: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, CacheError> {
        let mut fields = self.fields.lock();
        let mut stats = self.stats.lock();
        let e = fields.get_mut(&id).ok_or(CacheError::UnknownField(id))?;
        Self::page_out_locked(&self.device, &mut stats, e, false);
        Ok(f(e.host_mut()))
    }

    /// Host write access: pages out, then lets the caller mutate the host
    /// copy (which becomes the single valid copy).
    pub fn with_host_mut<T>(
        &self,
        id: FieldId,
        f: impl FnOnce(&mut [u8]) -> T,
    ) -> Result<T, CacheError> {
        let mut fields = self.fields.lock();
        let mut stats = self.stats.lock();
        let e = fields.get_mut(&id).ok_or(CacheError::UnknownField(id))?;
        Self::page_out_locked(&self.device, &mut stats, e, false);
        Ok(f(e.host_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_gpu_sim::DeviceConfig;

    fn cache_with(mem: usize) -> MemoryCache {
        MemoryCache::new(Arc::new(Device::new(DeviceConfig::tiny(mem))))
    }

    #[test]
    fn page_in_and_hit() {
        let c = cache_with(1 << 20);
        let f = c.register(4096);
        c.with_host_mut(f, |h| h.fill(3)).unwrap();
        assert_eq!(c.residency(f).unwrap(), Residency::HostOnly);
        let p1 = c.assure_on_device(&[f]).unwrap();
        assert_eq!(c.residency(f).unwrap(), Residency::Synced);
        let p2 = c.assure_on_device(&[f]).unwrap();
        assert_eq!(p1, p2);
        let s = c.stats();
        assert_eq!(s.page_ins, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn never_written_first_touch_zero_fills_without_a_transfer() {
        let c = cache_with(1 << 20);
        // Leave non-zero bytes behind in the arena for the next field.
        let junk = c.device().alloc(4096).unwrap();
        c.device().memory().copy_from_host(junk, &[0xab; 4096]);
        c.device().free(junk);
        let before = c.device().stats();

        let f = c.register(4096);
        assert_eq!(c.field_bytes(f).unwrap(), 4096);
        let p = c.assure_on_device(&[f]).unwrap()[0];
        assert_eq!(p, junk, "the field reuses the dirtied range");
        assert_eq!(c.residency(f).unwrap(), Residency::Synced);
        let after = c.device().stats();
        assert_eq!(after.h2d_copies, before.h2d_copies);
        assert_eq!(after.h2d_bytes, before.h2d_bytes);
        assert_eq!(after.transfer_time, before.transfer_time);
        let s = c.stats();
        assert_eq!((s.page_ins, s.first_touches), (0, 1));
        c.device()
            .memory()
            .with_f64s(p, 512, |v| assert!(v.iter().all(|x| x.to_bits() == 0)));
        // A clean page-out moves nothing and the host still reads zeros.
        assert!(c.with_host(f, |h| h.iter().all(|&b| b == 0)).unwrap());
        assert_eq!(c.device().stats().d2h_copies, before.d2h_copies);
    }

    #[test]
    fn scratch_first_touch_skips_the_fill_and_still_counts() {
        let c = cache_with(1 << 20);
        // Leave 0xab bytes behind in the arena for the next field.
        let leave_junk = || {
            let junk = c.device().alloc(4096).unwrap();
            c.device().memory().copy_from_host(junk, &[0xab; 4096]);
            c.device().free(junk);
            junk
        };
        let bytes_at = |p| {
            let mut host = vec![0u8; 4096];
            c.device().memory().copy_to_host(p, &mut host);
            host
        };

        let junk = leave_junk();
        let s = c.register_scratch(4096);
        let p = c.assure_on_device(&[s]).unwrap()[0];
        assert_eq!(p, junk, "the scratch field reuses the dirtied range");
        assert!(bytes_at(p).iter().all(|&b| b == 0xab), "no fill");
        c.unregister(s);

        let junk = leave_junk();
        let f = c.register(4096);
        let p = c.assure_on_device(&[f]).unwrap()[0];
        assert_eq!(p, junk, "the plain field reuses the dirtied range");
        assert!(bytes_at(p).iter().all(|&b| b == 0), "zero fill");

        let st = c.stats();
        assert_eq!((st.page_ins, st.first_touches), (0, 2));
        assert_eq!(c.device().stats().h2d_copies, 0);
    }

    #[test]
    fn field_bytes_before_any_host_access() {
        let c = cache_with(1 << 16);
        let f = c.register(1234);
        assert_eq!(c.field_bytes(f).unwrap(), 1234);
        assert_eq!(c.with_host(f, |h| h.len()).unwrap(), 1234);
        assert_eq!(c.field_bytes(f).unwrap(), 1234);
    }

    #[test]
    fn clean_never_written_spill_retouches_without_a_transfer() {
        let c = cache_with(2 * 1024 + 512);
        let a = c.register(900);
        let b = c.register(900);
        let d = c.register(900);
        c.assure_on_device(&[a]).unwrap();
        c.assure_on_device(&[b]).unwrap();
        c.assure_on_device(&[d]).unwrap(); // spills clean a
        c.assure_on_device(&[a]).unwrap(); // spills clean b
        let s = c.stats();
        assert_eq!((s.spills, s.spill_bytes), (2, 1800));
        assert_eq!((s.page_ins, s.first_touches), (0, 4));
        let d_stats = c.device().stats();
        assert_eq!((d_stats.h2d_copies, d_stats.d2h_copies), (0, 0));
        assert_eq!(d_stats.transfer_time, 0.0);
    }

    #[test]
    fn host_access_pages_out_and_preserves_kernel_writes() {
        let c = cache_with(1 << 20);
        let f = c.register(16);
        let ptrs = c.assure_on_device(&[f]).unwrap();
        // a "kernel" writes on device
        c.device().memory().write_f64(ptrs[0], 42.0);
        c.mark_device_dirty(f).unwrap();
        // host access must observe the kernel's write
        let v = c
            .with_host(f, |h| f64::from_le_bytes(h[0..8].try_into().unwrap()))
            .unwrap();
        assert_eq!(v, 42.0);
        assert_eq!(c.residency(f).unwrap(), Residency::HostOnly);
        assert_eq!(c.stats().page_outs, 1);
    }

    #[test]
    fn clean_page_out_skips_copy() {
        let c = cache_with(1 << 20);
        let f = c.register(1024);
        c.assure_on_device(&[f]).unwrap();
        let before = c.device().stats().d2h_copies;
        c.with_host(f, |_| ()).unwrap();
        // field was clean: no device→host copy needed
        assert_eq!(c.device().stats().d2h_copies, before);
    }

    #[test]
    fn lru_spilling_prefers_oldest() {
        // Device fits two ~1 KiB fields plus allocator slack, not three.
        let c = cache_with(2 * 1024 + 512);
        let a = c.register(900);
        let b = c.register(900);
        let d = c.register(900);
        c.assure_on_device(&[a]).unwrap();
        c.assure_on_device(&[b]).unwrap();
        // paging in d must spill a (oldest kernel reference)
        c.assure_on_device(&[d]).unwrap();
        assert_eq!(c.residency(a).unwrap(), Residency::HostOnly);
        assert_eq!(c.residency(b).unwrap(), Residency::Synced);
        assert_eq!(c.residency(d).unwrap(), Residency::Synced);
        assert_eq!(c.stats().spills, 1);
        // touching b then loading a must spill d
        c.assure_on_device(&[b]).unwrap();
        c.assure_on_device(&[a]).unwrap();
        assert_eq!(c.residency(d).unwrap(), Residency::HostOnly);
        assert_eq!(c.stats().spills, 2);
    }

    #[test]
    fn lru_ties_spill_the_lower_id() {
        let c = cache_with(2 * 1024 + 512);
        let a = c.register(900);
        let b = c.register(900);
        let d = c.register(900);
        c.assure_on_device(&[b, a]).unwrap(); // one kernel: one stamp
        c.assure_on_device(&[d]).unwrap();
        assert_eq!(c.residency(a).unwrap(), Residency::HostOnly);
        assert_eq!(c.residency(b).unwrap(), Residency::Synced);
    }

    #[test]
    fn spilled_dirty_field_keeps_its_data() {
        let c = cache_with(2 * 1024 + 512);
        let a = c.register(900);
        let b = c.register(900);
        let d = c.register(900);
        let pa = c.assure_on_device(&[a]).unwrap()[0];
        c.device().memory().write_f64(pa, 7.25);
        c.mark_device_dirty(a).unwrap();
        c.assure_on_device(&[b]).unwrap();
        c.assure_on_device(&[d]).unwrap(); // spills dirty a
        let v = c
            .with_host(a, |h| f64::from_le_bytes(h[0..8].try_into().unwrap()))
            .unwrap();
        assert_eq!(v, 7.25);
        // and paging a back in restores the value on device
        let pa2 = c.assure_on_device(&[a]).unwrap()[0];
        assert_eq!(c.device().memory().read_f64(pa2), 7.25);
        // The dirty spill gave a host copy, so that was a real page-in.
        assert_eq!((c.stats().page_ins, c.stats().first_touches), (1, 3));
    }

    #[test]
    fn working_set_never_self_evicts() {
        // Both fields of the working set fit individually but not together:
        // the cache must fail rather than evict a field it just paged in.
        let c = cache_with(1024 + 256);
        let a = c.register(900);
        let b = c.register(900);
        let err = c.assure_on_device(&[a, b]).unwrap_err();
        assert!(matches!(err, CacheError::WorkingSetTooLarge { .. }));
    }

    #[test]
    fn unknown_field_errors() {
        let c = cache_with(1 << 16);
        assert!(matches!(
            c.assure_on_device(&[99]),
            Err(CacheError::UnknownField(99))
        ));
        assert!(c.with_host(42, |_| ()).is_err());
        assert!(c.residency(7).is_err());
    }

    #[test]
    fn unregister_frees_device_memory() {
        let c = cache_with(1 << 16);
        let f = c.register(4096);
        c.assure_on_device(&[f]).unwrap();
        let used = c.device().memory().used();
        c.unregister(f);
        assert!(c.device().memory().used() < used);
        assert!(c.is_empty());
    }

    #[test]
    fn host_mut_invalidates_device_copy() {
        let c = cache_with(1 << 16);
        let f = c.register(16);
        c.assure_on_device(&[f]).unwrap();
        c.with_host_mut(f, |h| h[0..8].copy_from_slice(&5.0f64.to_le_bytes()))
            .unwrap();
        assert_eq!(c.residency(f).unwrap(), Residency::HostOnly);
        // paging back in sees the host write
        let p = c.assure_on_device(&[f]).unwrap()[0];
        assert_eq!(c.device().memory().read_f64(p), 5.0);
    }
}
