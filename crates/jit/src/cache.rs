//! The compiled-kernel cache.
//!
//! Each distinct PTX program is JIT-translated once per process — exactly
//! the behaviour the paper relies on when it estimates the translation
//! overhead of an HMC trajectory as "number of distinct kernels × 0.05–0.22
//! seconds" (§III-D, §VIII-D).
//!
//! A kernel has one identity, the structural key of its statement group:
//! [`KernelCache::compile_keyed`] is the front door the launch path uses,
//! and a warm key is one map probe. The paper's cache "keyed on PTX text"
//! ([`KernelCache::compile`]) is the miss path behind it: it runs once per
//! key, deduplicates identical programs and feeds the persistent store.

use crate::lower::{compile_ptx_opt, compile_ptx_opt_emit, CompiledKernel, JitError};
use crate::persist::KernelStore;
use qdp_gpu_sim::sync::Mutex;
use qdp_ptx::hash::stable_text_digest;
use qdp_ptx::opt::{OptLevel, OptStats};
use qdp_telemetry::Telemetry;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCacheStats {
    /// Number of cache hits (kernel already translated).
    pub hits: u64,
    /// Number of misses (fresh JIT translations).
    pub misses: u64,
    /// Number of failed translations (bad PTX, lowering error). Failures
    /// are never cached, so each failing text counts on every attempt.
    pub compile_errors: u64,
    /// Wall-clock seconds spent in fresh translations: parse, validate,
    /// optimize, emit of the optimized text (only with a persistent store)
    /// and lower.
    pub wall_compile_time: f64,
    /// *Modelled* translation seconds — the paper's 0.05–0.22 s per kernel
    /// figure, scaled by program size. Benchmark harnesses report this.
    pub modeled_compile_time: f64,
    /// In-memory misses served from the persistent kernel store: the
    /// already-optimized program was lowered verbatim — no optimizer pass,
    /// no modelled translation cost, and no `misses` increment.
    pub persist_hits: u64,
}

/// Modelled JIT translation time for one kernel: the paper measures
/// 0.05–0.22 s depending on kernel complexity; we interpolate on the
/// instruction count (their kernels range from tens to a few thousand PTX
/// instructions).
pub fn modeled_compile_time(n_instructions: usize) -> f64 {
    let t = 0.05 + 0.17 * (n_instructions as f64 / 3000.0);
    t.min(0.22)
}

/// One compile request: PTX text plus how to translate it. Built with the
/// builder methods and handed to [`KernelCache::compile`]; this is the
/// single entry point the old `get_or_compile` / `get_or_compile_opt` pair
/// collapsed into.
///
/// ```ignore
/// let k = cache.compile(CompileRequest::new(&ptx))?;                    // verbatim
/// let k = cache.compile(CompileRequest::new(&ptx).opt_level(level))?;   // optimized
/// let k = cache.compile(CompileRequest::new(&ptx).name("my_kernel"))?;  // checked
/// ```
///
/// The default request translates the text **verbatim** (`OptLevel::None`):
/// callers that hand-build kernels (tests, benchmarks, golden snapshots)
/// get exactly the instructions they wrote. The expression pipeline opts in
/// to the optimizer with [`CompileRequest::opt_level`].
#[derive(Debug, Clone, Copy)]
pub struct CompileRequest<'a> {
    ptx: &'a str,
    opt_level: OptLevel,
    name: Option<&'a str>,
}

impl<'a> CompileRequest<'a> {
    /// A verbatim (no-opt, unchecked-name) request for `ptx`.
    pub fn new(ptx: &'a str) -> CompileRequest<'a> {
        CompileRequest {
            ptx,
            opt_level: OptLevel::None,
            name: None,
        }
    }

    /// Run the PTX optimizer at `level` before lowering. The cache key
    /// covers the level: a process toggling `QDP_OPT` mid-run is never
    /// served a kernel compiled under the other setting.
    pub fn opt_level(mut self, level: OptLevel) -> CompileRequest<'a> {
        self.opt_level = level;
        self
    }

    /// Require the module's single `.entry` to be named `name`; a mismatch
    /// is a [`JitError::Lower`]. Catches callers pairing a cached PTX text
    /// with the wrong plan.
    pub fn name(mut self, name: &'a str) -> CompileRequest<'a> {
        self.name = Some(name);
        self
    }
}

/// A cache of JIT-translated kernels keyed on PTX text.
#[derive(Default)]
pub struct KernelCache {
    inner: Mutex<Inner>,
    telemetry: Arc<Telemetry>,
    store: Option<Arc<KernelStore>>,
}

#[derive(Default)]
struct Inner {
    /// Hash of (PTX text, opt level) → kernel.
    map: HashMap<u64, Arc<CompiledKernel>>,
    /// Structural key → kernel (the front door over `map`).
    keyed: HashMap<String, Arc<CompiledKernel>>,
    stats: KernelCacheStats,
}

impl KernelCache {
    /// Create an empty cache (with a disabled telemetry registry).
    pub fn new() -> KernelCache {
        KernelCache::default()
    }

    /// Create an empty cache recording hits/misses/errors into `telemetry`.
    pub fn with_telemetry(telemetry: Arc<Telemetry>) -> KernelCache {
        KernelCache {
            inner: Mutex::new(Inner::default()),
            telemetry,
            store: None,
        }
    }

    /// Like [`KernelCache::with_telemetry`], additionally backed by the
    /// persistent kernel store: in-memory misses first consult `store` for
    /// the already-optimized program (lowered verbatim — no optimizer
    /// pass), and fresh translations write their optimized PTX back.
    pub fn with_store(
        telemetry: Arc<Telemetry>,
        store: Option<Arc<KernelStore>>,
    ) -> KernelCache {
        KernelCache {
            inner: Mutex::new(Inner::default()),
            telemetry,
            store,
        }
    }

    /// The persistent store backing this cache, if any.
    pub fn store(&self) -> Option<&Arc<KernelStore>> {
        self.store.as_ref()
    }

    /// The kernel cached under the structural `key`, or — the first time a
    /// key is seen — the one `miss` produces, normally by generating the
    /// PTX and handing it to [`KernelCache::compile`]. A hit is one map
    /// probe and counts in [`KernelCacheStats::hits`] like a text-keyed
    /// hit; `miss` does its own counting. A failed `miss` caches nothing.
    /// The key must determine the program and its optimizer level.
    pub fn compile_keyed<E>(
        &self,
        key: &str,
        miss: impl FnOnce() -> Result<Arc<CompiledKernel>, E>,
    ) -> Result<Arc<CompiledKernel>, E> {
        let mut inner = self.inner.lock();
        if let Some(k) = inner.keyed.get(key).cloned() {
            inner.stats.hits += 1;
            drop(inner);
            self.telemetry.record_compile(&k.name, true, 0.0, 0.0);
            return Ok(k);
        }
        drop(inner);
        let kernel = miss()?;
        self.inner
            .lock()
            .keyed
            .insert(key.to_string(), Arc::clone(&kernel));
        Ok(kernel)
    }

    /// Translate (or fetch) the single kernel described by `req` — the
    /// text-keyed compile entry point (see [`CompileRequest`]).
    ///
    /// The text must contain exactly one `.entry` — the code generator
    /// emits one module per expression, like the paper's. The cache key
    /// covers both the text and the optimizer configuration.
    pub fn compile(&self, req: CompileRequest<'_>) -> Result<Arc<CompiledKernel>, JitError> {
        let mut h = DefaultHasher::new();
        req.ptx.hash(&mut h);
        req.opt_level.tag().hash(&mut h);
        let key = h.finish();

        let check_name = |k: &CompiledKernel| -> Result<(), JitError> {
            match req.name {
                Some(want) if k.name != want => Err(JitError::Lower(format!(
                    "compile request expected kernel `{want}`, module defines `{}`",
                    k.name
                ))),
                _ => Ok(()),
            }
        };

        let mut inner = self.inner.lock();
        if let Some(k) = inner.map.get(&key).cloned() {
            inner.stats.hits += 1;
            drop(inner);
            check_name(&k)?;
            self.telemetry.record_compile(&k.name, true, 0.0, 0.0);
            return Ok(k);
        }

        // In-memory miss: consult the persistent store for the program an
        // earlier process already pushed through the optimizer. A stored
        // program is lowered **verbatim** — zero optimizer passes, no
        // modelled translation cost (driver binary-cache semantics) — and
        // counts as a hit, not a miss. A stored payload that no longer
        // parses or lowers is evicted (`persist.corrupt`) and the request
        // falls through to a clean recompile.
        let src_digest = self.store.as_ref().map(|_| stable_text_digest(req.ptx));
        if let (Some(store), Some(digest)) = (&self.store, &src_digest) {
            if let Some(stored) = store.lookup_kernel(digest, req.opt_level.tag()) {
                match compile_ptx_opt(&stored, OptLevel::None) {
                    Ok((mut kernels, _)) if kernels.len() == 1 => {
                        let kernel = Arc::new(kernels.remove(0));
                        check_name(&kernel)?;
                        inner.stats.persist_hits += 1;
                        inner.map.insert(key, Arc::clone(&kernel));
                        drop(inner);
                        self.telemetry.record_compile(&kernel.name, true, 0.0, 0.0);
                        self.telemetry.record_persist_hit(&kernel.name);
                        return Ok(kernel);
                    }
                    _ => store.evict_kernel(digest, req.opt_level.tag()),
                }
            }
        }

        let t0 = Instant::now();
        let compiled = if self.store.is_some() {
            compile_ptx_opt_emit(req.ptx, req.opt_level).map(|(k, s, t)| (k, s, Some(t)))
        } else {
            compile_ptx_opt(req.ptx, req.opt_level).map(|(k, s)| (k, s, None))
        };
        let (mut kernels, opt_stats, optimized_text) = match compiled {
            Ok(r) => r,
            Err(e) => {
                inner.stats.compile_errors += 1;
                self.telemetry.record_compile_error();
                return Err(e);
            }
        };
        let wall = t0.elapsed().as_secs_f64();
        if kernels.len() != 1 {
            inner.stats.compile_errors += 1;
            self.telemetry.record_compile_error();
            return Err(JitError::Lower(format!(
                "expected exactly one kernel per module, got {}",
                kernels.len()
            )));
        }
        let kernel = Arc::new(kernels.remove(0));
        check_name(&kernel)?;
        let modeled = modeled_compile_time(kernel.code.len());
        inner.stats.misses += 1;
        inner.stats.wall_compile_time += wall;
        inner.stats.modeled_compile_time += modeled;
        inner.map.insert(key, Arc::clone(&kernel));
        drop(inner);
        if let (Some(store), Some(digest), Some(text)) =
            (&self.store, &src_digest, &optimized_text)
        {
            store.put_kernel(digest, req.opt_level.tag(), &kernel.name, text);
        }
        self.telemetry
            .record_compile(&kernel.name, false, wall, modeled);
        self.record_opt_stats(&opt_stats);
        Ok(kernel)
    }

    /// Report the optimizer's per-pass counters as `opt.*` telemetry (the
    /// lines `QDP_PROFILE=1` prints under "counters").
    fn record_opt_stats(&self, s: &OptStats) {
        if !self.telemetry.enabled() {
            return;
        }
        for (name, n) in [
            ("opt.loads_eliminated", s.loads_eliminated),
            ("opt.values_reused", s.values_reused),
            ("opt.copies_propagated", s.copies_propagated),
            ("opt.fmas_fused", s.fmas_fused),
            ("opt.dead_removed", s.dead_removed),
            ("opt.regs_freed", s.regs_freed),
            ("opt.kernels_skipped", s.skipped),
            ("opt.kernels_bailed", s.bailed),
        ] {
            if n > 0 {
                self.telemetry.count(name, n as u64);
            }
        }
    }

    /// Number of distinct kernels translated so far.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> KernelCacheStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_ptx::emit::emit_module;
    use qdp_ptx::module::{KernelBuilder, Module};
    use qdp_ptx::types::PtxType;

    fn tiny_ptx(name: &str) -> String {
        let mut b = KernelBuilder::new(name);
        b.param("n", PtxType::U32);
        emit_module(&Module::with_kernel(b.finish()))
    }

    #[test]
    fn compile_once_hit_afterwards() {
        let cache = KernelCache::new();
        let text = tiny_ptx("k1");
        let a = cache.compile(CompileRequest::new(&text)).unwrap();
        let b = cache.compile(CompileRequest::new(&text)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keyed_hit_is_a_probe_and_a_failed_miss_caches_nothing() {
        let cache = KernelCache::new();
        let text = tiny_ptx("k_keyed");
        let mut misses = 0;
        let mut get = |key: &str| {
            cache.compile_keyed(key, || {
                misses += 1;
                cache.compile(CompileRequest::new(&text))
            })
        };
        let a = get("key-a").unwrap();
        assert!(Arc::ptr_eq(&a, &get("key-a").unwrap()));
        // A second key for the same program runs its miss path; the
        // text-keyed cache behind it dedups.
        assert!(Arc::ptr_eq(&a, &get("key-b").unwrap()));
        assert_eq!(misses, 2);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, cache.len()), (1, 2, 1));

        let bad = || cache.compile_keyed("key-c", || cache.compile(CompileRequest::new("nonsense")));
        assert!(bad().is_err());
        assert!(bad().is_err(), "the failure was not cached");
        assert_eq!(cache.stats().compile_errors, 2);
    }

    #[test]
    fn distinct_kernels_distinct_entries() {
        let cache = KernelCache::new();
        cache.compile(CompileRequest::new(&tiny_ptx("k1"))).unwrap();
        cache.compile(CompileRequest::new(&tiny_ptx("k2"))).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn modeled_time_in_paper_range() {
        // Small and large kernels stay inside the measured 0.05–0.22 s band.
        assert!(modeled_compile_time(10) >= 0.05);
        assert!(modeled_compile_time(10) < 0.06);
        assert!(modeled_compile_time(100_000) <= 0.22);
        let mid = modeled_compile_time(1500);
        assert!((0.05..=0.22).contains(&mid));
    }

    #[test]
    fn bad_ptx_is_an_error_not_a_cache_entry() {
        let cache = KernelCache::new();
        assert!(cache.compile(CompileRequest::new("nonsense")).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn compile_errors_are_counted() {
        let tel = Arc::new(Telemetry::new());
        tel.enable();
        let cache = KernelCache::with_telemetry(Arc::clone(&tel));
        assert!(cache.compile(CompileRequest::new("not ptx at all")).is_err());
        assert!(cache.compile(CompileRequest::new("also not ptx")).is_err());
        // good kernel afterwards still works and is not an error
        cache.compile(CompileRequest::new(&tiny_ptx("ok"))).unwrap();
        let s = cache.stats();
        assert_eq!(s.compile_errors, 2);
        assert_eq!(s.misses, 1);
        let report = tel.profile_report();
        assert_eq!(report.counter("jit.compile_errors"), 2);
        assert_eq!(report.jit.compile_errors, 2);
        assert_eq!(report.jit.misses, 1);
    }

    #[test]
    fn opt_level_is_part_of_cache_key() {
        // A kernel the optimizer actually changes: two loads from the same
        // address. Compiling the same text at opt-off and opt-on must
        // produce two distinct cache entries — otherwise a process toggling
        // QDP_OPT mid-run would be served a stale kernel.
        let mut b = KernelBuilder::new("k_optkey");
        b.param("p", PtxType::U64);
        let addr = b.ld_param("p", PtxType::U64);
        let x = b.fresh_for(PtxType::F64);
        let y = b.fresh_for(PtxType::F64);
        for dst in [x, y] {
            b.push(qdp_ptx::Inst::LdGlobal {
                ty: PtxType::F64,
                dst,
                addr,
                offset: 0,
            });
        }
        let s = b.bin(qdp_ptx::BinOp::Add, PtxType::F64, x.into(), y.into());
        b.push(qdp_ptx::Inst::StGlobal {
            ty: PtxType::F64,
            addr,
            offset: 8,
            src: s.into(),
        });
        let text = emit_module(&Module::with_kernel(b.finish()));

        let cache = KernelCache::new();
        let plain = cache.compile(CompileRequest::new(&text)).unwrap();
        let opt = cache
            .compile(CompileRequest::new(&text).opt_level(OptLevel::Default))
            .unwrap();
        assert_eq!(cache.len(), 2, "same text, different opt level, two entries");
        assert_eq!(cache.stats().misses, 2);
        assert!(!Arc::ptr_eq(&plain, &opt));
        assert!(
            opt.read_bytes < plain.read_bytes,
            "optimized kernel reads less ({} vs {})",
            opt.read_bytes,
            plain.read_bytes
        );
        // Each level hits its own entry afterwards.
        let again = cache
            .compile(CompileRequest::new(&text).opt_level(OptLevel::Default))
            .unwrap();
        assert!(Arc::ptr_eq(&opt, &again));
        assert_eq!(cache.stats().hits, 1);
        // A default (opt-level-free) request routes to the opt-off entry.
        let verbatim = cache.compile(CompileRequest::new(&text)).unwrap();
        assert!(Arc::ptr_eq(&plain, &verbatim));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn verbatim_request_never_rewrites_hand_built_kernels() {
        // Same two-load kernel the opt-key test uses: the optimizer *would*
        // eliminate the second load, so a default (verbatim) request must
        // come back identical to a direct no-opt translation.
        let mut b = KernelBuilder::new("k_verbatim");
        b.param("p", PtxType::U64);
        let addr = b.ld_param("p", PtxType::U64);
        let x = b.fresh_for(PtxType::F64);
        let y = b.fresh_for(PtxType::F64);
        for dst in [x, y] {
            b.push(qdp_ptx::Inst::LdGlobal {
                ty: PtxType::F64,
                dst,
                addr,
                offset: 0,
            });
        }
        let s = b.bin(qdp_ptx::BinOp::Add, PtxType::F64, x.into(), y.into());
        b.push(qdp_ptx::Inst::StGlobal {
            ty: PtxType::F64,
            addr,
            offset: 8,
            src: s.into(),
        });
        let text = emit_module(&Module::with_kernel(b.finish()));

        let cache = KernelCache::new();
        let verbatim = cache.compile(CompileRequest::new(&text)).unwrap();
        let (direct, _) = compile_ptx_opt(&text, OptLevel::None).unwrap();
        assert_eq!(verbatim.code.len(), direct[0].code.len());
        assert_eq!(verbatim.read_bytes, direct[0].read_bytes);
        let opt = cache
            .compile(CompileRequest::new(&text).opt_level(OptLevel::Default))
            .unwrap();
        assert!(
            opt.read_bytes < verbatim.read_bytes,
            "sanity: the optimizer does change this kernel"
        );
    }

    #[test]
    fn name_mismatch_is_an_error() {
        let cache = KernelCache::new();
        let text = tiny_ptx("k_named");
        assert!(cache
            .compile(CompileRequest::new(&text).name("k_named"))
            .is_ok());
        // Checked on the hit path too.
        let err = cache
            .compile(CompileRequest::new(&text).name("other"))
            .unwrap_err();
        assert!(format!("{err:?}").contains("other"));
    }

    #[test]
    fn hits_and_misses_reach_telemetry() {
        let tel = Arc::new(Telemetry::new());
        tel.enable();
        let cache = KernelCache::with_telemetry(Arc::clone(&tel));
        let text = tiny_ptx("k_tel");
        let k = cache.compile(CompileRequest::new(&text)).unwrap();
        cache.compile(CompileRequest::new(&text)).unwrap();
        cache.compile(CompileRequest::new(&text)).unwrap();
        let report = tel.profile_report();
        let row = report.kernel(&k.name).expect("kernel row");
        assert_eq!(row.jit_misses, 1);
        assert_eq!(row.jit_hits, 2);
        assert!(row.modeled_compile_time >= 0.05);
        assert!((report.jit.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
