//! The compiled-kernel cache.
//!
//! Each distinct kernel is JIT-translated once per process — exactly the
//! behaviour the paper relies on when it estimates the translation overhead
//! of an HMC trajectory as "number of distinct kernels × 0.05–0.22 seconds"
//! (§III-D, §VIII-D).
//!
//! A generated kernel has one identity, the structural key of its statement
//! group as a token sequence: [`KernelCache::compile_keyed`] is the front
//! door the launch path uses, and a warm key is one map probe — a hash of
//! the tokens picks the bucket, an exact comparison of the tokens decides
//! the hit. A cold key lowers the module the code generator built, as
//! built: nothing prints or parses it, unless a persistent store is
//! attached, whose digests are of the printed text. The text stays the
//! kernel's canonical form — the goldens, the store and hand-written PTX
//! read it — and [`KernelCache::compile`] is the cache "keyed on PTX text"
//! for callers that hold PTX: it parses the text and shares the lowering
//! and counting with the keyed path. Nothing here rewrites a program.

use crate::lower::{lower_kernel, CompiledKernel, JitError};
use crate::persist::KernelStore;
use qdp_gpu_sim::sync::Mutex;
use qdp_ptx::emit::emit_module;
use qdp_ptx::hash::{stable_module_digest, stable_text_digest};
use qdp_ptx::module::{Kernel, Module};
use qdp_ptx::opt::OptLevel;
use qdp_ptx::parse::parse_module;
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
    /// are never cached, so each failing program counts on every attempt.
    pub compile_errors: u64,
    /// Wall-clock seconds spent in translations, for misses and persist
    /// hits alike: validate and lower — and, for a text request, parse
    /// first.
    pub wall_compile_time: f64,
    /// *Modelled* translation seconds — the paper's 0.05–0.22 s per kernel
    /// figure, scaled by program size. Benchmark harnesses report this.
    pub modeled_compile_time: f64,
    /// In-memory misses whose program the persistent kernel store records
    /// as translated on this device before (the driver's binary cache):
    /// the program is lowered, with no modelled translation cost and no
    /// `misses` increment.
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

/// One compile request: PTX text, optionally with the kernel name it must
/// define. Built with the builder methods and handed to
/// [`KernelCache::compile`], the cache's one text-keyed entry point.
///
/// ```ignore
/// let k = cache.compile(CompileRequest::new(&ptx))?;                    // verbatim
/// let k = cache.compile(CompileRequest::new(&ptx).name("my_kernel"))?;  // checked
/// ```
///
/// Every request translates its text **verbatim**: the code generator
/// prints its final program at the context's optimizer level, and callers
/// that hand-build kernels (tests, benchmarks) get exactly the
/// instructions they wrote.
#[derive(Debug, Clone, Copy)]
pub struct CompileRequest<'a> {
    ptx: &'a str,
    name: Option<&'a str>,
}

impl<'a> CompileRequest<'a> {
    /// A verbatim, unchecked-name request for `ptx`.
    pub fn new(ptx: &'a str) -> CompileRequest<'a> {
        CompileRequest { ptx, name: None }
    }

    /// No effect: the text already is the program at its optimizer level,
    /// and every request compiles verbatim. Kept only because the frozen
    /// benchmark crate calls it.
    pub fn opt_level(self, _level: OptLevel) -> CompileRequest<'a> {
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

/// A cache of JIT-translated kernels: generated kernels filed under their
/// statement group's structural key tokens, requested PTX under its text.
#[derive(Default)]
pub struct KernelCache {
    inner: Mutex<Inner>,
    telemetry: Arc<Telemetry>,
    store: Option<Arc<KernelStore>>,
}

#[derive(Default)]
struct Inner {
    /// Hash of a requested PTX text → kernel.
    map: HashMap<u64, Arc<CompiledKernel>>,
    /// Structural key tokens → generated kernel.
    keyed: HashMap<Box<[u32]>, Arc<CompiledKernel>>,
    stats: KernelCacheStats,
}

/// Where a kernel is filed: under its requested text's hash, or under its
/// structural key.
#[derive(Clone, Copy)]
enum Slot<'a> {
    Text(u64),
    Key(&'a [u32]),
}

impl Inner {
    fn get(&self, slot: Slot<'_>) -> Option<&Arc<CompiledKernel>> {
        match slot {
            Slot::Text(hash) => self.map.get(&hash),
            Slot::Key(key) => self.keyed.get(key),
        }
    }
}

/// Does `module` come back from its own text? A generated kernel must: the
/// goldens and the store's digests read its text, and a launch lowers the
/// module itself.
fn reprints(module: &Module) -> bool {
    parse_module(&emit_module(module)).is_ok_and(|m| m == *module)
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
    /// persistent kernel store: an in-memory miss whose text the store has
    /// seen on this device costs no modelled translation, and fresh
    /// translations record their text's digest.
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

    /// The kernel filed under the structural `key` tokens, or — the first
    /// time a key is seen — the lowering of the kernel `build` generates.
    /// A hit is one map probe, keys compared exactly, and counts in
    /// [`KernelCacheStats::hits`]. A miss lowers the built module as it is
    /// (no text is printed or parsed, except to digest it for an attached
    /// store) and counts like a text-keyed miss. A failed `build` counts
    /// nothing; a failed lowering counts one
    /// [`KernelCacheStats::compile_errors`]; neither caches anything. The
    /// key must determine the program (so its optimizer level too).
    pub fn compile_keyed<E: From<JitError>>(
        &self,
        key: &[u32],
        build: impl FnOnce() -> Result<Kernel, E>,
    ) -> Result<Arc<CompiledKernel>, E> {
        let slot = Slot::Key(key);
        if let Some(k) = self.hit(slot) {
            return Ok(k);
        }
        let module = Module::with_kernel(build()?);
        let digest = || stable_module_digest(&module);
        let kernel = self.translate(slot, Instant::now(), &module.kernels[0], digest)?;
        debug_assert!(
            reprints(&module),
            "kernel {} does not parse back as itself from its own text",
            kernel.name
        );
        Ok(kernel)
    }

    /// Translate (or fetch) the single kernel described by `req` — the
    /// text-keyed compile entry point (see [`CompileRequest`]).
    ///
    /// The text must contain exactly one `.entry` — the code generator
    /// emits one module per expression, like the paper's.
    pub fn compile(&self, req: CompileRequest<'_>) -> Result<Arc<CompiledKernel>, JitError> {
        let check_name = |name: &str| -> Result<(), JitError> {
            match req.name {
                Some(want) if name != want => Err(JitError::Lower(format!(
                    "compile request expected kernel `{want}`, module defines `{name}`"
                ))),
                _ => Ok(()),
            }
        };
        let mut h = DefaultHasher::new();
        req.ptx.hash(&mut h);
        let slot = Slot::Text(h.finish());
        if let Some(k) = self.hit(slot) {
            check_name(&k.name)?;
            return Ok(k);
        }

        let t0 = Instant::now();
        let parsed = parse_module(req.ptx)
            .map_err(JitError::from)
            .and_then(|mut module| match module.kernels.len() {
                1 => Ok(module.kernels.remove(0)),
                n => Err(JitError::Lower(format!(
                    "expected exactly one kernel per module, got {n}"
                ))),
            });
        let kernel = parsed.inspect_err(|_| self.count_error())?;
        check_name(&kernel.name)?;
        self.translate(slot, t0, &kernel, || stable_text_digest(req.ptx))
    }

    /// A probe of `slot`: the kernel filed there, counted as a hit.
    fn hit(&self, slot: Slot<'_>) -> Option<Arc<CompiledKernel>> {
        let mut inner = self.inner.lock();
        let k = inner.get(slot).cloned()?;
        inner.stats.hits += 1;
        drop(inner);
        self.telemetry.record_compile(&k.name, true, 0.0, 0.0);
        Some(k)
    }

    fn count_error(&self) {
        self.inner.lock().stats.compile_errors += 1;
        self.telemetry.record_compile_error();
    }

    /// The miss path of both doors: lower `kernel` outside the lock, so one
    /// thread's cold translation never blocks another thread's lookup, and
    /// charge the wall time since `t0`. The kernel is filed under `slot`
    /// only if the slot is still empty. A thread that lost the race to
    /// translate it returns the winner's kernel — one program, one
    /// `CompiledKernel`, one tuning record — and counts the hit it would
    /// have counted had it waited for the lock; only the winner counts its
    /// translation. `digest` digests the program's text, and runs only
    /// when a store is attached.
    fn translate(
        &self,
        slot: Slot<'_>,
        t0: Instant,
        kernel: &Kernel,
        digest: impl FnOnce() -> String,
    ) -> Result<Arc<CompiledKernel>, JitError> {
        let kernel = Arc::new(lower_kernel(kernel).inspect_err(|_| self.count_error())?);
        let wall = t0.elapsed().as_secs_f64();

        let mut inner = self.inner.lock();
        if let Some(winner) = inner.get(slot).cloned() {
            inner.stats.hits += 1;
            drop(inner);
            self.telemetry.record_compile(&winner.name, true, 0.0, 0.0);
            return Ok(winner);
        }
        let filed = Arc::clone(&kernel);
        match slot {
            Slot::Text(hash) => inner.map.insert(hash, filed),
            Slot::Key(key) => inner.keyed.insert(key.into(), filed),
        };
        inner.stats.wall_compile_time += wall;
        drop(inner);

        // A program whose digest the store holds was translated on this
        // device by an earlier process: it was lowered like any other, but
        // with no modelled translation cost (driver binary-cache
        // semantics), and counts as a hit, not a miss.
        let digest = self.store.as_ref().map(|s| (s, digest()));
        if digest.as_ref().is_some_and(|(s, d)| s.lookup_kernel(d)) {
            self.inner.lock().stats.persist_hits += 1;
            self.telemetry.record_compile(&kernel.name, true, wall, 0.0);
            self.telemetry.record_persist_hit(&kernel.name);
            return Ok(kernel);
        }
        let modeled = modeled_compile_time(kernel.ptx_insts);
        let mut inner = self.inner.lock();
        inner.stats.misses += 1;
        inner.stats.modeled_compile_time += modeled;
        drop(inner);
        if let Some((s, d)) = &digest {
            s.put_kernel(d);
        }
        self.telemetry
            .record_compile(&kernel.name, false, wall, modeled);
        Ok(kernel)
    }

    /// The cached kernel named `name`, generated or requested, if any: how
    /// a test or a tool reads a launched kernel's code and tuning record.
    /// A scan of the whole cache, never on the launch path.
    pub fn by_name(&self, name: &str) -> Option<Arc<CompiledKernel>> {
        let inner = self.inner.lock();
        let mut all = inner.keyed.values().chain(inner.map.values());
        all.find(|k| k.name == name).cloned()
    }

    /// Number of distinct kernels translated so far: each generated key and
    /// each requested text once.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock();
        inner.keyed.len() + inner.map.len()
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
    use crate::lower::compile_ptx;
    use qdp_ptx::module::KernelBuilder;
    use qdp_ptx::types::PtxType;
    use qdp_ptx::{BinOp, Operand};

    fn tiny_kernel(name: &str) -> Kernel {
        let mut b = KernelBuilder::new(name);
        b.param("n", PtxType::U32);
        b.finish()
    }

    fn tiny_ptx(name: &str) -> String {
        emit_module(&Module::with_kernel(tiny_kernel(name)))
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
    fn keyed_hit_is_a_probe_and_a_failed_build_caches_nothing() {
        let cache = KernelCache::new();
        let builds = std::cell::Cell::new(0);
        let get = |key: &[u32]| {
            cache.compile_keyed(key, || {
                builds.set(builds.get() + 1);
                Ok::<_, JitError>(tiny_kernel("k_keyed"))
            })
        };
        let a = get(&[1, 2]).unwrap();
        assert!(Arc::ptr_eq(&a, &get(&[1, 2]).unwrap()));
        assert_eq!(builds.get(), 1, "a warm key builds nothing");
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, cache.len()), (1, 1, 1));
        assert!(Arc::ptr_eq(&a, &cache.by_name("k_keyed").unwrap()));
        assert!(cache.by_name("k_other").is_none());
        // The module is lowered as its text would be.
        let text = compile_ptx(&tiny_ptx("k_keyed")).unwrap();
        assert_eq!(format!("{a:?}"), format!("{:?}", text[0]));

        // `and.f64` parses but is outside the dialect: validation turns the
        // lowering away on every attempt, and nothing is filed.
        let invalid = || {
            let mut b = KernelBuilder::new("k_invalid");
            let x = b.mov(PtxType::F64, Operand::ImmF(1.0));
            b.bin(BinOp::And, PtxType::F64, x.into(), x.into());
            Ok::<_, JitError>(b.finish())
        };
        assert!(cache.compile_keyed(&[3], invalid).is_err());
        assert!(
            cache.compile_keyed(&[3], invalid).is_err(),
            "the failure was not cached"
        );
        // A build that fails never reaches the JIT.
        let no_kernel = || Err(JitError::Lower("no kernel".into()));
        assert!(cache.compile_keyed(&[4], no_kernel).is_err());
        let s = cache.stats();
        assert_eq!((s.compile_errors, s.misses, cache.len()), (2, 1, 1));
    }

    /// Four threads released together onto one cold text, then onto one
    /// cold key: whichever translations overlap, every thread gets the one
    /// kernel, and the counts are those of four serialized requests.
    #[test]
    fn racing_cold_requests_share_one_kernel() {
        fn race(
            get: impl Fn(&KernelCache) -> Arc<CompiledKernel> + Send + Sync + 'static,
        ) -> (Vec<Arc<CompiledKernel>>, KernelCacheStats) {
            let cache = Arc::new(KernelCache::new());
            let barrier = Arc::new(std::sync::Barrier::new(4));
            let get = Arc::new(get);
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    let (cache, barrier, get) =
                        (Arc::clone(&cache), Arc::clone(&barrier), Arc::clone(&get));
                    std::thread::spawn(move || {
                        barrier.wait();
                        get(&cache)
                    })
                })
                .collect();
            let kernels = threads.into_iter().map(|t| t.join().unwrap()).collect();
            (kernels, cache.stats())
        }
        let text = Arc::new(tiny_ptx("k_race"));
        let by_text = race(move |c| c.compile(CompileRequest::new(&text)).unwrap());
        let by_key = race(|c| {
            c.compile_keyed(&[4], || Ok::<_, JitError>(tiny_kernel("k_race")))
                .unwrap()
        });
        for (kernels, stats) in [by_text, by_key] {
            assert!(kernels.iter().all(|k| Arc::ptr_eq(k, &kernels[0])));
            assert_eq!((stats.misses, stats.hits), (1, 3));
        }
    }

    /// Two threads that both missed one cold key — each builds and lowers,
    /// since both wait for the other inside `build` — get one kernel: the
    /// winner counts the miss and writes the store's one digest, the loser
    /// counts a hit.
    #[test]
    fn a_cold_key_both_threads_missed_is_counted_once() {
        let dir = std::env::temp_dir().join(format!("qdp_cache_race_{}", std::process::id()));
        let store = KernelStore::open(&dir, "dev", Arc::new(Telemetry::new()));
        let cache = Arc::new(KernelCache::with_store(
            Arc::new(Telemetry::new()),
            Some(Arc::clone(&store)),
        ));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    cache
                        .compile_keyed(&[5], || {
                            barrier.wait();
                            Ok::<_, JitError>(tiny_kernel("k_both_missed"))
                        })
                        .unwrap()
                })
            })
            .collect();
        let kernels: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let s = cache.stats();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(Arc::ptr_eq(&kernels[0], &kernels[1]));
        assert_eq!(
            (s.misses, s.hits, s.persist_hits, cache.len()),
            (1, 1, 0, 1)
        );
        assert_eq!(store.n_kernels(), 1);
        assert!(store.lookup_kernel(&stable_text_digest(&tiny_ptx("k_both_missed"))));
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
    fn every_request_compiles_verbatim() {
        // Two loads from the same address: a rewriting JIT would merge
        // them. Every request lowers the text as written, and the
        // optimizer level of a request changes nothing.
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
        let direct = compile_ptx(&text).unwrap();
        // Unlaunched, both hold an empty tuning record: their Debug forms
        // compare every field.
        assert_eq!(format!("{verbatim:?}"), format!("{:?}", direct[0]));
        assert_eq!(verbatim.read_bytes, 16, "both loads kept");
        let leveled = cache
            .compile(CompileRequest::new(&text).opt_level(OptLevel::Default))
            .unwrap();
        assert!(Arc::ptr_eq(&verbatim, &leveled));
        assert_eq!((cache.len(), cache.stats().hits), (1, 1));
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
