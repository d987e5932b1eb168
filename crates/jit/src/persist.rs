//! The persistent on-disk kernel store (JIT cache + auto-tuner database).
//!
//! The paper's stack pays the JIT translation cost (0.05–0.22 s per
//! kernel, §III-D) and the §VII tuner's trial launches once per *machine*,
//! not once per process: the NVIDIA driver keeps an on-disk binary cache,
//! and production QDP-JIT/Chroma deployments ship QUDA-style tunecaches.
//! This module is the simulated equivalent: a single JSON file holding
//!
//! * the **optimized PTX** of every compiled program (post-`QDP_OPT`
//!   pipeline), keyed by `(source-PTX digest, opt level, device
//!   fingerprint)`, so a warm process lowers the already-optimized text
//!   verbatim — zero optimizer passes, zero cache misses;
//! * the **settled block size** of every tuned kernel, keyed by
//!   `(kernel name, device fingerprint)`, so a warm process launches at
//!   the tuned size immediately — zero trial launches.
//!
//! The file carries a format version; serialization uses the in-tree JSON
//! writer/parser from `qdp-telemetry` (zero-dependency policy). Writes are
//! atomic (temp file + rename). A truncated, garbage, or version-skewed
//! file — or an entry whose settled block no longer fits the device — is
//! counted under `persist.corrupt` and falls back to a clean recompile /
//! re-tune; corruption never panics and never poisons results.

use crate::autotune::MIN_BLOCK;
use qdp_gpu_sim::sync::Mutex;
use qdp_telemetry::json::{self, Value};
use qdp_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// On-disk cache format version. Bump on any schema change: a mismatched
/// file is ignored wholesale (clean recompile), never reinterpreted.
pub const FORMAT_VERSION: u32 = 1;

/// File name inside `QDP_CACHE_DIR`.
pub const STORE_FILE: &str = "qdp-kernel-store.json";

#[derive(Debug, Clone, PartialEq)]
struct KernelEntry {
    name: String,
    ptx: String,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct TunedEntry {
    block: u32,
    time: f64,
}

#[derive(Default)]
struct Inner {
    /// (device fingerprint, source digest, opt tag) → optimized program.
    /// Entries of *other* devices are kept and written back verbatim, so
    /// one store file serves heterogeneous contexts without clobbering.
    kernels: BTreeMap<(String, String, String), KernelEntry>,
    /// (device fingerprint, kernel name) → settled tuner state.
    tuned: BTreeMap<(String, String), TunedEntry>,
}

/// Declarative persistent-store configuration — the typed form of the
/// `QDP_CACHE_DIR` / `QDP_CACHE_CLEAR` knobs: persistence is on exactly
/// when a directory is given. Build one
/// programmatically and pass it to [`KernelStore::from_config`];
/// `QdpConfig::from_env` in `qdp-core` is what reads the variables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreConfig {
    /// Directory holding the store file; `None` disables persistence
    /// (`QDP_CACHE_DIR=<dir>`).
    pub dir: Option<PathBuf>,
    /// Remove the store file before loading (`QDP_CACHE_CLEAR=1`).
    pub clear: bool,
}

impl StoreConfig {
    /// No persistence (the hermetic default).
    pub fn new() -> StoreConfig {
        StoreConfig::default()
    }

    /// Persist into `dir`.
    pub fn in_dir(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: Some(dir.into()),
            ..StoreConfig::default()
        }
    }
}

/// Handle on the persistent kernel store, bound to one device fingerprint.
/// Shared (`Arc`) between a context's `KernelCache` and `AutoTuner`.
pub struct KernelStore {
    path: PathBuf,
    device_fp: String,
    telemetry: Arc<Telemetry>,
    inner: Mutex<Inner>,
}

impl KernelStore {
    /// Open the store described by a typed [`StoreConfig`]. Returns `None`
    /// (no persistence — per-process JIT cache only, which keeps test runs
    /// hermetic by default) when no directory is set.
    pub fn from_config(
        cfg: &StoreConfig,
        device_fp: &str,
        telemetry: &Arc<Telemetry>,
    ) -> Option<Arc<KernelStore>> {
        let dir = cfg.dir.as_ref()?;
        if cfg.clear {
            let _ = std::fs::remove_file(dir.join(STORE_FILE));
        }
        Some(KernelStore::open(dir, device_fp, Arc::clone(telemetry)))
    }

    /// Open (and load) the store file inside `dir`, scoped to `device_fp`.
    /// A missing file is a cold start; an unreadable one is corruption —
    /// both start empty, neither fails.
    pub fn open(
        dir: impl AsRef<Path>,
        device_fp: &str,
        telemetry: Arc<Telemetry>,
    ) -> Arc<KernelStore> {
        let path = dir.as_ref().join(STORE_FILE);
        let store = KernelStore {
            path,
            device_fp: device_fp.to_string(),
            telemetry,
            inner: Mutex::new(Inner::default()),
        };
        store.load();
        Arc::new(store)
    }

    /// Path of the backing file.
    pub fn file_path(&self) -> &Path {
        &self.path
    }

    /// Device fingerprint this handle serves.
    pub fn device_fingerprint(&self) -> &str {
        &self.device_fp
    }

    /// Stored optimized PTX for `(src_digest, opt_tag)` on this device.
    /// Counts `persist.hit` / `persist.miss`.
    pub fn lookup_kernel(&self, src_digest: &str, opt_tag: &str) -> Option<String> {
        let key = (
            self.device_fp.clone(),
            src_digest.to_string(),
            opt_tag.to_string(),
        );
        let inner = self.inner.lock();
        match inner.kernels.get(&key) {
            Some(e) => {
                self.telemetry.count("persist.hit", 1);
                Some(e.ptx.clone())
            }
            None => {
                self.telemetry.count("persist.miss", 1);
                None
            }
        }
    }

    /// Record the optimized PTX compiled from `(src_digest, opt_tag)` and
    /// flush to disk. Counts `persist.write` on a successful file write.
    pub fn put_kernel(&self, src_digest: &str, opt_tag: &str, name: &str, optimized_ptx: &str) {
        let key = (
            self.device_fp.clone(),
            src_digest.to_string(),
            opt_tag.to_string(),
        );
        let entry = KernelEntry {
            name: name.to_string(),
            ptx: optimized_ptx.to_string(),
        };
        let mut inner = self.inner.lock();
        if inner.kernels.get(&key) == Some(&entry) {
            return;
        }
        inner.kernels.insert(key, entry);
        self.save(&inner);
    }

    /// Drop a stored kernel entry (used when a persisted program fails to
    /// lower — stale or corrupted payload). Counts `persist.corrupt`.
    pub fn evict_kernel(&self, src_digest: &str, opt_tag: &str) {
        let key = (
            self.device_fp.clone(),
            src_digest.to_string(),
            opt_tag.to_string(),
        );
        let mut inner = self.inner.lock();
        if inner.kernels.remove(&key).is_some() {
            self.telemetry.count("persist.corrupt", 1);
            self.save(&inner);
            drop(inner);
            self.record_corruption("stored kernel failed to lower");
        }
    }

    /// Note a corruption fallback in the flight recorder and dump the ring:
    /// store corruption is one of the black-box trigger conditions.
    fn record_corruption(&self, detail: &str) {
        self.telemetry.record_flight(
            "persist_corrupt",
            &format!("{}: {detail}", self.path.display()),
            &[],
        );
        self.telemetry.dump_flight("persist_corrupt");
    }

    /// Settled `(block, time)` for `kernel` on this device, validated
    /// against the device's launch limits. An out-of-range block (for
    /// example, a file written for a device with a larger maximum block)
    /// is evicted and counted under `persist.corrupt`, forcing a clean
    /// re-tune instead of a guaranteed launch failure. Counts
    /// `persist.tuner_seeded` on a valid hit.
    pub fn lookup_tuned(&self, kernel: &str, max_block: u32) -> Option<(u32, f64)> {
        let key = (self.device_fp.clone(), kernel.to_string());
        let mut inner = self.inner.lock();
        let e = *inner.tuned.get(&key)?;
        if !(MIN_BLOCK..=max_block).contains(&e.block) || !e.time.is_finite() || e.time < 0.0 {
            inner.tuned.remove(&key);
            self.telemetry.count("persist.corrupt", 1);
            self.save(&inner);
            drop(inner);
            self.record_corruption(&format!("tuned block {} out of range for {kernel}", e.block));
            return None;
        }
        self.telemetry.count("persist.tuner_seeded", 1);
        self.telemetry.record_tuner_seeded(kernel);
        Some((e.block, e.time))
    }

    /// Record a settled tuner state and flush to disk.
    pub fn put_tuned(&self, kernel: &str, block: u32, time: f64) {
        let key = (self.device_fp.clone(), kernel.to_string());
        let entry = TunedEntry { block, time };
        let mut inner = self.inner.lock();
        if inner.tuned.get(&key) == Some(&entry) {
            return;
        }
        inner.tuned.insert(key, entry);
        self.save(&inner);
    }

    /// Number of stored kernel programs (all devices).
    pub fn n_kernels(&self) -> usize {
        self.inner.lock().kernels.len()
    }

    /// Number of stored tuner entries (all devices).
    pub fn n_tuned(&self) -> usize {
        self.inner.lock().tuned.len()
    }

    /// Write the current contents to disk (atomic temp-file + rename).
    /// `put_*` flush eagerly, so this is only needed as a final safety net
    /// (context shutdown).
    pub fn flush(&self) {
        let inner = self.inner.lock();
        self.save(&inner);
    }

    // --- disk format -------------------------------------------------------

    fn serialize(inner: &Inner) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!("{{\n  \"version\": {FORMAT_VERSION},\n  \"kernels\": ["));
        let mut first = true;
        for ((dev, src, opt), e) in &inner.kernels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"device\": \"{}\", \"src\": \"{}\", \"opt\": \"{}\", \"name\": \"{}\", \"ptx\": \"{}\"}}",
                json::escape(dev),
                json::escape(src),
                json::escape(opt),
                json::escape(&e.name),
                json::escape(&e.ptx),
            ));
        }
        out.push_str("\n  ],\n  \"tuned\": [");
        let mut first = true;
        for ((dev, kernel), e) in &inner.tuned {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"device\": \"{}\", \"kernel\": \"{}\", \"block\": {}, \"time\": {}}}",
                json::escape(dev),
                json::escape(kernel),
                e.block,
                json::number(e.time),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Atomic write: temp file in the same directory, then rename over the
    /// store file. A failed write is reported and dropped — the in-memory
    /// state stays authoritative for this process, and the old file (if
    /// any) stays intact.
    fn save(&self, inner: &Inner) {
        let text = KernelStore::serialize(inner);
        let tmp = self
            .path
            .with_extension(format!("tmp.{}", std::process::id()));
        let result = (|| -> std::io::Result<()> {
            if let Some(dir) = self.path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(&tmp, &text)?;
            std::fs::rename(&tmp, &self.path)
        })();
        match result {
            Ok(()) => self.telemetry.count("persist.write", 1),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                self.telemetry.count("persist.write_errors", 1);
                eprintln!(
                    "qdp-jit: cannot write kernel store {}: {e}",
                    self.path.display()
                );
            }
        }
    }

    /// Load the store file. Missing file → cold start (no counter). Any
    /// parse failure, version mismatch, or malformed entry → the broken
    /// part is skipped and `persist.corrupt` is bumped; the process
    /// continues with whatever (possibly nothing) survived.
    fn load(&self) {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(_) => return, // cold start
        };
        let doc = match json::parse(&text) {
            Ok(v) => v,
            Err(_) => {
                self.telemetry.count("persist.corrupt", 1);
                self.record_corruption("store file is not valid JSON");
                return;
            }
        };
        let version = doc.get("version").and_then(Value::as_f64);
        if version != Some(FORMAT_VERSION as f64) {
            self.telemetry.count("persist.corrupt", 1);
            self.record_corruption("store file version mismatch");
            return;
        }
        let mut inner = self.inner.lock();
        let mut corrupt = 0u64;
        for e in doc
            .get("kernels")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            let fields = (
                e.get("device").and_then(Value::as_str),
                e.get("src").and_then(Value::as_str),
                e.get("opt").and_then(Value::as_str),
                e.get("name").and_then(Value::as_str),
                e.get("ptx").and_then(Value::as_str),
            );
            match fields {
                (Some(dev), Some(src), Some(opt), Some(name), Some(ptx)) => {
                    inner.kernels.insert(
                        (dev.to_string(), src.to_string(), opt.to_string()),
                        KernelEntry {
                            name: name.to_string(),
                            ptx: ptx.to_string(),
                        },
                    );
                }
                _ => corrupt += 1,
            }
        }
        for e in doc.get("tuned").and_then(Value::as_array).unwrap_or(&[]) {
            let dev = e.get("device").and_then(Value::as_str);
            let kernel = e.get("kernel").and_then(Value::as_str);
            let block = e.get("block").and_then(Value::as_f64);
            let time = e.get("time").and_then(Value::as_f64);
            match (dev, kernel, block, time) {
                (Some(dev), Some(kernel), Some(block), Some(time))
                    if block.fract() == 0.0 && block >= 1.0 && block <= u32::MAX as f64 =>
                {
                    inner.tuned.insert(
                        (dev.to_string(), kernel.to_string()),
                        TunedEntry {
                            block: block as u32,
                            time,
                        },
                    );
                }
                _ => corrupt += 1,
            }
        }
        drop(inner);
        if corrupt > 0 {
            self.telemetry.count("persist.corrupt", corrupt);
            self.record_corruption(&format!("{corrupt} malformed store entries skipped"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tel() -> Arc<Telemetry> {
        let t = Arc::new(Telemetry::new());
        t.enable();
        t
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "qdp_persist_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrips_kernels_and_tuned_state() {
        let dir = tmpdir("roundtrip");
        let t = tel();
        {
            let s = KernelStore::open(&dir, "devA", Arc::clone(&t));
            s.put_kernel("aaaa", "o1", "qdp_k", ".entry qdp_k { ret; }");
            s.put_tuned("qdp_k", 256, 1.5e-4);
        }
        let s2 = KernelStore::open(&dir, "devA", Arc::clone(&t));
        assert_eq!(
            s2.lookup_kernel("aaaa", "o1").as_deref(),
            Some(".entry qdp_k { ret; }")
        );
        assert_eq!(s2.lookup_tuned("qdp_k", 1024), Some((256, 1.5e-4)));
        let r = t.profile_report();
        assert!(r.counter("persist.write") >= 2);
        assert_eq!(r.counter("persist.hit"), 1);
        assert_eq!(r.counter("persist.tuner_seeded"), 1);
        assert_eq!(r.counter("persist.corrupt"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_are_scoped_by_device_and_preserved_across_saves() {
        let dir = tmpdir("scope");
        let t = tel();
        {
            let a = KernelStore::open(&dir, "devA", Arc::clone(&t));
            a.put_kernel("aaaa", "o1", "k", "ptx-for-A");
            a.put_tuned("k", 512, 1e-4);
        }
        {
            // A different device neither sees A's entries nor clobbers them.
            let b = KernelStore::open(&dir, "devB", Arc::clone(&t));
            assert_eq!(b.lookup_kernel("aaaa", "o1"), None);
            assert_eq!(b.lookup_tuned("k", 1024), None);
            b.put_kernel("aaaa", "o1", "k", "ptx-for-B");
        }
        let a2 = KernelStore::open(&dir, "devA", Arc::clone(&t));
        assert_eq!(a2.lookup_kernel("aaaa", "o1").as_deref(), Some("ptx-for-A"));
        assert_eq!(a2.lookup_tuned("k", 1024), Some((512, 1e-4)));
        assert_eq!(a2.n_kernels(), 2, "both devices' programs persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn opt_level_scopes_entries() {
        let dir = tmpdir("optscope");
        let t = tel();
        let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
        s.put_kernel("aaaa", "o1", "k", "optimized");
        assert_eq!(s.lookup_kernel("aaaa", "o0"), None);
        assert_eq!(s.lookup_kernel("aaaa", "o2"), None);
        assert_eq!(s.lookup_kernel("aaaa", "o1").as_deref(), Some("optimized"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_falls_back_clean() {
        let dir = tmpdir("trunc");
        let t = tel();
        {
            let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
            s.put_kernel("aaaa", "o1", "k", "some ptx");
        }
        let path = dir.join(STORE_FILE);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
        assert_eq!(s.lookup_kernel("aaaa", "o1"), None);
        assert_eq!(t.profile_report().counter("persist.corrupt"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_json_falls_back_clean() {
        let dir = tmpdir("garbage");
        let t = tel();
        std::fs::write(dir.join(STORE_FILE), "not json at all }{").unwrap();
        let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
        assert_eq!(s.n_kernels(), 0);
        assert_eq!(t.profile_report().counter("persist.corrupt"), 1);
        // the broken file is replaced wholesale on the next write
        s.put_kernel("aaaa", "o1", "k", "fresh");
        let s2 = KernelStore::open(&dir, "dev", Arc::clone(&t));
        assert_eq!(s2.lookup_kernel("aaaa", "o1").as_deref(), Some("fresh"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_ignored_wholesale() {
        let dir = tmpdir("version");
        let t = tel();
        std::fs::write(
            dir.join(STORE_FILE),
            r#"{"version": 99, "kernels": [{"device":"dev","src":"aaaa","opt":"o1","name":"k","ptx":"stale"}], "tuned": []}"#,
        )
        .unwrap();
        let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
        assert_eq!(s.lookup_kernel("aaaa", "o1"), None);
        assert_eq!(t.profile_report().counter("persist.corrupt"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_entries_are_skipped_not_fatal() {
        let dir = tmpdir("badentry");
        let t = tel();
        std::fs::write(
            dir.join(STORE_FILE),
            r#"{"version": 1,
                "kernels": [
                  {"device":"dev","src":"good","opt":"o1","name":"k","ptx":"kept"},
                  {"device":"dev","src":"missing-fields"}
                ],
                "tuned": [
                  {"device":"dev","kernel":"k","block":256,"time":1e-4},
                  {"device":"dev","kernel":"bad","block":2.5,"time":1e-4}
                ]}"#,
        )
        .unwrap();
        let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
        assert_eq!(s.lookup_kernel("good", "o1").as_deref(), Some("kept"));
        assert_eq!(s.lookup_tuned("k", 1024), Some((256, 1e-4)));
        assert_eq!(s.lookup_tuned("bad", 1024), None);
        assert_eq!(t.profile_report().counter("persist.corrupt"), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_settled_block_is_evicted_for_retune() {
        let dir = tmpdir("oversize");
        let t = tel();
        {
            // tuned on a device allowing block 2048 …
            let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
            s.put_tuned("k", 2048, 1e-4);
        }
        // … served on one whose max block is 1024: must re-tune, not fail.
        let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
        assert_eq!(s.lookup_tuned("k", 1024), None);
        assert_eq!(t.profile_report().counter("persist.corrupt"), 1);
        // the poisoned entry is gone from disk too
        let s2 = KernelStore::open(&dir, "dev", tel());
        assert_eq!(s2.n_tuned(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ptx_with_special_characters_roundtrips() {
        let dir = tmpdir("escape");
        let t = tel();
        let ptx = ".entry k {\n\t// \"quoted\" \\ backslash\n\tret;\n}";
        {
            let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
            s.put_kernel("aaaa", "o1", "k", ptx);
        }
        let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
        assert_eq!(s.lookup_kernel("aaaa", "o1").as_deref(), Some(ptx));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
