//! The persistent on-disk kernel store (JIT cache + auto-tuner database).
//!
//! The paper's stack pays the JIT translation cost (0.05–0.22 s per
//! kernel, §III-D) and the §VII tuner's trial launches once per *machine*,
//! not once per process: the NVIDIA driver keeps an on-disk binary cache,
//! and production QDP-JIT/Chroma deployments ship QUDA-style tunecaches.
//! This module is the simulated equivalent: a single JSON file holding
//!
//! * the **digest** of every program translated on a device, keyed by
//!   `(device fingerprint, source-PTX digest)`, so a warm process pays no
//!   modelled translation cost and counts no cache miss for it. The store
//!   keeps no program text: a hit lowers the request's own text, so an
//!   entry can never make a kernel run anything but what the generator
//!   printed;
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
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// On-disk cache format version. Bump on any schema change, or when the
/// digests or kernel names an older file keys on can no longer match: a
/// mismatched file is ignored wholesale (clean recompile), never
/// reinterpreted. Version 4 names kernels after the FNV-1a hash of their
/// token key (version 3 used std's `DefaultHasher`, which a toolchain
/// update may change).
pub const FORMAT_VERSION: u32 = 4;

/// File name inside `QDP_CACHE_DIR`.
pub const STORE_FILE: &str = "qdp-kernel-store.json";

#[derive(Debug, Clone, Copy, PartialEq)]
struct TunedEntry {
    block: u32,
    time: f64,
}

#[derive(Default)]
struct Inner {
    /// (device fingerprint, source digest) of every translated program.
    /// Entries of *other* devices are kept and written back verbatim, so
    /// one store file serves heterogeneous contexts without clobbering.
    kernels: BTreeSet<(String, String)>,
    /// (device fingerprint, kernel name) → settled tuner state.
    tuned: BTreeMap<(String, String), TunedEntry>,
}

/// Handle on the persistent kernel store, bound to one device fingerprint.
/// Shared (`Arc`) between a context's `KernelCache` and its tuned launches.
pub struct KernelStore {
    path: PathBuf,
    device_fp: String,
    telemetry: Arc<Telemetry>,
    inner: Mutex<Inner>,
}

impl KernelStore {
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

    /// Was the program with source digest `src_digest` translated on this
    /// device before? Counts `persist.hit` / `persist.miss`.
    pub fn lookup_kernel(&self, src_digest: &str) -> bool {
        let key = (self.device_fp.clone(), src_digest.to_string());
        let hit = self.inner.lock().kernels.contains(&key);
        self.telemetry
            .count(if hit { "persist.hit" } else { "persist.miss" }, 1);
        hit
    }

    /// Record that the program with source digest `src_digest` was
    /// translated on this device, and flush to disk. Counts
    /// `persist.write` on a successful file write.
    pub fn put_kernel(&self, src_digest: &str) {
        let key = (self.device_fp.clone(), src_digest.to_string());
        let mut inner = self.inner.lock();
        if inner.kernels.insert(key) {
            self.save(&inner);
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

    /// Number of stored kernel digests (all devices).
    pub fn n_kernels(&self) -> usize {
        self.inner.lock().kernels.len()
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
        for (dev, src) in &inner.kernels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"device\": \"{}\", \"src\": \"{}\"}}",
                json::escape(dev),
                json::escape(src),
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
            let dev = e.get("device").and_then(Value::as_str);
            let src = e.get("src").and_then(Value::as_str);
            match (dev, src) {
                (Some(dev), Some(src)) => {
                    inner.kernels.insert((dev.to_string(), src.to_string()));
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
            s.put_kernel("aaaa");
            s.put_tuned("qdp_k", 256, 1.5e-4);
        }
        let s2 = KernelStore::open(&dir, "devA", Arc::clone(&t));
        assert!(s2.lookup_kernel("aaaa"));
        assert!(!s2.lookup_kernel("bbbb"));
        assert_eq!(s2.lookup_tuned("qdp_k", 1024), Some((256, 1.5e-4)));
        let r = t.profile_report();
        assert!(r.counter("persist.write") >= 2);
        assert_eq!(r.counter("persist.hit"), 1);
        assert_eq!(r.counter("persist.miss"), 1);
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
            a.put_kernel("aaaa");
            a.put_tuned("k", 512, 1e-4);
        }
        {
            // A different device neither sees A's entries nor clobbers them.
            let b = KernelStore::open(&dir, "devB", Arc::clone(&t));
            assert!(!b.lookup_kernel("aaaa"));
            assert_eq!(b.lookup_tuned("k", 1024), None);
            b.put_kernel("aaaa");
        }
        let a2 = KernelStore::open(&dir, "devA", Arc::clone(&t));
        assert!(a2.lookup_kernel("aaaa"));
        assert_eq!(a2.lookup_tuned("k", 1024), Some((512, 1e-4)));
        assert_eq!(a2.n_kernels(), 2, "both devices' digests persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_falls_back_clean() {
        let dir = tmpdir("trunc");
        let t = tel();
        {
            let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
            s.put_kernel("aaaa");
        }
        let path = dir.join(STORE_FILE);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
        assert!(!s.lookup_kernel("aaaa"));
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
        s.put_kernel("aaaa");
        let s2 = KernelStore::open(&dir, "dev", Arc::clone(&t));
        assert!(s2.lookup_kernel("aaaa"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_ignored_wholesale() {
        let v1 = r#"{"version": 1, "kernels": [{"device":"dev","src":"aaaa","opt":"o1","name":"k","ptx":"stale"}], "tuned": []}"#;
        let v2 = r#"{"version": 2, "kernels": [{"device":"dev","src":"aaaa"}],
            "tuned": [{"device":"dev","kernel":"k","block":256,"time":1e-4}]}"#;
        let v3 = v2.replace("\"version\": 2", "\"version\": 3");
        for (i, old) in [v1, v2, &v3].into_iter().enumerate() {
            let dir = tmpdir(&format!("version{}", i + 1));
            let t = tel();
            std::fs::write(dir.join(STORE_FILE), old).unwrap();
            let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
            assert!(!s.lookup_kernel("aaaa"));
            assert_eq!(s.lookup_tuned("k", 1024), None);
            assert_eq!(t.profile_report().counter("persist.corrupt"), 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn malformed_entries_are_skipped_not_fatal() {
        let dir = tmpdir("badentry");
        let t = tel();
        let store = format!(
            r#"{{"version": {FORMAT_VERSION},
                "kernels": [
                  {{"device":"dev","src":"good"}},
                  {{"device":"dev"}}
                ],
                "tuned": [
                  {{"device":"dev","kernel":"k","block":256,"time":1e-4}},
                  {{"device":"dev","kernel":"bad","block":2.5,"time":1e-4}}
                ]}}"#
        );
        std::fs::write(dir.join(STORE_FILE), store).unwrap();
        let s = KernelStore::open(&dir, "dev", Arc::clone(&t));
        assert!(s.lookup_kernel("good"));
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
        assert_eq!(s2.lookup_tuned("k", 2048), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
