//! Persistent kernel store, end to end: a second process (modelled here as
//! a second context over the same store directory) must start *warm* —
//! zero cache misses, zero tuner trials — and still produce bit-identical
//! results. The store keeps digests, not programs: a warm kernel is lowered
//! from the text the generator printed. Entries are scoped to the device
//! configuration, so a different simulated GPU never reuses them.

use qdp_core::prelude::*;
use qdp_core::{adj, shift};
use qdp_jit::KernelStore;
use qdp_rng::{SeedableRng, StdRng};
use qdp_telemetry::Telemetry;
use qdp_types::su3::random_su3;
use qdp_types::{PScalar, PVector};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "qdp_core_persist_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A context whose JIT cache and tuner share a store in `dir`, with its own
/// fresh telemetry registry (so per-context counters are clean).
fn ctx_on(dir: &Path, cfg: DeviceConfig) -> (Arc<QdpContext>, Arc<Telemetry>) {
    let tel = Arc::new(Telemetry::new());
    tel.enable();
    let store = KernelStore::open(dir, &cfg.fingerprint(), Arc::clone(&tel));
    let ctx = QdpContext::builder(Geometry::symmetric(4))
        .device(cfg)
        .telemetry(Arc::clone(&tel))
        .kernel_store(Some(store))
        .build();
    (ctx, tel)
}

struct Work {
    u: LatticeColorMatrix<f64>,
    psi: LatticeFermion<f64>,
    out: LatticeFermion<f64>,
}

/// Same seeded fields in every context, so results are comparable across
/// cold and warm runs.
fn work(ctx: &Arc<QdpContext>) -> Work {
    let mut rng = StdRng::seed_from_u64(11);
    let u = LatticeColorMatrix::<f64>::from_fn(ctx, |_| PScalar(random_su3(&mut rng)));
    let psi = LatticeFermion::<f64>::from_fn(ctx, |_| {
        PVector::from_fn(|_| PVector::from_fn(|_| qdp_types::su3::gaussian_complex(&mut rng)))
    });
    let out = LatticeFermion::<f64>::new(ctx);
    Work { u, psi, out }
}

/// The full 4-direction Wilson hopping term (same shape as `persist_probe`).
fn dslash(w: &Work) -> qdp_core::QExpr<qdp_types::Fermion<f64>> {
    let mut acc = None;
    for mu in 0..4 {
        let term = w.u.q() * shift(w.psi.q(), mu, ShiftDir::Forward)
            + shift(adj(w.u.q()) * w.psi.q(), mu, ShiftDir::Backward);
        acc = Some(match acc {
            None => term,
            Some(a) => a + term,
        });
    }
    acc.unwrap()
}

/// Drive the cold context until the tuner settles; return the kernel name.
fn settle(w: &Work, tel: &Telemetry) -> String {
    for _ in 0..16 {
        w.out.assign(dslash(w)).unwrap();
    }
    let r = tel.profile_report();
    assert_eq!(r.kernels.len(), 1);
    assert!(r.kernels[0].settled, "cold run must settle within 16 evals");
    r.kernels[0].name.clone()
}

#[test]
fn warm_context_is_bit_identical_with_zero_compiles_and_trials() {
    let dir = tmpdir("warm");

    // Cold: compile and tune; the digest and the block land in the store.
    let (ctx1, tel1) = ctx_on(&dir, DeviceConfig::k20x_ecc_off());
    let w1 = work(&ctx1);
    let name = settle(&w1, &tel1);
    let expect = w1.out.to_vec();
    let r1 = tel1.profile_report();
    assert!(r1.jit.misses >= 1);
    assert!(r1.counter("persist.write") >= 2, "kernel + tuned entry saved");
    let stored = std::fs::read_to_string(dir.join(qdp_jit::STORE_FILE)).unwrap();
    assert!(!stored.contains(".entry"), "the store holds no PTX:\n{stored}");
    let cold_kernel_row = r1.kernel(&name).unwrap();
    assert!(cold_kernel_row.trial_launches > 0, "cold run tunes");
    drop(ctx1);

    // Warm: a fresh context (fresh telemetry) over the same directory.
    let (ctx2, tel2) = ctx_on(&dir, DeviceConfig::k20x_ecc_off());
    let w2 = work(&ctx2);
    w2.out.assign(dslash(&w2)).unwrap();

    // Bit-identical result...
    assert_eq!(w2.out.to_vec(), expect, "warm eval must be bit-identical");

    // ...with zero cache misses, zero tuner trials.
    let r2 = tel2.profile_report();
    assert_eq!(r2.jit.misses, 0, "warm start must not translate anything");
    assert_eq!(r2.counter("persist.hit"), 1);
    assert_eq!(r2.counter("persist.tuner_seeded"), 1);
    assert_eq!(r2.counter("persist.corrupt"), 0);
    for (counter, n) in &r2.counters {
        assert!(
            !counter.starts_with("opt.") || *n == 0,
            "warm start ran the optimizer: {counter} = {n}"
        );
    }
    let row = r2.kernel(&name).expect("kernel row");
    assert_eq!(row.trial_launches, 0, "warm start must not probe");
    assert!(row.settled, "seeded state starts settled");
    assert_eq!(row.block_size, cold_kernel_row.block_size);
    assert_eq!(row.modeled_compile_time, 0.0, "a stored digest costs no translation");
    assert!(row.wall_compile_time > 0.0, "the printed text is still lowered");
    assert_eq!(ctx2.kernels().stats().persist_hits, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_device_entries_are_never_reused() {
    let dir = tmpdir("device_scope");

    // Populate the store from the K20x.
    let (ctx1, tel1) = ctx_on(&dir, DeviceConfig::k20x_ecc_off());
    let w1 = work(&ctx1);
    settle(&w1, &tel1);
    drop(ctx1);

    // A different device over the same directory: identical source PTX,
    // but the store is scoped by device fingerprint — it must recompile
    // and re-tune rather than adopt the K20x's kernel or block size.
    let (ctx2, tel2) = ctx_on(&dir, DeviceConfig::tiny(64 * 1024 * 1024));
    let w2 = work(&ctx2);
    let name = settle(&w2, &tel2);
    let r2 = tel2.profile_report();
    assert_eq!(r2.counter("persist.hit"), 0, "foreign kernel must not hit");
    assert_eq!(r2.counter("persist.tuner_seeded"), 0);
    assert!(r2.jit.misses >= 1, "the tiny device compiles for itself");
    assert!(r2.kernel(&name).unwrap().trial_launches > 0);
    drop(ctx2);

    // And the tiny device's writes did not clobber the K20x's entries:
    // a third K20x context still starts fully warm.
    let (ctx3, tel3) = ctx_on(&dir, DeviceConfig::k20x_ecc_off());
    let w3 = work(&ctx3);
    w3.out.assign(dslash(&w3)).unwrap();
    let r3 = tel3.profile_report();
    assert_eq!(r3.jit.misses, 0);
    assert_eq!(r3.counter("persist.hit"), 1);
    assert_eq!(r3.counter("persist.tuner_seeded"), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_file_falls_back_to_clean_recompile() {
    let dir = tmpdir("corrupt");

    // Seed a valid store, then truncate the file mid-way.
    let (ctx1, tel1) = ctx_on(&dir, DeviceConfig::k20x_ecc_off());
    let w1 = work(&ctx1);
    settle(&w1, &tel1);
    let expect = w1.out.to_vec();
    drop(ctx1);
    let file = dir.join(qdp_jit::STORE_FILE);
    let text = std::fs::read_to_string(&file).unwrap();
    std::fs::write(&file, &text[..text.len() / 2]).unwrap();

    // The next context sees the damage, counts it, and recompiles cleanly.
    let (ctx2, tel2) = ctx_on(&dir, DeviceConfig::k20x_ecc_off());
    let w2 = work(&ctx2);
    w2.out.assign(dslash(&w2)).unwrap();
    assert_eq!(w2.out.to_vec(), expect);
    let r2 = tel2.profile_report();
    assert!(r2.counter("persist.corrupt") >= 1);
    assert_eq!(r2.counter("persist.hit"), 0);
    assert!(r2.jit.misses >= 1, "corruption falls back to recompile");

    // The rebuilt store works for the process after that.
    for _ in 0..15 {
        w2.out.assign(dslash(&w2)).unwrap();
    }
    drop(ctx2);
    let (ctx3, tel3) = ctx_on(&dir, DeviceConfig::k20x_ecc_off());
    let w3 = work(&ctx3);
    w3.out.assign(dslash(&w3)).unwrap();
    assert_eq!(tel3.profile_report().jit.misses, 0);
    drop(ctx3);

    let _ = std::fs::remove_dir_all(&dir);
}
