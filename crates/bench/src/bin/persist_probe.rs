//! Cold/warm probe for the persistent kernel store, driven by ci.sh.
//!
//! Runs one Wilson-dslash workload (payload execution off, so wall time is
//! dominated by code generation + JIT compilation rather than functional
//! execution) against whatever `QDP_CACHE_DIR` points at, then prints
//! machine-readable `key value` lines. ci.sh runs it twice in fresh
//! processes with the same temporary cache directory and asserts that the
//! second (warm) run misses the kernel cache nowhere, records no `opt.*`
//! counter, takes zero tuner trials, and pays less modelled translation
//! time than the cold run (none at all). The first-eval wall time is
//! printed for reference: a warm start renders, parses and lowers like a
//! cold one.
//!
//! Run: `QDP_CACHE_DIR=/tmp/x cargo run --release -p qdp-bench --bin persist_probe`

use qdp_core::prelude::*;
use qdp_core::{adj, shift};
use qdp_rng::{SeedableRng, StdRng};
use qdp_telemetry::Telemetry;
use qdp_types::su3::random_su3;
use qdp_types::{PScalar, PVector};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let tel = Arc::new(Telemetry::new());
    tel.enable();
    let config = QdpConfig::from_env();
    let cache_dir = config.cache_dir.clone();
    let ctx = QdpContext::builder(Geometry::symmetric(8))
        .config(config)
        .opt_level(OptLevel::Default)
        .telemetry(Arc::clone(&tel))
        .build();
    ctx.set_payload_execution(false);

    let mut rng = StdRng::seed_from_u64(23);
    let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| PScalar(random_su3(&mut rng)));
    let psi = LatticeFermion::<f64>::from_fn(&ctx, |_| {
        PVector::from_fn(|_| PVector::from_fn(|_| qdp_types::su3::gaussian_complex(&mut rng)))
    });
    let out = LatticeFermion::<f64>::new(&ctx);
    let dslash = || {
        let mut acc = None;
        for mu in 0..4 {
            let term = u.q() * shift(psi.q(), mu, ShiftDir::Forward)
                + shift(adj(u.q()) * psi.q(), mu, ShiftDir::Backward);
            acc = Some(match acc {
                None => term,
                Some(a) => a + term,
            });
        }
        acc.unwrap()
    };

    let t0 = Instant::now();
    out.assign(dslash()).unwrap();
    let first = t0.elapsed().as_secs_f64();
    // Enough further evals for the tuner to settle, so a cold run leaves a
    // settled block size in the store for the warm run to seed from.
    for _ in 0..15 {
        out.assign(dslash()).unwrap();
    }
    let total = t0.elapsed().as_secs_f64();

    let r = tel.profile_report();
    let opt_counters: u64 = r
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("opt."))
        .map(|(_, v)| *v)
        .sum();
    let tuner_trials: u64 = r.kernels.iter().map(|k| k.trial_launches).sum();

    println!(
        "cache_dir {}",
        cache_dir.map_or("(unset)".into(), |d| d.display().to_string())
    );
    println!("wall_first_eval_us {:.1}", first * 1e6);
    println!("wall_total_us {:.1}", total * 1e6);
    println!("jit_misses {}", r.jit.misses);
    println!("modeled_compile_ms {:.3}", r.jit.modeled_compile_time * 1e3);
    println!("opt_counters {opt_counters}");
    println!("tuner_trials {tuner_trials}");
    println!("persist_hits {}", r.counter("persist.hit"));
    println!("tuner_seeded {}", r.counter("persist.tuner_seeded"));
    println!("persist_corrupt {}", r.counter("persist.corrupt"));
}
