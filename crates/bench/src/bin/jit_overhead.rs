//! §III-D / §VIII-D: JIT translation overhead.
//!
//! The paper measures 0.05–0.22 s per kernel on the 12k node, and for the
//! production trajectory ("about 200 GPU kernels") estimates a total of
//! 10–30 s — negligible against the trajectory time. This harness runs a
//! representative kernel population through the code generator + driver
//! JIT and reports the modelled and actual (wall-clock) translation times.
//!
//! Run: `cargo run --release -p qdp-bench --bin jit_overhead`

use chroma_mini::fermion::{wilson_hopping_expr, CloverTerm, WilsonDirac};
use chroma_mini::gauge::{gaussian_fermion, GaugeField};
use chroma_mini::hmc::{GaugeAction, Hmc, Integrator, TwoFlavorWilson};
use qdp_core::prelude::*;
use qdp_rng::{SeedableRng, StdRng};

fn main() {
    let ctx = QdpContext::k20x(Geometry::symmetric(4));
    let mut rng = StdRng::seed_from_u64(11);
    let g = GaugeField::warm(&ctx, &mut rng, 0.25);

    // Populate the kernel cache the way one trajectory does: dslash,
    // clover, solver linalg, forces, link updates, energies.
    let psi = gaussian_fermion(&ctx, &mut rng);
    let out = LatticeFermion::<f64>::new(&ctx);
    out.assign(wilson_hopping_expr(&g.u, psi.q())).unwrap();
    let clover = CloverTerm::construct(&g, 1.2).unwrap();
    let m = WilsonDirac::new(&g, 0.3, Some(clover));
    m.apply(&out, &psi).unwrap();
    let mut hmc = Hmc {
        dt: 0.02,
        n_steps: 2,
        integrator: Integrator::Leapfrog,
        terms: vec![
            Box::new(GaugeAction { beta: 5.5 }),
            Box::new(TwoFlavorWilson::new(0.4, 1e-8, 300)),
        ],
    };
    hmc.trajectory(&g, &mut rng).unwrap();

    let n = ctx.kernels().len();
    let stats = ctx.kernels().stats();
    println!("JIT translation overhead (paper §III-D, §VIII-D)");
    println!("distinct kernels generated + translated: {n} (paper: ~200 per trajectory)");
    println!(
        "modelled translation time: {:.1} s total, {:.3} s/kernel (paper band: 0.05-0.22 s/kernel)",
        stats.modeled_compile_time,
        stats.modeled_compile_time / n as f64
    );
    println!(
        "actual wall-clock validate+lower time: {:.3} s total, {:.1} ms/kernel",
        stats.wall_compile_time,
        1e3 * stats.wall_compile_time / n as f64
    );
    println!(
        "cache hits: {} (every further trajectory reuses all kernels)",
        stats.hits
    );
    let in_band = stats.modeled_compile_time >= 0.05 * n as f64
        && stats.modeled_compile_time <= 0.22 * n as f64;
    println!(
        "modelled total for ~200 kernels: {:.0}-{:.0} s band, ours extrapolates to {:.0} s — {}",
        200.0 * 0.05,
        200.0 * 0.22,
        200.0 * stats.modeled_compile_time / n as f64,
        if in_band { "inside the paper's band" } else { "outside band" }
    );
}
