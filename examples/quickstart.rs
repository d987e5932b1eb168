//! Quickstart: the paper's `psi = u * phi` on the simulated GPU.
//!
//! Demonstrates the whole QDP-JIT pipeline on one page: build data-parallel
//! expressions with infix operators (no site loop!), watch the framework
//! generate a PTX kernel, JIT it, page the fields onto the device, auto-tune
//! the launch, and hand back the result — then look at the generated PTX.
//!
//! Run: `cargo run --release --example quickstart`

use qdp_jit_rs::prelude::*;
use qdp_types::su3::random_su3;
use qdp_types::{PScalar, PVector};
use qdp_rng::{SeedableRng, StdRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 8^4 lattice on a simulated Tesla K20x (the paper's device) —
    // contexts are assembled through the one builder entry point.
    let ctx = QdpContext::builder(Geometry::symmetric(8))
        .device(DeviceConfig::k20x_ecc_off())
        .build();
    let mut rng = StdRng::seed_from_u64(42);

    // Table I types: a gauge link field and two fermions.
    let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| PScalar(random_su3(&mut rng)));
    let phi = LatticeFermion::<f64>::from_fn(&ctx, |_| {
        PVector::from_fn(|_| PVector::from_fn(|_| qdp_types::su3::gaussian_complex(&mut rng)))
    });
    let psi = LatticeFermion::<f64>::new(&ctx);

    // The paper's flagship line — implicitly data-parallel:
    let report = psi.assign(u.q() * phi.q())?;

    println!("psi = u * phi");
    println!("  generated kernel : {}", report.kernel_name);
    println!("  sites evaluated  : {}", report.threads);
    println!("  block size       : {} (auto-tuned)", report.block_size);
    println!("  simulated time   : {:.2} µs", report.sim_time * 1e6);
    println!("  sustained BW     : {:.1} GB/s", report.bandwidth / 1e9);

    // Norms through the reduction pipeline.
    println!("  |phi|^2 = {:.4}, |psi|^2 = {:.4}", phi.norm2()?, psi.norm2()?);
    // SU(3) links preserve the norm per site: the two must agree.
    assert!((phi.norm2()? - psi.norm2()?).abs() < 1e-8 * phi.norm2()?);

    // Stencils: the paper's Fig. 1 covariant derivative.
    use qdp_jit_rs::core::{adj, shift};
    let d_psi = LatticeFermion::<f64>::new(&ctx);
    let mu = 0;
    d_psi.assign(
        u.q() * shift(phi.q(), mu, ShiftDir::Forward)
            + shift(adj(u.q()) * phi.q(), mu, ShiftDir::Backward),
    )?;
    println!("  derivative: |D phi|^2 = {:.4}", d_psi.norm2()?);

    // Every expression structure = one kernel, compiled once.
    let stats = ctx.kernels().stats();
    println!(
        "kernel cache: {} kernels, {} hits, modelled JIT time {:.2} s",
        ctx.kernels().len(),
        stats.hits,
        stats.modeled_compile_time
    );

    // And the memory cache did all the host<->device traffic automatically:
    let cs = ctx.cache().stats();
    println!(
        "memory cache: {} page-ins, {} first touches, {} hits, {} spills",
        cs.page_ins, cs.first_touches, cs.hits, cs.spills
    );
    Ok(())
}
