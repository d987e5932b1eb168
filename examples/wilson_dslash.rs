//! The Wilson Dirac operator from its high-level representation, plus a CG
//! solve — the analysis-side workload the paper's §VIII-C benchmark
//! exercises.
//!
//! Shows: building the hopping term as one expression (one generated
//! kernel), γ₅-hermiticity, a propagator solve with CG, and the generated
//! kernel census.
//!
//! Run: `cargo run --release --example wilson_dslash`

use chroma_mini::fermion::{wilson_hopping_expr, WilsonDirac};
use chroma_mini::gauge::{gaussian_fermion, GaugeField};
use chroma_mini::solver::cg_solve;
use qdp_jit_rs::prelude::*;
use qdp_rng::{SeedableRng, StdRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Builder construction; `QdpConfig::from_env()` honours the QDP_*
    // knobs documented at the bottom of this example.
    let ctx = QdpContext::builder(Geometry::symmetric(6))
        .device(DeviceConfig::k20x_ecc_off())
        .config(QdpConfig::from_env())
        .build();
    let mut rng = StdRng::seed_from_u64(7);
    let g = GaugeField::warm(&ctx, &mut rng, 0.25);
    println!("gauge configuration: <plaquette> = {:.4}", g.plaquette()?);

    // The hopping term H(x,x') of §VIII-C as ONE data-parallel expression.
    let psi = gaussian_fermion(&ctx, &mut rng);
    let h_psi = LatticeFermion::<f64>::new(&ctx);
    let report = h_psi.assign(wilson_hopping_expr(&g.u, psi.q()))?;
    println!(
        "hopping term: 1 generated kernel, {:.1} GB/s sustained, block {}",
        report.bandwidth / 1e9,
        report.block_size
    );

    // Full Wilson operator M = (m+4) - H/2, and a propagator solve.
    let m = WilsonDirac::new(&g, 0.3, None);
    let b = gaussian_fermion(&ctx, &mut rng);
    let x = LatticeFermion::<f64>::new(&ctx);
    let cg = cg_solve(&m, &x, &b, 1e-10, 1000)?;
    println!(
        "CG on M^dag M: {} iterations, relative residual {:.2e}",
        cg.iters, cg.rel_resid
    );

    // verify the solution against the true residual
    let ax = LatticeFermion::<f64>::new(&ctx);
    let tmp = LatticeFermion::<f64>::new(&ctx);
    m.apply_normal(&ax, &tmp, &x)?;
    let r = LatticeFermion::<f64>::new(&ctx);
    r.assign(b.q() - ax.q())?;
    println!(
        "true residual check: {:.2e}",
        (r.norm2()? / b.norm2()?).sqrt()
    );

    // Compare against the independently hand-written (QUDA-style) host dslash.
    let vol = ctx.geometry().vol();
    let host_g = quda_sim::HostGauge {
        links: (0..4).map(|mu| (0..vol).map(|s| g.u[mu].get(s)).collect()).collect(),
        geom: ctx.geometry().clone(),
    };
    let host_in: Vec<_> = (0..vol).map(|s| psi.get(s)).collect();
    let host_out = quda_sim::host_dslash(&host_g, &host_in);
    let mut max_diff = 0.0f64;
    for s in 0..vol {
        let ours = h_psi.get(s);
        for sp in 0..4 {
            for c in 0..3 {
                max_diff = max_diff.max((ours.0[sp].0[c] - host_out[s].0[sp].0[c]).abs());
            }
        }
    }
    println!("generated vs hand-written dslash: max |diff| = {max_diff:.2e}");
    assert!(max_diff < 1e-10);

    println!(
        "kernel census: {} distinct kernels generated for this workload",
        ctx.kernels().len()
    );

    // With QDP_PROFILE=1, dump the full per-kernel telemetry table and its
    // roofline attribution; with QDP_TRACE=out.json, flush the Chrome trace
    // for Perfetto.
    if ctx.telemetry().profiling() {
        println!();
        println!("{}", ctx.profile_report());
        println!();
        println!("{}", ctx.roofline_report());
    }
    ctx.telemetry().flush_trace();
    Ok(())
}
