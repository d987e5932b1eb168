//! Figure 6: performance of the hopping part of the Wilson Dirac operator
//! on 2 GPUs (K20m, ECC on), with overlapping of inter-GPU communication
//! and computation enabled vs disabled, in SP and DP.
//!
//! Paper results to reproduce in shape: overlap wins, with gains shrinking
//! toward the largest volumes (≈11 % SP, ≈7 % DP at V = 40⁴); plus the
//! §VIII-C text comparison against QUDA's hand-tuned dslash (SP 346 vs
//! 197 GFLOPS — 1.76×; DP 171 vs 90 — 1.9×).
//!
//! Run: `cargo run --release -p qdp-bench --bin fig6_overlap`

use chroma_mini::fermion::wilson_hopping_expr;
use qdp_core::multinode::MultiRank;
use qdp_core::prelude::*;
use qdp_layout::Decomposition;
use qdp_types::{ColorMatrix, Fermion};
use quda_sim::perf::DSLASH_FLOPS;
use std::sync::Arc;

/// Measure the two-GPU dslash at global volume `L⁴`, returning GFLOPS.
/// Timing-only (the overlap machinery is validated bit-exactly in the test
/// suite), so the fields can stay zero-initialised.
fn measure<R: Real>(l: usize, overlap: bool) -> f64
where
    ColorMatrix<R>: qdp_core::SiteElem<R = R>,
    Fermion<R>: qdp_core::SiteElem<R = R>,
{
    let global = [l, l, l, l];
    let results = qdp_comm::run_cluster(
        2,
        qdp_comm::LinkModel::infiniband_qdr(),
        move |handle| {
            let decomp = Decomposition::new(global, [1, 1, 1, 2]);
            let ctx = QdpContext::new(
                DeviceConfig::k20m_ecc_on(),
                decomp.local_geometry(),
                LayoutKind::SoA,
            );
            ctx.set_payload_execution(false);
            let _rank = MultiRank::new(Arc::clone(&ctx), decomp, handle, true, overlap);
            let u: Multi1d<Lattice<ColorMatrix<R>>> = Multi1d::from_fn(4, |_| Lattice::new(&ctx));
            let psi: Lattice<Fermion<R>> = Lattice::new(&ctx);
            let out: Lattice<Fermion<R>> = Lattice::new(&ctx);
            let expr = wilson_hopping_expr(&u, psi.q());
            // settle the auto-tuner, then measure
            for _ in 0..6 {
                out.assign(expr.clone()).unwrap();
            }
            let t0 = ctx.device().now();
            let reps = 10;
            for _ in 0..reps {
                out.assign(expr.clone()).unwrap();
            }
            (ctx.device().now() - t0) / reps as f64
        },
    );
    let t = results.iter().cloned().fold(0.0f64, f64::max);
    let vol = (l * l * l * l) as f64;
    vol * DSLASH_FLOPS / t / 1e9
}

/// Halo bytes per face site of the t-split dslash's t+ and t− messages, as
/// the face-message layout packs them.
fn halo_bytes_per_face_site<R: Real>() -> Vec<usize>
where
    ColorMatrix<R>: qdp_core::SiteElem<R = R>,
    Fermion<R>: qdp_core::SiteElem<R = R>,
{
    let ctx = QdpContext::k20x(Geometry::symmetric(4));
    let u: Multi1d<Lattice<ColorMatrix<R>>> = Multi1d::from_fn(4, |_| Lattice::new(&ctx));
    let (psi, out) = (Lattice::<Fermion<R>>::new(&ctx), Lattice::<Fermion<R>>::new(&ctx));
    let expr = wilson_hopping_expr(&u, psi.q());
    let plan = qdp_core::plan_codegen(&ctx, out.fref(), expr.raw(), false, true).unwrap();
    plan.env.faces.iter().filter(|f| f.mu == 3).map(|f| f.bytes / f.face_vol).collect()
}

fn main() {
    println!("Figure 6 — Wilson dslash on 2× K20m, overlap on/off (GFLOPS)");
    println!(
        "{:>4} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8}",
        "L", "SP overlap", "SP no-ovl", "gain", "DP overlap", "DP no-ovl", "gain"
    );
    let ls = [8usize, 12, 16, 20, 24, 28, 32, 36, 40];
    let mut last = (0.0, 0.0, 0.0, 0.0);
    for &l in &ls {
        let sp_ov = measure::<f32>(l, true);
        let sp_no = measure::<f32>(l, false);
        let dp_ov = measure::<f64>(l, true);
        let dp_no = measure::<f64>(l, false);
        println!(
            "{:>4} {:>12.1} {:>12.1} {:>7.1}% {:>12.1} {:>12.1} {:>7.1}%",
            l,
            sp_ov,
            sp_no,
            100.0 * (sp_ov / sp_no - 1.0),
            dp_ov,
            dp_no,
            100.0 * (dp_ov / dp_no - 1.0)
        );
        last = (sp_ov, sp_no, dp_ov, dp_no);
    }
    println!(
        "dslash halo bytes per face site (t+, t-): SP {:?}, DP {:?}",
        halo_bytes_per_face_site::<f32>(),
        halo_bytes_per_face_site::<f64>()
    );
    println!();
    println!(
        "largest volume gains: SP {:+.1}% (paper ≈ +11%), DP {:+.1}% (paper ≈ +7%)",
        100.0 * (last.0 / last.1 - 1.0),
        100.0 * (last.2 / last.3 - 1.0)
    );

    // §VIII-C text: hand-tuned (QUDA) headroom on the same hardware. The
    // headroom is the global-memory-traffic ratio: QUDA's hand optimisations
    // (on-chip reuse of neighbouring spinors) cut the dslash's DRAM bytes
    // from 8 links + 9 spinors to roughly 8 links + 2 spinors.
    let ratio_sp = quda_sim::perf::generated_dslash_bytes(false)
        / quda_sim::perf::quda_dslash_bytes(false);
    let ratio_dp = quda_sim::perf::generated_dslash_bytes(true)
        / quda_sim::perf::quda_dslash_bytes(true);
    let ours_sp = last.0;
    let ours_dp = measure::<f64>(32, true);
    println!();
    println!("QUDA comparison (same work, uncompressed gauge):");
    println!(
        "  SP V=40^4: QUDA {:.0} vs generated {:.0} GFLOPS — headroom {:.2}x (paper: 346 vs 197, 1.76x)",
        ours_sp * ratio_sp,
        ours_sp,
        ratio_sp
    );
    println!(
        "  DP V=32^4: QUDA {:.0} vs generated {:.0} GFLOPS — headroom {:.2}x (paper: 171 vs 90, 1.90x)",
        ours_dp * ratio_dp,
        ours_dp,
        ratio_dp
    );
}
