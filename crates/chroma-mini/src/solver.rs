//! Krylov solvers on the (simulated) device: CG on the normal equations,
//! BiCGStab on `M` directly, and multi-shift CG for the RHMC rational
//! kernels. Every vector operation is a data-parallel expression — CG's
//! axpy kernels are generated once and reused for every iteration (the
//! scalar α, β are kernel *parameters*).

use crate::fermion::WilsonDirac;
use qdp_core::prelude::*;
use qdp_core::reduce_inner_product;

/// Solver outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgReport {
    /// Iterations used.
    pub iters: usize,
    /// Final relative residual `‖b − A x‖ / ‖b‖`.
    pub rel_resid: f64,
    /// Did the solver hit the tolerance?
    pub converged: bool,
}

/// Conjugate gradient on the normal equations: solves `M†M x = b`.
///
/// The loop is recorded through a deferred [`qdp_core::FusionScope`] and
/// flushed at each reduction, letting the planner batch the independent
/// vector updates per iteration: the two axpy updates and the
/// residual-norm temporary collapse into one fused kernel, and the `M†`
/// apply fuses with the `⟨p, Ap⟩` temporary. With fusion off
/// (`QdpConfig::fuse = false`, `QDP_FUSE=0`) the same body launches one
/// kernel per recorded statement — results are bit-identical either way.
pub fn cg_solve(
    m: &WilsonDirac,
    x: &LatticeFermion<f64>,
    b: &LatticeFermion<f64>,
    tol: f64,
    max_iters: usize,
) -> Result<CgReport, CoreError> {
    let ctx = m.context();
    let span = ctx
        .telemetry()
        .span("solver", "cg")
        .with_sim(ctx.device().now());
    let r = LatticeFermion::<f64>::new(ctx);
    let p = LatticeFermion::<f64>::new(ctx);
    let ap = LatticeFermion::<f64>::new(ctx);
    let tmp = LatticeFermion::<f64>::new(ctx);

    let mut scope = ctx.deferred();

    // r = b − A x ; p = r  (A = M†M through the tmp half-apply; the
    // hopping shifts force a split after each apply, but the dagger
    // apply, the residual, the search vector and the ‖b‖² temporary
    // all read their producers unshifted and fuse)
    scope.assign(&tmp, m.apply_expr(x.q()))?;
    scope.assign(&ap, m.apply_dag_expr(tmp.q()))?;
    scope.assign(&r, b.q() - ap.q())?;
    scope.assign(&p, r.q())?;

    let b2 = scope.norm2(b)?;
    if b2 == 0.0 {
        x.assign(0.0 * b.q())?;
        return Ok(CgReport {
            iters: 0,
            rel_resid: 0.0,
            converged: true,
        });
    }
    let mut r2 = scope.norm2(&r)?;
    let target = tol * tol * b2;

    let mut iters = 0;
    while r2 > target && iters < max_iters {
        // the p-update from the previous iteration is still pending and
        // launches first (tmp reads p through shifts, so they never fuse)
        scope.assign(&tmp, m.apply_expr(p.q()))?;
        scope.assign(&ap, m.apply_dag_expr(tmp.q()))?;
        let pap = scope.inner_product(&p.q(), &ap.q())?.re;
        let alpha = r2 / pap;
        scope.assign(x, x.q() + alpha * p.q())?;
        scope.assign(&r, r.q() - alpha * ap.q())?;
        let r2_new = scope.norm2(&r)?;
        let beta = r2_new / r2;
        scope.assign(&p, r.q() + beta * p.q())?;
        r2 = r2_new;
        iters += 1;
    }
    scope.flush()?;
    ctx.telemetry().count("solver.cg_iters", iters as u64);
    span.end_with_sim(ctx.device().now());
    Ok(CgReport {
        iters,
        rel_resid: (r2 / b2).sqrt(),
        converged: r2 <= target,
    })
}

/// BiCGStab on `M x = b` directly (non-Hermitian).
pub fn bicgstab_solve(
    m: &WilsonDirac,
    x: &LatticeFermion<f64>,
    b: &LatticeFermion<f64>,
    tol: f64,
    max_iters: usize,
) -> Result<CgReport, CoreError> {
    let ctx = m.context();
    let span = ctx
        .telemetry()
        .span("solver", "bicgstab")
        .with_sim(ctx.device().now());
    let r = LatticeFermion::<f64>::new(ctx);
    let r0 = LatticeFermion::<f64>::new(ctx);
    let p = LatticeFermion::<f64>::new(ctx);
    let v = LatticeFermion::<f64>::new(ctx);
    let s = LatticeFermion::<f64>::new(ctx);
    let t = LatticeFermion::<f64>::new(ctx);

    m.apply(&v, x)?;
    r.assign(b.q() - v.q())?;
    r0.assign(r.q())?;
    p.assign(r.q())?;

    let b2 = b.norm2()?;
    if b2 == 0.0 {
        x.assign(0.0 * b.q())?;
        return Ok(CgReport {
            iters: 0,
            rel_resid: 0.0,
            converged: true,
        });
    }
    let target = tol * tol * b2;
    let mut rho = reduce_inner_product(ctx, &r0.q(), &r.q(), Subset::All)?;
    let mut iters = 0;
    let mut r2 = r.norm2()?;
    while r2 > target && iters < max_iters {
        m.apply(&v, &p)?;
        let r0v = reduce_inner_product(ctx, &r0.q(), &v.q(), Subset::All)?;
        let alpha = rho / r0v;
        s.assign(r.q() - cscale(alpha, v.q()))?;
        m.apply(&t, &s)?;
        let ts = reduce_inner_product(ctx, &t.q(), &s.q(), Subset::All)?;
        let tt = t.norm2()?;
        let omega = ts.scale(1.0 / tt);
        x.assign(x.q() + cscale(alpha, p.q()) + cscale(omega, s.q()))?;
        r.assign(s.q() - cscale(omega, t.q()))?;
        let rho_new = reduce_inner_product(ctx, &r0.q(), &r.q(), Subset::All)?;
        let beta = (rho_new / rho) * (alpha / omega);
        p.assign(r.q() + cscale(beta, p.q() - cscale(omega, v.q())))?;
        rho = rho_new;
        r2 = r.norm2()?;
        iters += 1;
    }
    ctx.telemetry().count("solver.bicgstab_iters", iters as u64);
    span.end_with_sim(ctx.device().now());
    Ok(CgReport {
        iters,
        rel_resid: (r2 / b2).sqrt(),
        converged: r2 <= target,
    })
}

/// Multi-shift CG: solves `(M†M + σ_k) x_k = b` for all shifts at once
/// (the workhorse of the RHMC rational kernels, paper §VIII-D "rational
/// approximation").
pub fn multishift_cg(
    m: &WilsonDirac,
    shifts: &[f64],
    xs: &[LatticeFermion<f64>],
    b: &LatticeFermion<f64>,
    tol: f64,
    max_iters: usize,
) -> Result<CgReport, CoreError> {
    assert_eq!(shifts.len(), xs.len());
    assert!(!shifts.is_empty());
    let ctx = m.context();
    let span = ctx
        .telemetry()
        .span("solver", "multishift_cg")
        .with_sim(ctx.device().now());
    let n = shifts.len();

    // Shift everything relative to the smallest shift for stability.
    let base = shifts
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min)
        .min(0.0);
    let _ = base;

    let r = LatticeFermion::<f64>::new(ctx);
    let p = LatticeFermion::<f64>::new(ctx);
    let ap = LatticeFermion::<f64>::new(ctx);
    let tmp = LatticeFermion::<f64>::new(ctx);
    let ps: Vec<LatticeFermion<f64>> = (0..n).map(|_| LatticeFermion::new(ctx)).collect();

    r.assign(b.q())?;
    p.assign(b.q())?;
    for (x, pk) in xs.iter().zip(ps.iter()) {
        x.assign(0.0 * b.q())?;
        pk.assign(b.q())?;
    }

    let b2 = b.norm2()?;
    if b2 == 0.0 {
        return Ok(CgReport {
            iters: 0,
            rel_resid: 0.0,
            converged: true,
        });
    }
    let target = tol * tol * b2;

    // standard multi-shift CG recurrences (Jegerlehner)
    let mut zeta_prev = vec![1.0f64; n];
    let mut zeta = vec![1.0f64; n];
    let mut beta_k = vec![0.0f64; n];
    let mut alpha_prev = 1.0f64;
    let mut beta_prev = 0.0f64;

    let mut r2 = r.norm2()?;
    let mut iters = 0;
    while r2 > target && iters < max_iters {
        m.apply_normal(&ap, &tmp, &p)?;
        // seed system uses shift 0 (the smallest is handled via zetas)
        let pap = reduce_inner_product(ctx, &p.q(), &ap.q(), Subset::All)?.re;
        let alpha = r2 / pap;

        // shifted coefficient updates
        let mut zeta_next = vec![0.0f64; n];
        for k in 0..n {
            // Jegerlehner recurrence:
            // ζ_{n+1} = ζ_n ζ_{n-1} α_{n-1} /
            //   ( α_n β_{n-1} (ζ_{n-1} − ζ_n) + ζ_{n-1} α_{n-1} (1 + σ α_n) )
            let denom = alpha * beta_prev * (zeta_prev[k] - zeta[k])
                + zeta_prev[k] * alpha_prev * (1.0 + shifts[k] * alpha);
            // guard: converged shifted systems freeze
            zeta_next[k] = if denom.abs() < 1e-300 {
                0.0
            } else {
                zeta[k] * zeta_prev[k] * alpha_prev / denom
            };
        }
        for k in 0..n {
            let alpha_k = if zeta[k] == 0.0 {
                0.0
            } else {
                alpha * zeta_next[k] / zeta[k]
            };
            xs[k].assign(xs[k].q() + alpha_k * ps[k].q())?;
        }

        r.assign(r.q() - alpha * ap.q())?;
        let r2_new = r.norm2()?;
        let beta = r2_new / r2;
        p.assign(r.q() + beta * p.q())?;
        for k in 0..n {
            beta_k[k] = if zeta[k] == 0.0 {
                0.0
            } else {
                beta * zeta_next[k] * zeta_next[k] / (zeta[k] * zeta[k])
            };
            ps[k].assign(cscale(
                qdp_types::Complex::from_real(zeta_next[k]),
                r.q(),
            ) + beta_k[k] * ps[k].q())?;
        }

        for k in 0..n {
            zeta_prev[k] = zeta[k];
            zeta[k] = zeta_next[k];
        }
        alpha_prev = alpha;
        beta_prev = beta;
        r2 = r2_new;
        iters += 1;
    }
    ctx.telemetry().count("solver.multishift_iters", iters as u64);
    span.end_with_sim(ctx.device().now());
    Ok(CgReport {
        iters,
        rel_resid: (r2 / b2).sqrt(),
        converged: r2 <= target,
    })
}

/// Convenience: `x ← Σ_k α_k (M†M + β_k)⁻¹ b  + c·b` — apply a rational
/// function in partial-fraction form (the RHMC pseudofermion kernel).
pub fn apply_rational(
    m: &WilsonDirac,
    c: f64,
    alphas: &[f64],
    betas: &[f64],
    out: &LatticeFermion<f64>,
    b: &LatticeFermion<f64>,
    tol: f64,
    max_iters: usize,
) -> Result<CgReport, CoreError> {
    let ctx = m.context();
    let xs: Vec<LatticeFermion<f64>> = (0..betas.len())
        .map(|_| LatticeFermion::new(ctx))
        .collect();
    let report = multishift_cg(m, betas, &xs, b, tol, max_iters)?;
    out.assign(c * b.q())?;
    for (a, x) in alphas.iter().zip(xs.iter()) {
        out.assign(out.q() + *a * x.q())?;
    }
    Ok(report)
}

/// Convenience import for cscale in this module.
use qdp_core::cscale;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauge::{gaussian_fermion, GaugeField};
    use qdp_rng::StdRng;
    use qdp_rng::SeedableRng;
    use std::sync::Arc;

    fn setup() -> (Arc<QdpContext>, WilsonDirac, StdRng) {
        let ctx = QdpContext::k20x(Geometry::symmetric(4));
        let mut rng = StdRng::seed_from_u64(7);
        let g = GaugeField::warm(&ctx, &mut rng, 0.25);
        let m = WilsonDirac::new(&g, 0.3, None);
        (ctx, m, rng)
    }

    #[test]
    fn cg_solves_normal_equations() {
        let (ctx, m, mut rng) = setup();
        let b = gaussian_fermion(&ctx, &mut rng);
        let x = LatticeFermion::<f64>::new(&ctx);
        let rep = cg_solve(&m, &x, &b, 1e-8, 500).unwrap();
        assert!(rep.converged, "CG did not converge: {rep:?}");
        // verify the true residual
        let ax = LatticeFermion::<f64>::new(&ctx);
        let tmp = LatticeFermion::<f64>::new(&ctx);
        m.apply_normal(&ax, &tmp, &x).unwrap();
        let d = LatticeFermion::<f64>::new(&ctx);
        d.assign(b.q() - ax.q()).unwrap();
        let rel = (d.norm2().unwrap() / b.norm2().unwrap()).sqrt();
        assert!(rel < 1e-7, "true residual {rel}");
    }

    #[test]
    fn bicgstab_solves_m_directly() {
        let (ctx, m, mut rng) = setup();
        let b = gaussian_fermion(&ctx, &mut rng);
        let x = LatticeFermion::<f64>::new(&ctx);
        let rep = bicgstab_solve(&m, &x, &b, 1e-8, 500).unwrap();
        assert!(rep.converged, "BiCGStab did not converge: {rep:?}");
        let ax = LatticeFermion::<f64>::new(&ctx);
        m.apply(&ax, &x).unwrap();
        let d = LatticeFermion::<f64>::new(&ctx);
        d.assign(b.q() - ax.q()).unwrap();
        let rel = (d.norm2().unwrap() / b.norm2().unwrap()).sqrt();
        assert!(rel < 1e-7, "true residual {rel}");
    }

    #[test]
    fn multishift_matches_individual_solves() {
        let (ctx, m, mut rng) = setup();
        let b = gaussian_fermion(&ctx, &mut rng);
        let shifts = [0.05, 0.4, 2.0];
        let xs: Vec<LatticeFermion<f64>> =
            (0..3).map(|_| LatticeFermion::new(&ctx)).collect();
        let rep = multishift_cg(&m, &shifts, &xs, &b, 1e-9, 800).unwrap();
        assert!(rep.converged, "{rep:?}");
        // each shifted system verified against its true residual
        for (k, sigma) in shifts.iter().enumerate() {
            let ax = LatticeFermion::<f64>::new(&ctx);
            let tmp = LatticeFermion::<f64>::new(&ctx);
            m.apply_normal(&ax, &tmp, &xs[k]).unwrap();
            let d = LatticeFermion::<f64>::new(&ctx);
            d.assign(b.q() - (ax.q() + *sigma * xs[k].q())).unwrap();
            let rel = (d.norm2().unwrap() / b.norm2().unwrap()).sqrt();
            assert!(rel < 1e-6, "shift {sigma}: residual {rel}");
        }
    }

    #[test]
    fn cg_reuses_kernels_across_iterations() {
        let (ctx, m, mut rng) = setup();
        let b = gaussian_fermion(&ctx, &mut rng);
        let x = LatticeFermion::<f64>::new(&ctx);
        cg_solve(&m, &x, &b, 1e-6, 200).unwrap();
        let k1 = ctx.kernels().len();
        // a second solve with a different rhs generates no new kernels
        let b2 = gaussian_fermion(&ctx, &mut rng);
        let x2 = LatticeFermion::<f64>::new(&ctx);
        cg_solve(&m, &x2, &b2, 1e-6, 200).unwrap();
        assert_eq!(ctx.kernels().len(), k1, "kernel set must be stable");
        // and the whole solve used only a handful of distinct kernels
        assert!(k1 < 20, "too many kernels: {k1}");
    }

    #[test]
    fn fused_cg_matches_unfused_bit_exactly() {
        let run = |fuse: bool, tol: f64, max_iters: usize| {
            let tel = Arc::new(qdp_telemetry::Telemetry::new());
            tel.enable();
            let ctx = QdpContext::builder(Geometry::symmetric(4))
                .fuse(fuse)
                .telemetry(tel)
                .build();
            let mut rng = StdRng::seed_from_u64(7);
            let g = GaugeField::warm(&ctx, &mut rng, 0.25);
            let m = WilsonDirac::new(&g, 0.3, None);
            let b = gaussian_fermion(&ctx, &mut rng);
            let x = LatticeFermion::<f64>::new(&ctx);
            let launches = || -> u64 {
                ctx.profile_report().kernels.iter().map(|k| k.launches).sum()
            };
            let l0 = launches();
            let rep = cg_solve(&m, &x, &b, tol, max_iters).unwrap();
            let bytes = ctx.cache().with_host(x.id(), |h| h.to_vec());
            (rep, bytes, launches() - l0)
        };
        let (rep_fused, x_fused, _) = run(true, 1e-8, 500);
        let (rep_plain, x_plain, _) = run(false, 1e-8, 500);
        assert_eq!(rep_fused.iters, rep_plain.iters);
        assert_eq!(
            rep_fused.rel_resid.to_bits(),
            rep_plain.rel_resid.to_bits(),
            "residuals must agree to the bit"
        );
        assert_eq!(
            x_fused, x_plain,
            "fused CG must be bit-identical to budget-1 CG"
        );

        // Budget 1 is one launch per recorded statement: 4 set-up assigns +
        // the ‖b‖² and ‖r‖² temporaries, then per iteration 2 applies, the
        // ⟨p,Ap⟩ temporary, x, r, the ‖r‖² temporary and p.
        let (rep10, _, launches10) = run(false, 1e-30, 10);
        assert_eq!(rep10.iters, 10);
        assert_eq!(launches10, 6 + 10 * 7);
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let (ctx, m, _rng) = setup();
        let b = LatticeFermion::<f64>::new(&ctx);
        let x = LatticeFermion::<f64>::new(&ctx);
        let rep = cg_solve(&m, &x, &b, 1e-10, 10).unwrap();
        assert!(rep.converged);
        assert_eq!(rep.iters, 0);
    }
}
