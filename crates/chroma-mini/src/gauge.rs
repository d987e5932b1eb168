//! Gauge fields and the pure-gauge (Wilson plaquette) sector.

use qdp_core::prelude::*;
use qdp_core::{adj, diag_fill, real, reduce_sum_real, shift, trace};
use qdp_types::su3::{random_algebra, random_su3, reunitarize};
use qdp_types::{ColorMatrix, PMatrix, PScalar, PVector};
use qdp_rng::Rng;
use std::sync::Arc;

/// The SU(3) gauge configuration: one `LatticeColorMatrix` per dimension
/// (paper Fig. 1's `multi1d<LatticeColorMatrix> u(Nd)`).
pub struct GaugeField {
    /// Links `U_µ(x)`.
    pub u: Multi1d<LatticeColorMatrix<f64>>,
    ctx: Arc<QdpContext>,
}

impl GaugeField {
    /// Cold start: all links = 1.
    pub fn cold(ctx: &Arc<QdpContext>) -> GaugeField {
        let u = Multi1d::from_fn(4, |_| {
            LatticeColorMatrix::<f64>::from_fn(ctx, |_| PScalar(PMatrix::from_fn(|i, j| {
                if i == j {
                    qdp_types::Complex::one()
                } else {
                    qdp_types::Complex::zero()
                }
            })))
        });
        GaugeField {
            u,
            ctx: Arc::clone(ctx),
        }
    }

    /// Hot start: uniformly random SU(3) links.
    pub fn hot(ctx: &Arc<QdpContext>, rng: &mut impl Rng) -> GaugeField {
        let u = Multi1d::from_fn(4, |_| {
            LatticeColorMatrix::<f64>::from_fn(ctx, |_| PScalar(random_su3(rng)))
        });
        GaugeField {
            u,
            ctx: Arc::clone(ctx),
        }
    }

    /// Weakly disordered start: links near the identity (useful for tests
    /// that need a non-trivial but well-conditioned configuration).
    pub fn warm(ctx: &Arc<QdpContext>, rng: &mut impl Rng, eps: f64) -> GaugeField {
        let u = Multi1d::from_fn(4, |_| {
            LatticeColorMatrix::<f64>::from_fn(ctx, |_| {
                let p = random_algebra::<f64>(rng);
                let scaled = PMatrix::from_fn(|i, j| p.0[i][j].scale(eps));
                PScalar(qdp_types::su3::expm(&scaled))
            })
        });
        GaugeField {
            u,
            ctx: Arc::clone(ctx),
        }
    }

    /// Wrap already-built links (checkpoint restore, distributed drivers
    /// that construct links from global coordinates).
    pub fn from_links(
        ctx: &Arc<QdpContext>,
        u: Multi1d<LatticeColorMatrix<f64>>,
    ) -> GaugeField {
        assert_eq!(u.0.len(), 4, "need one link field per dimension");
        GaugeField {
            u,
            ctx: Arc::clone(ctx),
        }
    }

    /// The owning context.
    pub fn context(&self) -> &Arc<QdpContext> {
        &self.ctx
    }

    /// Deep copy of the configuration.
    pub fn clone_config(&self) -> GaugeField {
        let u = Multi1d::from_fn(4, |mu| {
            let l = LatticeColorMatrix::<f64>::new(&self.ctx);
            l.assign(self.u[mu].q()).unwrap();
            l
        });
        GaugeField {
            u,
            ctx: Arc::clone(&self.ctx),
        }
    }

    /// The plaquette expression `U_µ(x) U_ν(x+µ) U_µ†(x+ν) U_ν†(x)`.
    pub fn plaquette_expr(
        &self,
        mu: usize,
        nu: usize,
    ) -> QExpr<ColorMatrix<f64>> {
        self.u[mu].q()
            * shift(self.u[nu].q(), mu, ShiftDir::Forward)
            * adj(shift(self.u[mu].q(), nu, ShiftDir::Forward))
            * adj(self.u[nu].q())
    }

    /// Average plaquette `⟨(1/3) Re tr P_{µν}⟩` over all sites and planes
    /// of the whole lattice (1.0 on a cold configuration).
    pub fn plaquette(&self) -> Result<f64, CoreError> {
        let vol = self.ctx.global_vol() as f64;
        let mut total = 0.0;
        for mu in 0..4 {
            for nu in (mu + 1)..4 {
                total += reduce_sum_real(
                    &self.ctx,
                    &real(trace(self.plaquette_expr(mu, nu))),
                    Subset::All,
                )?;
            }
        }
        Ok(total / (3.0 * 6.0 * vol))
    }

    /// Wilson gauge action `S_g = β Σ_x Σ_{µ<ν} (1 − (1/3) Re tr P_{µν})`.
    pub fn wilson_action(&self, beta: f64) -> Result<f64, CoreError> {
        let vol = self.ctx.global_vol() as f64;
        let plaq = self.plaquette()?;
        Ok(beta * 6.0 * vol * (1.0 - plaq))
    }

    /// The staple sum `V_µ(x)` such that
    /// `Σ_{ν≠µ} Re tr P_{µν}` terms containing `U_µ(x)` equal
    /// `Re tr( U_µ(x) V_µ(x) )`.
    pub fn staple_expr(&self, mu: usize) -> QExpr<ColorMatrix<f64>> {
        let mut acc: Option<QExpr<ColorMatrix<f64>>> = None;
        for nu in 0..4 {
            if nu == mu {
                continue;
            }
            // upper staple: U_ν(x+µ) U_µ†(x+ν) U_ν†(x)
            let up = shift(self.u[nu].q(), mu, ShiftDir::Forward)
                * adj(shift(self.u[mu].q(), nu, ShiftDir::Forward))
                * adj(self.u[nu].q());
            // lower staple: U_ν†(x+µ−ν) U_µ†(x−ν) U_ν(x−ν)
            let down = shift(
                adj(shift(self.u[nu].q(), mu, ShiftDir::Forward))
                    * adj(self.u[mu].q())
                    * self.u[nu].q(),
                nu,
                ShiftDir::Backward,
            );
            let term = up + down;
            acc = Some(match acc {
                None => term,
                Some(a) => a + term,
            });
        }
        acc.expect("Nd > 1")
    }

    /// Re-project every link onto SU(3) (host-side Gram–Schmidt), fighting
    /// the rounding drift of long MD integrations.
    pub fn reunitarize(&self) {
        let vol = self.ctx.geometry().vol();
        for mu in 0..4 {
            for s in 0..vol {
                let m = self.u[mu].get(s);
                self.u[mu].set(s, PScalar(reunitarize(&m.0)));
            }
        }
    }

    /// Maximum SU(3) violation over all links (monitoring).
    pub fn max_su3_violation(&self) -> f64 {
        let vol = self.ctx.geometry().vol();
        let mut worst: f64 = 0.0;
        for mu in 0..4 {
            for s in 0..vol {
                worst = worst.max(qdp_types::su3::su3_violation(&self.u[mu].get(s).0));
            }
        }
        worst
    }
}

/// The traceless anti-Hermitian projection used for momenta and forces:
/// `taproj(M) = (M − M†)/2 − tr(M − M†)/(2·3)·1`.
pub fn taproj(m: QExpr<ColorMatrix<f64>>) -> QExpr<ColorMatrix<f64>> {
    let anti = 0.5 * (m.clone() - adj(m));
    let tr_part = diag_fill((1.0 / 3.0) * trace(anti.clone()));
    anti - tr_part
}

/// Gaussian momenta: one traceless anti-Hermitian matrix per link,
/// normalised so `⟨‖P‖²⟩ = 8` per link (one unit per generator).
pub fn refresh_momenta(
    ctx: &Arc<QdpContext>,
    rng: &mut impl Rng,
) -> Multi1d<LatticeColorMatrix<f64>> {
    Multi1d::from_fn(4, |_| {
        LatticeColorMatrix::<f64>::from_fn(ctx, |_| PScalar(random_algebra(rng)))
    })
}

/// Kinetic energy `T = ½ Σ_{x,µ} ‖P_µ(x)‖²_F`.
///
/// The four per-direction norms are batched through a deferred scope:
/// under `QDP_FUSE=1` the local-norm temporaries fuse into one
/// four-output kernel sharing a single reduction pass (one launch
/// instead of four). The host-side sum order is unchanged, so the
/// result is bit-identical to the per-direction loop.
pub fn kinetic_energy(p: &Multi1d<LatticeColorMatrix<f64>>) -> Result<f64, CoreError> {
    let ctx = p[0].context();
    let mut scope = ctx.deferred();
    let n2 = scope.norm2_batch(&[&p[0], &p[1], &p[2], &p[3]])?;
    let mut t = 0.0;
    for v in n2 {
        t += 0.5 * v;
    }
    Ok(t)
}

/// Gaussian noise fermion (for pseudofermion refreshment and stochastic
/// estimators): every real component `~ N(0, 1/√2)` per complex, i.e.
/// `⟨‖η‖²⟩ = 24·(1/2)·2 = 24` per site with unit-variance parts.
pub fn gaussian_fermion(
    ctx: &Arc<QdpContext>,
    rng: &mut impl Rng,
) -> LatticeFermion<f64> {
    LatticeFermion::<f64>::from_fn(ctx, |_| {
        PVector::from_fn(|_| PVector::from_fn(|_| gaussian_c(rng)))
    })
}

fn gaussian_c(rng: &mut impl Rng) -> qdp_types::Complex<f64> {
    // unit-variance real and imaginary parts
    qdp_types::su3::gaussian_complex::<f64>(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_rng::StdRng;
    use qdp_rng::SeedableRng;

    fn ctx() -> Arc<QdpContext> {
        QdpContext::k20x(Geometry::symmetric(4))
    }

    #[test]
    fn cold_plaquette_is_one() {
        let c = ctx();
        let g = GaugeField::cold(&c);
        let p = g.plaquette().unwrap();
        assert!((p - 1.0).abs() < 1e-12, "cold plaquette {p}");
        assert!(g.wilson_action(5.5).unwrap().abs() < 1e-8);
    }

    #[test]
    fn hot_plaquette_is_small() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let g = GaugeField::hot(&c, &mut rng);
        let p = g.plaquette().unwrap();
        assert!(p.abs() < 0.2, "hot plaquette should be ~0, got {p}");
    }

    #[test]
    fn warm_start_is_near_identity() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let g = GaugeField::warm(&c, &mut rng, 0.1);
        let p = g.plaquette().unwrap();
        assert!(p > 0.9, "warm plaquette {p}");
        assert!(g.max_su3_violation() < 1e-12);
    }

    #[test]
    fn plaquette_is_gauge_invariant_under_reunitarize() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let g = GaugeField::warm(&c, &mut rng, 0.3);
        let p1 = g.plaquette().unwrap();
        g.reunitarize();
        let p2 = g.plaquette().unwrap();
        assert!((p1 - p2).abs() < 1e-10, "{p1} vs {p2}");
    }

    #[test]
    fn staple_matches_action_derivative_structure() {
        // Σ_µ Re tr(U_µ V_µ) counts each plaquette 4 times (once per link
        // staple decomposition): Σ_µ Re tr(U_µ V_µ) = 4 Σ_{µ<ν} Re tr P.
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let g = GaugeField::warm(&c, &mut rng, 0.2);
        let mut sum_staple = 0.0;
        for mu in 0..4 {
            sum_staple += reduce_sum_real(
                &c,
                &real(trace(g.u[mu].q() * g.staple_expr(mu))),
                Subset::All,
            )
            .unwrap();
        }
        let mut sum_plaq = 0.0;
        for mu in 0..4 {
            for nu in (mu + 1)..4 {
                sum_plaq += reduce_sum_real(
                    &c,
                    &real(trace(g.plaquette_expr(mu, nu))),
                    Subset::All,
                )
                .unwrap();
            }
        }
        assert!(
            (sum_staple - 4.0 * sum_plaq).abs() < 1e-8 * sum_plaq.abs(),
            "staple sum {sum_staple} vs 4×plaquette {sum_plaq}"
        );
    }

    #[test]
    fn taproj_produces_traceless_antihermitian() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(5);
        let g = GaugeField::warm(&c, &mut rng, 0.5);
        let m = LatticeColorMatrix::<f64>::new(&c);
        m.assign(taproj(g.u[0].q() * g.staple_expr(0))).unwrap();
        for s in [0usize, 17, 100] {
            let v = m.get(s).0;
            // anti-Hermitian
            use qdp_types::inner::Ring;
            let ah = v.adj();
            for i in 0..3 {
                for j in 0..3 {
                    assert!((ah.0[i][j] + v.0[i][j]).abs() < 1e-12);
                }
            }
            // traceless
            assert!(v.trace().abs() < 1e-12);
        }
    }

    #[test]
    fn momenta_equipartition() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(6);
        let p = refresh_momenta(&c, &mut rng);
        let t = kinetic_energy(&p).unwrap();
        // ⟨T⟩ = 4 (dims) × vol × 8/2
        let expect = 4.0 * 256.0 * 4.0;
        assert!(
            (t - expect).abs() / expect < 0.1,
            "kinetic {t}, expected ≈ {expect}"
        );
    }

    #[test]
    fn gaussian_fermion_norm() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(7);
        let f = gaussian_fermion(&c, &mut rng);
        let n2 = f.norm2().unwrap();
        // 24 unit-variance reals per site
        let expect = 24.0 * 256.0;
        assert!((n2 - expect).abs() / expect < 0.1, "norm2 {n2}");
    }
}
