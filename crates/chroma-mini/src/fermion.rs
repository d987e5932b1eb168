//! The Wilson Dirac operator and the clover term, built from data-parallel
//! expressions (the paper's Fig. 1 / §VIII-C hopping term and the §VI-A
//! custom clover operation).

use crate::gauge::GaugeField;
use qdp_core::prelude::*;
use qdp_core::{adj, clover_mul, gamma_mu, shift, spin_project, spin_reconstruct};
use qdp_types::clover_block::CloverBlockPacked;
use qdp_types::{CloverDiag, CloverTriang, Complex, Fermion, Gamma};
use std::sync::Arc;

/// The hopping part of the Wilson discretisation (paper §VIII-C):
///
/// ```text
/// H(ψ)(x) = Σ_µ [ (1 − γ_µ) U_µ(x) ψ(x+µ̂) + (1 + γ_µ) U_µ†(x−µ̂) ψ(x−µ̂) ]
/// ```
///
/// generated from its high-level representation — one expression, one
/// kernel — at either precision.
pub fn wilson_hopping_expr<R: Real>(
    u: &Multi1d<LatticeColorMatrix<R>>,
    psi: QExpr<Fermion<R>>,
) -> QExpr<Fermion<R>> {
    hopping_expr(u, psi, ProjSign::Minus)
}

/// The hopping term in Chroma's spin-projected form: `(1 ± γ_µ)` has rank
/// 2, so each term projects ψ to a half spinor, multiplies the link into
/// its two spin rows and reconstructs into the sum —
/// `reconstruct(U_µ·shift(project ψ))` forward and
/// `reconstruct(shift(U_µ†·project ψ))` backward, 1 320 flops per site.
/// `isign` is the forward projector's sign: `Minus` is `H`, `Plus` is
/// `γ₅ H γ₅` (Chroma's `isign`).
fn hopping_expr<R: Real>(
    u: &Multi1d<LatticeColorMatrix<R>>,
    psi: QExpr<Fermion<R>>,
    isign: ProjSign,
) -> QExpr<Fermion<R>> {
    use ShiftDir::{Backward, Forward};
    let mut acc: Option<QExpr<Fermion<R>>> = None;
    for mu in 0..4 {
        let (fs, bs) = (isign, isign.flip());
        let fwd = u[mu].q() * shift(spin_project(psi.clone(), mu, fs), mu, Forward);
        let bwd = shift(adj(u[mu].q()) * spin_project(psi.clone(), mu, bs), mu, Backward);
        for (h, sign) in [(fwd, fs), (bwd, bs)] {
            let term = spin_reconstruct(h, mu, sign);
            acc = Some(match acc {
                None => term,
                Some(a) => a + term,
            });
        }
    }
    acc.expect("Nd > 0")
}

/// The clover term `A = 1 + (c_sw/2) Σ_{µ<ν} σ_µν ⊗ (−i F_µν)` in the
/// paper's packed block-diagonal storage (§VI-A, Table I lower part).
pub struct CloverTerm {
    /// Block diagonals.
    pub diag: LatticeCloverDiag<f64>,
    /// Block lower triangles.
    pub tri: LatticeCloverTriang<f64>,
    /// The improvement coefficient used at construction.
    pub csw: f64,
}

impl CloverTerm {
    /// Construct from a gauge configuration: the field strength `F_µν` is
    /// computed from the four "clover leaves" with data-parallel
    /// expressions, then the σ·F contraction is packed into the two
    /// Hermitian 6×6 blocks (the spin-color-mixing step the paper adds at
    /// application level).
    pub fn construct(g: &GaugeField, csw: f64) -> Result<CloverTerm, CoreError> {
        let ctx = g.context();
        let vol = ctx.geometry().vol();

        // F_µν for the 6 planes, as host snapshots of lattice color matrices.
        let mut f_host: Vec<Vec<qdp_types::PMatrix<Complex<f64>, 3>>> = Vec::new();
        let mut planes = Vec::new();
        for mu in 0..4 {
            for nu in (mu + 1)..4 {
                planes.push((mu, nu));
                let f = field_strength(g, mu, nu)?;
                f_host.push((0..vol).map(|s| f.get(s).0).collect());
            }
        }

        // σ_µν = (i/2)[γ_µ, γ_ν], Hermitian and block diagonal in the
        // DeGrand–Rossi (chiral) basis.
        let sigmas: Vec<[[Complex<f64>; 4]; 4]> = planes
            .iter()
            .map(|&(mu, nu)| sigma_munu(mu, nu))
            .collect();

        let diag = LatticeCloverDiag::<f64>::new(ctx);
        let tri = LatticeCloverTriang::<f64>::new(ctx);
        let mut dvals = vec![CloverDiag::<f64>::default(); vol];
        let mut tvals = vec![CloverTriang::<f64>::default(); vol];
        for s in 0..vol {
            for blk in 0..2 {
                // A_b[i][j] with i = 3·s_loc + c over spins {2b, 2b+1}
                let mut a = [[Complex::<f64>::zero(); 6]; 6];
                for i in 0..6 {
                    a[i][i] = Complex::one();
                }
                for (p, &(_mu, _nu)) in planes.iter().enumerate() {
                    let f = &f_host[p][s];
                    let sg = &sigmas[p];
                    for sl in 0..2 {
                        for tl in 0..2 {
                            let sig = sg[2 * blk + sl][2 * blk + tl];
                            if sig.norm_sqr() == 0.0 {
                                continue;
                            }
                            for c in 0..3 {
                                for d in 0..3 {
                                    // (−i F) is the Hermitian color matrix
                                    let hf = f.0[c][d].mul_neg_i();
                                    a[3 * sl + c][3 * tl + d] +=
                                        sig * hf * Complex::from_real(csw / 2.0);
                                }
                            }
                        }
                    }
                }
                let packed = CloverBlockPacked::pack(&a);
                dvals[s].blocks[blk] = packed.diag;
                tvals[s].blocks[blk] = packed.tri;
            }
        }
        diag.fill(|s| dvals[s]);
        tri.fill(|s| tvals[s]);
        Ok(CloverTerm {
            diag,
            tri,
            csw,
        })
    }

    /// `A·ψ` as an expression (the custom user-defined operation, §VI-A).
    pub fn apply_expr(&self, psi: QExpr<Fermion<f64>>) -> QExpr<Fermion<f64>> {
        clover_mul(&self.diag, &self.tri, psi)
    }

    /// Per-site inverse `A⁻¹` (for even-odd preconditioning).
    pub fn invert(&self, ctx: &Arc<QdpContext>) -> Result<CloverTerm, CoreError> {
        let vol = ctx.geometry().vol();
        let diag = LatticeCloverDiag::<f64>::new(ctx);
        let tri = LatticeCloverTriang::<f64>::new(ctx);
        let mut dvals = vec![CloverDiag::<f64>::default(); vol];
        let mut tvals = vec![CloverTriang::<f64>::default(); vol];
        for s in 0..vol {
            let d = self.diag.get(s);
            let t = self.tri.get(s);
            for blk in 0..2 {
                let packed = CloverBlockPacked {
                    diag: d.blocks[blk],
                    tri: t.blocks[blk],
                };
                let inv = packed.invert().ok_or_else(|| {
                    CoreError::Msg(format!("singular clover block at site {s}"))
                })?;
                dvals[s].blocks[blk] = inv.diag;
                tvals[s].blocks[blk] = inv.tri;
            }
        }
        diag.fill(|s| dvals[s]);
        tri.fill(|s| tvals[s]);
        Ok(CloverTerm {
            diag,
            tri,
            csw: self.csw,
        })
    }

    /// `Σ_x log det A(x)` (the even-odd preconditioned determinant piece).
    pub fn log_det(&self, ctx: &Arc<QdpContext>) -> Result<f64, CoreError> {
        let vol = ctx.geometry().vol();
        let mut sum = 0.0;
        for s in 0..vol {
            let d = self.diag.get(s);
            let t = self.tri.get(s);
            for blk in 0..2 {
                let packed = CloverBlockPacked {
                    diag: d.blocks[blk],
                    tri: t.blocks[blk],
                };
                sum += packed.log_det().ok_or_else(|| {
                    CoreError::Msg(format!("non-positive clover block at site {s}"))
                })?;
            }
        }
        Ok(sum)
    }
}

/// `σ_µν = (i/2)[γ_µ, γ_ν]` as a dense spin matrix.
fn sigma_munu(mu: usize, nu: usize) -> [[Complex<f64>; 4]; 4] {
    let gm: qdp_types::SpinMatrix<f64> = Gamma::gamma_mu(mu).dense();
    let gn: qdp_types::SpinMatrix<f64> = Gamma::gamma_mu(nu).dense();
    let comm = gm * gn - gn * gm;
    std::array::from_fn(|i| std::array::from_fn(|j| comm.0[i][j].0.mul_i().scale(0.5)))
}

/// The field strength from the four clover leaves:
/// `F_µν = (Q_µν − Q_µν†)/8` with `Q` the sum of the four plaquette leaves
/// around `x` in the `(µ,ν)` plane.
fn field_strength(
    g: &GaugeField,
    mu: usize,
    nu: usize,
) -> Result<LatticeColorMatrix<f64>, CoreError> {
    use ShiftDir::{Backward as B, Forward as F};
    let u = &g.u;
    let ctx = g.context();
    // leaf 1: U_µ(x) U_ν(x+µ) U_µ†(x+ν) U_ν†(x)
    let l1 = u[mu].q()
        * shift(u[nu].q(), mu, F)
        * adj(shift(u[mu].q(), nu, F))
        * adj(u[nu].q());
    // leaf 2: U_ν(x) U_µ†(x+ν−µ) U_ν†(x−µ) U_µ(x−µ)
    let l2 = u[nu].q()
        * shift(adj(shift(u[mu].q(), nu, F)) * adj(u[nu].q()) * u[mu].q(), mu, B);
    // leaf 3: U_µ†(x−µ) U_ν†(x−µ−ν) U_µ(x−µ−ν) U_ν(x−ν)
    let l3 = shift(
        adj(u[mu].q()) * shift(adj(u[nu].q()) * u[mu].q() * shift(u[nu].q(), mu, F), nu, B),
        mu,
        B,
    );
    // leaf 4: U_ν†(x−ν) U_µ(x−ν) U_ν(x+µ−ν) U_µ†(x)
    let l4 = shift(
        adj(u[nu].q()) * u[mu].q() * shift(u[nu].q(), mu, F),
        nu,
        B,
    ) * adj(u[mu].q());
    let q = l1 + l2 + l3 + l4;
    let f = LatticeColorMatrix::<f64>::new(ctx);
    f.assign(0.125 * (q.clone() - adj(q)))?;
    Ok(f)
}

/// The Wilson(-clover) Dirac operator
/// `M ψ = (m + 4)·ψ − ½ H ψ  [+ (A − 1)·ψ]`, γ₅-Hermitian
/// (`M† = γ₅ M γ₅`).
pub struct WilsonDirac {
    /// Gauge links (shared handles into the same fields).
    pub u: Multi1d<LatticeColorMatrix<f64>>,
    /// Bare quark mass.
    pub mass: f64,
    /// Optional clover term.
    pub clover: Option<CloverTerm>,
    ctx: Arc<QdpContext>,
}

impl WilsonDirac {
    /// Build the operator over a gauge field (clover optional).
    pub fn new(g: &GaugeField, mass: f64, clover: Option<CloverTerm>) -> WilsonDirac {
        let u = Multi1d::from_fn(4, |mu| {
            let l = LatticeColorMatrix::<f64>::new(g.context());
            l.assign(g.u[mu].q()).unwrap();
            l
        });
        WilsonDirac {
            u,
            mass,
            clover,
            ctx: Arc::clone(g.context()),
        }
    }

    /// The owning context.
    pub fn context(&self) -> &Arc<QdpContext> {
        &self.ctx
    }

    /// `M ψ` as one expression.
    pub fn apply_expr(&self, psi: QExpr<Fermion<f64>>) -> QExpr<Fermion<f64>> {
        self.apply_signed(psi, ProjSign::Minus)
    }

    /// `M† ψ = γ₅ M γ₅ ψ` as one expression: conjugating by γ₅ flips the
    /// hopping term's projector signs (Chroma's `isign`), and the mass and
    /// clover terms commute with γ₅.
    pub fn apply_dag_expr(&self, psi: QExpr<Fermion<f64>>) -> QExpr<Fermion<f64>> {
        self.apply_signed(psi, ProjSign::Plus)
    }

    /// `M` (`isign` = `Minus`) or `M†` (`Plus`).
    fn apply_signed(&self, psi: QExpr<Fermion<f64>>, isign: ProjSign) -> QExpr<Fermion<f64>> {
        let hopping = hopping_expr(&self.u, psi.clone(), isign);
        match &self.clover {
            None => (self.mass + 4.0) * psi + (-0.5) * hopping,
            Some(c) => {
                // (m+3)·ψ + A·ψ − ½H·ψ  ==  (m+4)ψ + (A−1)ψ − ½Hψ
                (self.mass + 3.0) * psi.clone()
                    + c.apply_expr(psi)
                    + (-0.5) * hopping
            }
        }
    }

    /// `out = M ψ`: one full-lattice statement on the issuing thread's
    /// stream (on an attached rank, `assign` exchanges the halos).
    pub fn apply(
        &self,
        out: &LatticeFermion<f64>,
        psi: &LatticeFermion<f64>,
    ) -> Result<EvalReport, CoreError> {
        out.assign(self.apply_expr(psi.q()))
    }

    /// `out = M† ψ`, like [`WilsonDirac::apply`].
    pub fn apply_dag(
        &self,
        out: &LatticeFermion<f64>,
        psi: &LatticeFermion<f64>,
    ) -> Result<EvalReport, CoreError> {
        out.assign(self.apply_dag_expr(psi.q()))
    }

    /// `out = M†M ψ` (through a temporary).
    pub fn apply_normal(
        &self,
        out: &LatticeFermion<f64>,
        tmp: &LatticeFermion<f64>,
        psi: &LatticeFermion<f64>,
    ) -> Result<(), CoreError> {
        self.apply(tmp, psi)?;
        self.apply_dag(out, tmp)?;
        Ok(())
    }
}

// re-export pieces used by force.rs
pub use qdp_core::outer_color;

/// `(1 − γ_µ) e` and `(1 + γ_µ) e` helpers.
pub fn one_minus_gamma(mu: usize, e: QExpr<Fermion<f64>>) -> QExpr<Fermion<f64>> {
    e.clone() - gamma_mu(mu) * e
}

/// See [`one_minus_gamma`].
pub fn one_plus_gamma(mu: usize, e: QExpr<Fermion<f64>>) -> QExpr<Fermion<f64>> {
    e.clone() + gamma_mu(mu) * e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauge::gaussian_fermion;
    use qdp_core::reduce_inner_product;
    use qdp_rng::StdRng;
    use qdp_rng::SeedableRng;

    fn setup() -> (Arc<QdpContext>, GaugeField, StdRng) {
        let ctx = QdpContext::k20x(Geometry::symmetric(4));
        let mut rng = StdRng::seed_from_u64(42);
        let g = GaugeField::warm(&ctx, &mut rng, 0.3);
        (ctx, g, rng)
    }

    #[test]
    fn hopping_term_on_cold_config_is_spin_sum_of_neighbors() {
        let ctx = QdpContext::k20x(Geometry::symmetric(4));
        let g = GaugeField::cold(&ctx);
        let mut rng = StdRng::seed_from_u64(1);
        let psi = gaussian_fermion(&ctx, &mut rng);
        let out = LatticeFermion::<f64>::new(&ctx);
        out.assign(wilson_hopping_expr(&g.u, psi.q())).unwrap();
        // Expected by host computation.
        let geom = ctx.geometry().clone();
        let x = geom.index_of([1, 2, 3, 0]);
        let mut expect = Fermion::<f64>::default();
        for mu in 0..4 {
            let gm = Gamma::gamma_mu(mu);
            let (xf, _) = geom.neighbor(x, mu, qdp_layout::Dir::Forward);
            let (xb, _) = geom.neighbor(x, mu, qdp_layout::Dir::Backward);
            let pf = psi.get(xf);
            let pb = psi.get(xb);
            let gf = gm.apply_fermion(&pf);
            let gb = gm.apply_fermion(&pb);
            for s in 0..4 {
                for c in 0..3 {
                    expect.0[s].0[c] += pf.0[s].0[c] - gf.0[s].0[c];
                    expect.0[s].0[c] += pb.0[s].0[c] + gb.0[s].0[c];
                }
            }
        }
        let got = out.get(x);
        for s in 0..4 {
            for c in 0..3 {
                assert!(
                    (got.0[s].0[c] - expect.0[s].0[c]).abs() < 1e-12,
                    "site {x} spin {s} color {c}"
                );
            }
        }
    }

    #[test]
    fn wilson_operator_is_gamma5_hermitian() {
        let (ctx, g, mut rng) = setup();
        let m = WilsonDirac::new(&g, 0.1, None);
        let x = gaussian_fermion(&ctx, &mut rng);
        let y = gaussian_fermion(&ctx, &mut rng);
        // ⟨y, M x⟩ must equal ⟨γ₅ M γ₅ y, x⟩ = ⟨M† y, x⟩
        let mx = LatticeFermion::<f64>::new(&ctx);
        m.apply(&mx, &x).unwrap();
        let mdag_y = LatticeFermion::<f64>::new(&ctx);
        m.apply_dag(&mdag_y, &y).unwrap();
        let a = reduce_inner_product(&ctx, &y.q(), &mx.q(), Subset::All).unwrap();
        let b = reduce_inner_product(&ctx, &mdag_y.q(), &x.q(), Subset::All).unwrap();
        assert!(
            (a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8,
            "⟨y,Mx⟩ = {a:?} vs ⟨M†y,x⟩ = {b:?}"
        );
    }

    #[test]
    fn clover_operator_is_gamma5_hermitian_and_hermitian() {
        let (ctx, g, mut rng) = setup();
        let clover = CloverTerm::construct(&g, 1.2).unwrap();
        // the clover term itself is Hermitian: ⟨y, A x⟩ = ⟨A y, x⟩
        let x = gaussian_fermion(&ctx, &mut rng);
        let y = gaussian_fermion(&ctx, &mut rng);
        let ax = LatticeFermion::<f64>::new(&ctx);
        ax.assign(clover.apply_expr(x.q())).unwrap();
        let ay = LatticeFermion::<f64>::new(&ctx);
        ay.assign(clover.apply_expr(y.q())).unwrap();
        let a = reduce_inner_product(&ctx, &y.q(), &ax.q(), Subset::All).unwrap();
        let b = reduce_inner_product(&ctx, &ay.q(), &x.q(), Subset::All).unwrap();
        assert!((a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8);
        // and the full clover Dirac operator is γ₅-Hermitian
        let m = WilsonDirac::new(&g, 0.1, Some(clover));
        let mx = LatticeFermion::<f64>::new(&ctx);
        m.apply(&mx, &x).unwrap();
        let mdag_y = LatticeFermion::<f64>::new(&ctx);
        m.apply_dag(&mdag_y, &y).unwrap();
        let a = reduce_inner_product(&ctx, &y.q(), &mx.q(), Subset::All).unwrap();
        let b = reduce_inner_product(&ctx, &mdag_y.q(), &x.q(), Subset::All).unwrap();
        assert!((a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8);
    }

    /// The sign-flipped `M†` is `γ₅ M γ₅` rebuilt from `M`, site by site,
    /// with and without the clover term.
    #[test]
    fn dagger_is_the_gamma5_sandwich_at_every_site() {
        use qdp_core::gamma;
        let (ctx, g, mut rng) = setup();
        let psi = gaussian_fermion(&ctx, &mut rng);
        let clover = CloverTerm::construct(&g, 1.2).unwrap();
        for clover in [None, Some(clover)] {
            let m = WilsonDirac::new(&g, 0.1, clover);
            let dag = LatticeFermion::<f64>::new(&ctx);
            m.apply_dag(&dag, &psi).unwrap();
            let sandwich = LatticeFermion::<f64>::new(&ctx);
            sandwich
                .assign(gamma(15) * m.apply_expr(gamma(15) * psi.q()))
                .unwrap();
            for x in 0..ctx.geometry().vol() {
                let (a, b) = (dag.get(x), sandwich.get(x));
                let (mut diff, mut norm) = (0.0, 0.0);
                for s in 0..4 {
                    for c in 0..3 {
                        diff += (a.0[s].0[c] - b.0[s].0[c]).norm_sqr();
                        norm += b.0[s].0[c].norm_sqr();
                    }
                }
                assert!(
                    diff.sqrt() <= 1e-13 * norm.sqrt(),
                    "clover {}: site {x}: |M†ψ − γ₅Mγ₅ψ| = {} of {}",
                    m.clover.is_some(),
                    diff.sqrt(),
                    norm.sqrt()
                );
            }
        }
    }

    #[test]
    fn clover_term_is_identity_on_cold_config() {
        let ctx = QdpContext::k20x(Geometry::symmetric(4));
        let g = GaugeField::cold(&ctx);
        let clover = CloverTerm::construct(&g, 1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let psi = gaussian_fermion(&ctx, &mut rng);
        let out = LatticeFermion::<f64>::new(&ctx);
        out.assign(clover.apply_expr(psi.q())).unwrap();
        let d = LatticeFermion::<f64>::new(&ctx);
        d.assign(out.q() - psi.q()).unwrap();
        assert!(d.norm2().unwrap() < 1e-20, "A should be 1 when F = 0");
        // log det A = 0 on the cold configuration
        assert!(clover.log_det(&ctx).unwrap().abs() < 1e-10);
    }

    #[test]
    fn clover_inverse_roundtrip() {
        let (ctx, g, mut rng) = setup();
        let clover = CloverTerm::construct(&g, 1.0).unwrap();
        let inv = clover.invert(&ctx).unwrap();
        let psi = gaussian_fermion(&ctx, &mut rng);
        let tmp = LatticeFermion::<f64>::new(&ctx);
        tmp.assign(clover.apply_expr(psi.q())).unwrap();
        let back = LatticeFermion::<f64>::new(&ctx);
        back.assign(inv.apply_expr(tmp.q())).unwrap();
        let d = LatticeFermion::<f64>::new(&ctx);
        d.assign(back.q() - psi.q()).unwrap();
        let rel = d.norm2().unwrap() / psi.norm2().unwrap();
        assert!(rel < 1e-20, "A⁻¹A ≠ 1: rel err {rel}");
    }

    #[test]
    fn field_strength_is_antihermitian_and_vanishes_cold() {
        let ctx = QdpContext::k20x(Geometry::symmetric(4));
        let g = GaugeField::cold(&ctx);
        let f = field_strength(&g, 0, 1).unwrap();
        assert!(f.norm2().unwrap() < 1e-24);

        let mut rng = StdRng::seed_from_u64(4);
        let g = GaugeField::warm(&ctx, &mut rng, 0.3);
        let f = field_strength(&g, 2, 3).unwrap();
        for s in [0usize, 10, 99] {
            use qdp_types::inner::Ring;
            let m = f.get(s).0;
            let mh = m.adj();
            for i in 0..3 {
                for j in 0..3 {
                    assert!((mh.0[i][j] + m.0[i][j]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn mass_term_shifts_spectrum() {
        // ⟨ψ, M ψ⟩ grows linearly with the bare mass.
        let (ctx, g, mut rng) = setup();
        let psi = gaussian_fermion(&ctx, &mut rng);
        let n2 = psi.norm2().unwrap();
        let m1 = WilsonDirac::new(&g, 0.0, None);
        let m2 = WilsonDirac::new(&g, 0.7, None);
        let t = LatticeFermion::<f64>::new(&ctx);
        m1.apply(&t, &psi).unwrap();
        let a = reduce_inner_product(&ctx, &psi.q(), &t.q(), Subset::All).unwrap();
        m2.apply(&t, &psi).unwrap();
        let b = reduce_inner_product(&ctx, &psi.q(), &t.q(), Subset::All).unwrap();
        assert!(((b.re - a.re) - 0.7 * n2).abs() < 1e-8 * n2);
    }
}
