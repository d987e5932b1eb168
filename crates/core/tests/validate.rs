//! Validation: the generated-kernel path must agree with the CPU reference
//! path ("original implementation") bit-for-bit in the same precision, for
//! every operation class the paper's evaluation uses.

use qdp_core::prelude::*;
use qdp_core::{adj, clover_mul, gamma, real, shift, trace};
use qdp_types::su3::random_su3;
use qdp_types::{
    CloverDiag, CloverTriang, ColorMatrix, Fermion, PScalar, PVector, SpinMatrix,
};
use qdp_rng::{SeedableRng, StdRng};
use std::sync::Arc;

type C64 = qdp_types::Complex<f64>;

fn rand_cm(rng: &mut StdRng) -> ColorMatrix<f64> {
    PScalar(random_su3::<f64>(rng))
}

fn rand_fermion(rng: &mut StdRng) -> Fermion<f64> {
    PVector::from_fn(|_| {
        PVector::from_fn(|_| qdp_types::su3::gaussian_complex::<f64>(rng))
    })
}

fn rand_spinmatrix(rng: &mut StdRng) -> SpinMatrix<f64> {
    qdp_types::PMatrix::from_fn(|_, _| PScalar(qdp_types::su3::gaussian_complex::<f64>(rng)))
}

fn ctx4() -> Arc<QdpContext> {
    QdpContext::k20x(Geometry::symmetric(4))
}

fn assert_fermions_equal(a: &LatticeFermion<f64>, b: &LatticeFermion<f64>, what: &str) {
    let vol = a.context().geometry().vol();
    for s in 0..vol {
        let (x, y) = (a.get(s), b.get(s));
        for sp in 0..4 {
            for c in 0..3 {
                assert_eq!(
                    x.0[sp].0[c], y.0[sp].0[c],
                    "{what}: site {s} spin {sp} color {c}"
                );
            }
        }
    }
}

fn assert_cm_equal(a: &LatticeColorMatrix<f64>, b: &LatticeColorMatrix<f64>, what: &str) {
    let vol = a.context().geometry().vol();
    for s in 0..vol {
        let (x, y) = (a.get(s), b.get(s));
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(x.0 .0[i][j], y.0 .0[i][j], "{what}: site {s} ({i},{j})");
            }
        }
    }
}

#[test]
fn lcm_kernel_matches_reference() {
    // Table II `lcm`: U1 = U2 * U3
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(1);
    let u2 = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| rand_cm(&mut rng));
    let u3 = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| rand_cm(&mut rng));
    let jit = LatticeColorMatrix::<f64>::new(&ctx);
    let refr = LatticeColorMatrix::<f64>::new(&ctx);
    jit.assign(u2.q() * u3.q()).unwrap();
    refr.assign_reference(u2.q() * u3.q()).unwrap();
    assert_cm_equal(&jit, &refr, "lcm");
}

#[test]
fn upsi_kernel_matches_reference() {
    // Table II `upsi`: psi1 = U1 * psi2
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(2);
    let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| rand_cm(&mut rng));
    let psi = LatticeFermion::<f64>::from_fn(&ctx, |_| rand_fermion(&mut rng));
    let jit = LatticeFermion::<f64>::new(&ctx);
    let refr = LatticeFermion::<f64>::new(&ctx);
    jit.assign(u.q() * psi.q()).unwrap();
    refr.assign_reference(u.q() * psi.q()).unwrap();
    assert_fermions_equal(&jit, &refr, "upsi");
}

#[test]
fn spmat_kernel_matches_reference() {
    // Table II `spmat`: G1 = G2 * G3
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(3);
    let g2 = LatticeSpinMatrix::<f64>::from_fn(&ctx, |_| rand_spinmatrix(&mut rng));
    let g3 = LatticeSpinMatrix::<f64>::from_fn(&ctx, |_| rand_spinmatrix(&mut rng));
    let jit = LatticeSpinMatrix::<f64>::new(&ctx);
    let refr = LatticeSpinMatrix::<f64>::new(&ctx);
    jit.assign(g2.q() * g3.q()).unwrap();
    refr.assign_reference(g2.q() * g3.q()).unwrap();
    let vol = ctx.geometry().vol();
    for s in 0..vol {
        let (x, y) = (jit.get(s), refr.get(s));
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(x.0[i][j].0, y.0[i][j].0, "spmat site {s} ({i},{j})");
            }
        }
    }
}

#[test]
fn matvec_with_scalars_matches_reference() {
    // Table II `matvec` + scalar parameters: psi0 = a*(U*psi1) + U*psi2
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(4);
    let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| rand_cm(&mut rng));
    let p1 = LatticeFermion::<f64>::from_fn(&ctx, |_| rand_fermion(&mut rng));
    let p2 = LatticeFermion::<f64>::from_fn(&ctx, |_| rand_fermion(&mut rng));
    let jit = LatticeFermion::<f64>::new(&ctx);
    let refr = LatticeFermion::<f64>::new(&ctx);
    let e = || 0.75 * (u.q() * p1.q()) + u.q() * p2.q();
    jit.assign(e()).unwrap();
    refr.assign_reference(e()).unwrap();
    assert_fermions_equal(&jit, &refr, "matvec");
}

#[test]
fn figure1_derivative_matches_reference() {
    // The paper's Fig. 1: psi = u*shift(phi,+mu) + shift(adj(u)*phi,-mu)
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(5);
    let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| rand_cm(&mut rng));
    let phi = LatticeFermion::<f64>::from_fn(&ctx, |_| rand_fermion(&mut rng));
    for mu in 0..4 {
        let jit = LatticeFermion::<f64>::new(&ctx);
        let refr = LatticeFermion::<f64>::new(&ctx);
        let e = || {
            u.q() * shift(phi.q(), mu, ShiftDir::Forward)
                + shift(adj(u.q()) * phi.q(), mu, ShiftDir::Backward)
        };
        jit.assign(e()).unwrap();
        refr.assign_reference(e()).unwrap();
        assert_fermions_equal(&jit, &refr, &format!("derivative mu={mu}"));
    }
}

#[test]
fn shift_is_a_permutation() {
    // shifting forward then backward returns the original field
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(6);
    let phi = LatticeFermion::<f64>::from_fn(&ctx, |_| rand_fermion(&mut rng));
    let tmp = LatticeFermion::<f64>::new(&ctx);
    let back = LatticeFermion::<f64>::new(&ctx);
    tmp.assign(shift(phi.q(), 2, ShiftDir::Forward)).unwrap();
    back.assign(shift(tmp.q(), 2, ShiftDir::Backward)).unwrap();
    assert_fermions_equal(&back, &phi, "shift roundtrip");
}

/// `x = shift(x, mu, dir)` has QDP++'s semantics: the right-hand side is
/// evaluated in full before the assignment, whatever order the kernel's
/// threads run in.
#[test]
fn self_shift_assignment_matches_reference() {
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(21);
    let vol = ctx.geometry().vol();
    let psi: Vec<Fermion<f64>> = (0..vol).map(|_| rand_fermion(&mut rng)).collect();
    let u: Vec<ColorMatrix<f64>> = (0..vol).map(|_| rand_cm(&mut rng)).collect();
    for mu in 0..4 {
        for dir in [ShiftDir::Forward, ShiftDir::Backward] {
            let what = format!("x = shift(x, {mu}, {dir:?})");
            let jit = LatticeFermion::<f64>::from_fn(&ctx, |s| psi[s]);
            let refr = LatticeFermion::<f64>::from_fn(&ctx, |s| psi[s]);
            jit.assign(shift(jit.q(), mu, dir)).unwrap();
            refr.assign_reference(shift(refr.q(), mu, dir)).unwrap();
            assert_fermions_equal(&jit, &refr, &what);

            let jit = LatticeColorMatrix::<f64>::from_fn(&ctx, |s| u[s]);
            let refr = LatticeColorMatrix::<f64>::from_fn(&ctx, |s| u[s]);
            jit.assign(shift(jit.q(), mu, dir)).unwrap();
            refr.assign_reference(shift(refr.q(), mu, dir)).unwrap();
            assert_cm_equal(&jit, &refr, &what);
        }
    }
}

#[test]
fn gamma_kernel_matches_reference_and_host_algebra() {
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(7);
    let phi = LatticeFermion::<f64>::from_fn(&ctx, |_| rand_fermion(&mut rng));
    for n in [1usize, 2, 8, 15] {
        let jit = LatticeFermion::<f64>::new(&ctx);
        let refr = LatticeFermion::<f64>::new(&ctx);
        jit.assign(gamma(n) * phi.q()).unwrap();
        refr.assign_reference(gamma(n) * phi.q()).unwrap();
        assert_fermions_equal(&jit, &refr, &format!("Gamma({n})"));
        // cross-check one site against the host gamma algebra
        let g = qdp_types::Gamma::from_index(n);
        let expect = g.apply_fermion(&phi.get(13));
        let got = jit.get(13);
        for sp in 0..4 {
            for c in 0..3 {
                assert_eq!(got.0[sp].0[c], expect.0[sp].0[c]);
            }
        }
    }
}

#[test]
fn clover_apply_matches_reference_and_packed_host_blocks() {
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(8);
    // random Hermitian positive-ish blocks per site
    let mk_block = |rng: &mut StdRng| {
        let mut full = [[C64::zero(); 6]; 6];
        for i in 0..6 {
            for j in 0..i {
                let z = qdp_types::su3::gaussian_complex::<f64>(rng).scale(0.2);
                full[i][j] = z;
                full[j][i] = z.conj();
            }
            full[i][i] = C64::new(2.0 + qdp_types::su3::gaussian::<f64>(rng) * 0.1, 0.0);
        }
        qdp_types::CloverBlockPacked::pack(&full)
    };
    let vol = ctx.geometry().vol();
    let blocks: Vec<[qdp_types::CloverBlockPacked<f64>; 2]> = (0..vol)
        .map(|_| [mk_block(&mut rng), mk_block(&mut rng)])
        .collect();
    let diag = LatticeCloverDiag::<f64>::from_fn(&ctx, |s| CloverDiag {
        blocks: [blocks[s][0].diag, blocks[s][1].diag],
    });
    let tri = LatticeCloverTriang::<f64>::from_fn(&ctx, |s| CloverTriang {
        blocks: [blocks[s][0].tri, blocks[s][1].tri],
    });
    let psi = LatticeFermion::<f64>::from_fn(&ctx, |_| rand_fermion(&mut rng));
    let jit = LatticeFermion::<f64>::new(&ctx);
    let refr = LatticeFermion::<f64>::new(&ctx);
    jit.assign(clover_mul(&diag, &tri, psi.q())).unwrap();
    refr.assign_reference(clover_mul(&diag, &tri, psi.q()))
        .unwrap();
    assert_fermions_equal(&jit, &refr, "clover");
    // cross-check against the host packed-block apply
    for s in [0usize, 7, 100] {
        let x = psi.get(s);
        let y = jit.get(s);
        for b in 0..2 {
            let xin: [C64; 6] = std::array::from_fn(|i| x.0[2 * b + i / 3].0[i % 3]);
            let yout = blocks[s][b].apply(&xin);
            for i in 0..6 {
                let got = y.0[2 * b + i / 3].0[i % 3];
                assert!(
                    (got - yout[i]).abs() < 1e-12,
                    "clover host check site {s} block {b} comp {i}"
                );
            }
        }
    }
}

#[test]
fn subset_assignment_touches_only_the_subset() {
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(9);
    let a = LatticeFermion::<f64>::from_fn(&ctx, |_| rand_fermion(&mut rng));
    let b = LatticeFermion::<f64>::from_fn(&ctx, |_| rand_fermion(&mut rng));
    let orig = b.to_vec();
    b.assign_on(Subset::Even, 2.0 * a.q()).unwrap();
    let g = ctx.geometry();
    for s in 0..g.vol() {
        let got = b.get(s);
        if g.parity(s) == 0 {
            let expect = a.get(s);
            for sp in 0..4 {
                for c in 0..3 {
                    assert_eq!(got.0[sp].0[c], expect.0[sp].0[c].scale(2.0));
                }
            }
        } else {
            for sp in 0..4 {
                for c in 0..3 {
                    assert_eq!(got.0[sp].0[c], orig[s].0[sp].0[c], "odd site {s} changed");
                }
            }
        }
    }
}

#[test]
fn single_precision_matches_reference() {
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(10);
    let u = Lattice::<ColorMatrix<f32>>::from_fn(&ctx, |_| {
        PScalar(random_su3::<f32>(&mut rng))
    });
    let psi = Lattice::<Fermion<f32>>::from_fn(&ctx, |_| {
        PVector::from_fn(|_| PVector::from_fn(|_| qdp_types::su3::gaussian_complex::<f32>(&mut rng)))
    });
    let jit = Lattice::<Fermion<f32>>::new(&ctx);
    let refr = Lattice::<Fermion<f32>>::new(&ctx);
    jit.assign(u.q() * psi.q()).unwrap();
    refr.assign_reference(u.q() * psi.q()).unwrap();
    let vol = ctx.geometry().vol();
    for s in 0..vol {
        let (x, y) = (jit.get(s), refr.get(s));
        for sp in 0..4 {
            for c in 0..3 {
                assert_eq!(x.0[sp].0[c], y.0[sp].0[c], "sp site {s}");
            }
        }
    }
}

#[test]
fn reductions_match_host_computation() {
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(11);
    let psi = LatticeFermion::<f64>::from_fn(&ctx, |_| rand_fermion(&mut rng));
    let n2 = psi.norm2().unwrap();
    let host: f64 = psi
        .to_vec()
        .iter()
        .map(|f| {
            let mut s = 0.0;
            for sp in 0..4 {
                for c in 0..3 {
                    s += f.0[sp].0[c].norm_sqr();
                }
            }
            s
        })
        .sum();
    assert!(
        (n2 - host).abs() / host < 1e-12,
        "norm2 device {n2} vs host {host}"
    );
    // inner product ⟨psi, psi⟩ = ‖psi‖² (imaginary part ~ 0)
    let ip = qdp_core::reduce_inner_product(
        &ctx,
        &psi.q(),
        &psi.q(),
        Subset::All,
    )
    .unwrap();
    assert!((ip.re - host).abs() / host < 1e-12);
    assert!(ip.im.abs() / host < 1e-12);
    // even + odd = all
    let even = psi.norm2_on(Subset::Even).unwrap();
    let odd = psi.norm2_on(Subset::Odd).unwrap();
    assert!((even + odd - n2).abs() / n2 < 1e-12);
}

#[test]
fn trace_real_reduction_matches_host() {
    // Σ Re tr(U) — the plaquette-style observable shape.
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(12);
    let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| rand_cm(&mut rng));
    let got = qdp_core::reduce_sum_real(&ctx, &real(trace(u.q())), Subset::All).unwrap();
    let host: f64 = u
        .to_vec()
        .iter()
        .map(|m| (0..3).map(|i| m.0 .0[i][i].re).sum::<f64>())
        .sum();
    assert!((got - host).abs() < 1e-10 * host.abs().max(1.0));
}

#[test]
fn kernel_cache_reuses_structurally_equal_expressions() {
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(13);
    let a = LatticeFermion::<f64>::from_fn(&ctx, |_| rand_fermion(&mut rng));
    let b = LatticeFermion::<f64>::from_fn(&ctx, |_| rand_fermion(&mut rng));
    let out = LatticeFermion::<f64>::new(&ctx);
    // CG-style axpy with changing alpha: one kernel, many launches
    for k in 0..5 {
        let alpha = 0.1 * (k + 1) as f64;
        out.assign(a.q() + alpha * b.q()).unwrap();
    }
    assert_eq!(ctx.kernels().len(), 1, "expected a single kernel");
    let stats = ctx.kernels().stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 4);
    // and the last result is correct
    let expect = a.get(3).0[1].0[2] + b.get(3).0[1].0[2].scale(0.5);
    let got = out.get(3).0[1].0[2];
    assert!((got - expect).abs() < 1e-15);
}

#[test]
fn aos_layout_produces_identical_results() {
    let geom = Geometry::symmetric(4);
    let ctx_aos = QdpContext::new(DeviceConfig::k20x_ecc_off(), geom, LayoutKind::AoS);
    let mut rng = StdRng::seed_from_u64(14);
    let u = LatticeColorMatrix::<f64>::from_fn(&ctx_aos, |_| rand_cm(&mut rng));
    let psi = LatticeFermion::<f64>::from_fn(&ctx_aos, |_| rand_fermion(&mut rng));
    let jit = LatticeFermion::<f64>::new(&ctx_aos);
    let refr = LatticeFermion::<f64>::new(&ctx_aos);
    jit.assign(u.q() * psi.q()).unwrap();
    refr.assign_reference(u.q() * psi.q()).unwrap();
    assert_fermions_equal(&jit, &refr, "aos");
}

#[test]
fn expm_of_zero_is_identity_and_matches_reference() {
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(15);
    use qdp_core::expm;
    // exp of a small algebra element stays in SU(3)
    let p = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| {
        PScalar(qdp_types::su3::random_algebra::<f64>(&mut rng))
    });
    let jit = LatticeColorMatrix::<f64>::new(&ctx);
    let refr = LatticeColorMatrix::<f64>::new(&ctx);
    jit.assign(expm(0.05 * p.q())).unwrap();
    refr.assign_reference(expm(0.05 * p.q())).unwrap();
    assert_cm_equal(&jit, &refr, "expm");
    for s in [0usize, 33, 200] {
        let m = jit.get(s).0;
        assert!(
            qdp_types::su3::su3_violation(&m) < 1e-14,
            "expm result not SU(3) at site {s}: {}",
            qdp_types::su3::su3_violation(&m)
        );
    }
}

#[test]
fn nested_shift_matches_reference() {
    // shift of shift — next-to-nearest neighbour (§V): local chaining
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(16);
    let phi = LatticeFermion::<f64>::from_fn(&ctx, |_| rand_fermion(&mut rng));
    let jit = LatticeFermion::<f64>::new(&ctx);
    let refr = LatticeFermion::<f64>::new(&ctx);
    let e = || {
        shift(
            shift(phi.q(), 0, ShiftDir::Forward),
            1,
            ShiftDir::Forward,
        )
    };
    jit.assign(e()).unwrap();
    refr.assign_reference(e()).unwrap();
    assert_fermions_equal(&jit, &refr, "nested shift");
    // semantic check: value at x is phi(x + e1 + e0)
    let g = ctx.geometry();
    let x = g.index_of([1, 2, 3, 0]);
    let (x1, _) = g.neighbor(x, 1, qdp_layout::Dir::Forward);
    let (x10, _) = g.neighbor(x1, 0, qdp_layout::Dir::Forward);
    let got = jit.get(x);
    let expect = phi.get(x10);
    assert_eq!(got.0[2].0[1], expect.0[2].0[1]);
}

#[test]
fn illegal_assignment_is_a_type_error_at_runtime_layer() {
    // the typed API prevents this at compile time; the runtime layer also
    // guards the untyped path
    let ctx = ctx4();
    let u = LatticeColorMatrix::<f64>::new(&ctx);
    let psi = LatticeFermion::<f64>::new(&ctx);
    let r = qdp_core::eval::eval(&ctx, psi.fref(), &u.q().0, Subset::All);
    assert!(r.is_err());
}
