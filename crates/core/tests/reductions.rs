//! Reductions are bit-exact: `norm2`, `inner_product` and `sum_*` — immediate
//! and through a `FusionScope` — must equal, bit for bit, a fold written
//! here from scratch: assign the site-local quantity into a persistent
//! field, read it back on the host and add its sites in site order from
//! `+0.0` in `f64`. Covered: both precisions, both layouts, real and
//! complex inputs, subsets All/Even/Odd, and inputs holding −0.0,
//! subnormals, ±inf and NaN.

use qdp_core::prelude::*;
use qdp_core::{real, reduce_inner_product, reduce_norm2, reduce_sum_complex, reduce_sum_real};
use qdp_expr::{BinaryOp, Expr, UnaryOp};
use qdp_rng::{Rng, SeedableRng, StdRng};
use qdp_types::PScalar;
use std::marker::PhantomData;
use std::sync::Arc;

const SUBSETS: [Subset; 3] = [Subset::All, Subset::Even, Subset::Odd];

fn ctx(layout: LayoutKind) -> Arc<QdpContext> {
    QdpContext::builder(Geometry::symmetric(4))
        .layout(layout)
        .build()
}

fn same_bits(what: &str, got: f64, want: f64) {
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{what}: library {got:e} vs site-order fold {want:e}"
    );
}

/// Input values for field `field` at `site`: wide-range normals mixed with
/// ±0.0 and the precision's subnormals, plus ±inf and NaN at a few sites
/// when `nonfinite`.
fn value<R: Real>(rng: &mut StdRng, site: usize, field: usize, nonfinite: bool) -> R {
    let tiny = match R::FLOAT_TYPE {
        FloatType::F32 => f32::from_bits(1) as f64,
        FloatType::F64 => f64::from_bits(1),
    };
    let normal = (rng.random::<f64>() - 0.5) * 10f64.powi((site % 7) as i32 - 3);
    let v = match (site * 5 + field * 3) % 9 {
        0 => -0.0,
        1 => 0.0,
        2 => tiny,
        3 => -7.0 * tiny,
        _ => normal,
    };
    let v = match (nonfinite, field, site) {
        (true, 0, 17) | (true, 1, 130) => f64::INFINITY,
        (true, 1, 61) => f64::NEG_INFINITY,
        (true, 0, 250) => f64::NAN,
        _ => v,
    };
    R::from_f64(v)
}

fn local_norm2<E: SiteElem, R: Real>(q: &QExpr<E>) -> QExpr<SiteReal<R>> {
    QExpr(
        Expr::Unary(UnaryOp::LocalNorm2, Box::new(q.raw().clone())),
        PhantomData,
    )
}

fn local_inner<E: SiteElem, R: Real>(a: &QExpr<E>, b: &QExpr<E>) -> QExpr<SiteComplex<R>> {
    QExpr(
        Expr::Binary(
            BinaryOp::LocalInnerProduct,
            Box::new(a.raw().clone()),
            Box::new(b.raw().clone()),
        ),
        PhantomData,
    )
}

/// The oracle for a real-valued site quantity.
fn fold_real<R: Real>(ctx: &Arc<QdpContext>, q: QExpr<SiteReal<R>>, subset: Subset) -> f64
where
    SiteReal<R>: SiteElem,
{
    let f = LatticeReal::<R>::new(ctx);
    f.assign_on(subset, q).unwrap();
    f.to_vec().iter().fold(0.0, |acc, v| acc + v.0 .0.to_f64())
}

/// The oracle for a complex-valued site quantity: a re and an im fold.
fn fold_complex<R: Real>(
    ctx: &Arc<QdpContext>,
    q: QExpr<SiteComplex<R>>,
    subset: Subset,
) -> (f64, f64)
where
    SiteComplex<R>: SiteElem,
{
    let f = LatticeComplex::<R>::new(ctx);
    f.assign_on(subset, q).unwrap();
    f.to_vec().iter().fold((0.0, 0.0), |(re, im), v| {
        (re + v.0 .0.re.to_f64(), im + v.0 .0.im.to_f64())
    })
}

/// Check every reduction of `a` (and of the pair `a`, `b`) against the fold.
fn check_reductions<E: SiteElem, R: Real>(
    ctx: &Arc<QdpContext>,
    tag: &str,
    a: &Lattice<E>,
    b: &Lattice<E>,
    sum: QExpr<SiteReal<R>>,
) where
    SiteReal<R>: SiteElem,
    SiteComplex<R>: SiteElem,
{
    for subset in SUBSETS {
        let what = format!("{tag} {subset:?}");
        let want = fold_real(ctx, local_norm2::<E, R>(&a.q()), subset);
        same_bits(
            &format!("norm2 {what}"),
            reduce_norm2(ctx, &a.q(), subset).unwrap(),
            want,
        );
        let (re, im) = fold_complex(ctx, local_inner::<E, R>(&a.q(), &b.q()), subset);
        let ip = reduce_inner_product(ctx, &a.q(), &b.q(), subset).unwrap();
        same_bits(&format!("inner_product.re {what}"), ip.re, re);
        same_bits(&format!("inner_product.im {what}"), ip.im, im);
        let want = fold_real(ctx, sum.clone(), subset);
        same_bits(
            &format!("sum_real {what}"),
            reduce_sum_real(ctx, &sum, subset).unwrap(),
            want,
        );
    }

    // Deferred (whole lattice): the temporaries fuse with pending producers
    // and share one batched reduction pass.
    let what = format!("{tag} deferred");
    let mut scope = ctx.deferred();
    let n2 = scope.norm2_batch(&[a, b]).unwrap();
    same_bits(
        &format!("norm2_batch[0] {what}"),
        n2[0],
        fold_real(ctx, local_norm2::<E, R>(&a.q()), Subset::All),
    );
    same_bits(
        &format!("norm2_batch[1] {what}"),
        n2[1],
        fold_real(ctx, local_norm2::<E, R>(&b.q()), Subset::All),
    );
    let ip = scope.inner_product(&a.q(), &b.q()).unwrap();
    let (re, im) = fold_complex(ctx, local_inner::<E, R>(&a.q(), &b.q()), Subset::All);
    same_bits(&format!("inner_product.re {what}"), ip.re, re);
    same_bits(&format!("inner_product.im {what}"), ip.im, im);
    let s = scope.sum_real(&sum).unwrap();
    same_bits(
        &format!("sum_real {what}"),
        s,
        fold_real(ctx, sum.clone(), Subset::All),
    );
    let tmp = Lattice::<E>::new(ctx);
    scope.assign(&tmp, a.q() + b.q()).unwrap();
    let n2 = scope.norm2(&tmp).unwrap();
    same_bits(
        &format!("norm2 after a fused producer {what}"),
        n2,
        fold_real(ctx, local_norm2::<E, R>(&(a.q() + b.q())), Subset::All),
    );
}

fn run_precision<R: Real>(seed: u64)
where
    SiteReal<R>: SiteElem,
    SiteComplex<R>: SiteElem,
{
    for layout in [LayoutKind::SoA, LayoutKind::AoS] {
        let ctx = ctx(layout);
        for nonfinite in [false, true] {
            let mut rng = StdRng::seed_from_u64(seed);
            let tag = format!("{:?} {layout:?} nonfinite={nonfinite}", R::FLOAT_TYPE);
            let mut real_field = |field: usize| {
                LatticeReal::<R>::from_fn(&ctx, |s| {
                    PScalar(PScalar(value(&mut rng, s, field, nonfinite)))
                })
            };
            let (x, y) = (real_field(0), real_field(1));
            check_reductions(&ctx, &format!("real {tag}"), &x, &y, x.q());

            let mut complex_field = |field: usize| {
                LatticeComplex::<R>::from_fn(&ctx, |s| {
                    PScalar(PScalar(Complex::new(
                        value(&mut rng, s, field, nonfinite),
                        value(&mut rng, s + 3, field + 1, nonfinite),
                    )))
                })
            };
            let (z, w) = (complex_field(0), complex_field(1));
            check_reductions(&ctx, &format!("complex {tag}"), &z, &w, real(z.q()));
            for subset in SUBSETS {
                let (re, im) = fold_complex(&ctx, z.q(), subset);
                let s = reduce_sum_complex(&ctx, &z.q(), subset).unwrap();
                same_bits(
                    &format!("sum_complex.re complex {tag} {subset:?}"),
                    s.re,
                    re,
                );
                same_bits(
                    &format!("sum_complex.im complex {tag} {subset:?}"),
                    s.im,
                    im,
                );
            }
        }
    }
}

#[test]
fn reductions_match_a_site_order_fold_bit_for_bit_f64() {
    run_precision::<f64>(11);
}

#[test]
fn reductions_match_a_site_order_fold_bit_for_bit_f32() {
    run_precision::<f32>(12);
}

/// A never-written field is zero-filled on the device at its first touch:
/// an Even-subset kernel into it leaves the Odd sites reading `+0.0` on the
/// host, even when its device range last held another field's data, and
/// the touch moves no bytes host → device.
#[test]
fn subset_kernel_into_a_never_written_target_leaves_other_sites_zero() {
    let ctx = ctx(LayoutKind::SoA);
    ctx.subset_table(Subset::Even);
    let x = LatticeReal::<f64>::from_fn(&ctx, |s| PScalar(PScalar(1.5 + s as f64)));
    let junk_ptr = {
        // Leave non-zero data on the device where the target will land.
        let junk = LatticeReal::<f64>::new(&ctx);
        junk.assign(x.q()).unwrap();
        ctx.cache().assure_on_device(&[junk.id()]).unwrap()[0]
    };
    let h2d = ctx.device().stats().h2d_bytes;
    let touches = ctx.cache().stats().first_touches;
    let target = LatticeReal::<f64>::new(&ctx);
    target.assign_on(Subset::Even, x.q()).unwrap();
    assert_eq!(
        ctx.device().stats().h2d_bytes,
        h2d,
        "x was resident, target never written"
    );
    assert_eq!(ctx.cache().stats().first_touches, touches + 1);
    assert_eq!(
        ctx.cache().assure_on_device(&[target.id()]).unwrap()[0],
        junk_ptr,
        "the target reuses the dirtied range"
    );

    let geom = ctx.geometry();
    for s in 0..geom.vol() {
        let got = target.get(s).0 .0;
        if Subset::Even.contains(geom, s) {
            assert_eq!(got, 1.5 + s as f64, "even site {s}");
        } else {
            assert_eq!(got.to_bits(), 0, "odd site {s} must read +0.0");
        }
    }
}
