//! Reductions are bit-exact: `norm2`, `inner_product` and `sum_*` — immediate
//! and through a `FusionScope` — must equal, bit for bit, a fold written
//! here from scratch: assign the site-local quantity into a persistent
//! field, read it back on the host and add its sites in lane order — site
//! `s` into partial `s mod 8`, each partial from `+0.0` in `f64`, the
//! partials combined as `((p0+p1)+(p2+p3))+((p4+p5)+(p6+p7))`. Covered:
//! both precisions, both layouts, real and complex inputs, subsets
//! All/Even/Odd, and inputs holding −0.0, subnormals, ±inf and NaN. Further
//! tests pin the order against the serial fold it replaced, bound its
//! rounding error, and check that reduction scratch never reads junk.

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
        "{what}: library {got:e} vs lane-order fold {want:e}"
    );
}

/// The lane-order fold of per-site values given in site order. Which NaN
/// an add of two NaNs returns is up to the compiled code, so a NaN sum is
/// the canonical quiet NaN here as in the library.
fn lane_fold(sites: impl Iterator<Item = f64>) -> f64 {
    let mut p = [0.0f64; 8];
    for (s, x) in sites.enumerate() {
        p[s % 8] += x;
    }
    let sum = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
    if sum.is_nan() {
        f64::NAN
    } else {
        sum
    }
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
    lane_fold(f.to_vec().iter().map(|v| v.0 .0.to_f64()))
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
    let v = f.to_vec();
    (
        lane_fold(v.iter().map(|z| z.0 .0.re.to_f64())),
        lane_fold(v.iter().map(|z| z.0 .0.im.to_f64())),
    )
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
fn reductions_match_a_lane_order_fold_bit_for_bit_f64() {
    run_precision::<f64>(11);
}

#[test]
fn reductions_match_a_lane_order_fold_bit_for_bit_f32() {
    run_precision::<f32>(12);
}

/// A never-written field is zero-filled on the device at its first touch:
/// an Even-subset kernel into it leaves the Odd sites reading `+0.0` on the
/// host, even when its device range last held another field's data, and
/// the touch moves no bytes host → device.
#[test]
fn subset_kernel_into_a_never_written_target_leaves_other_sites_zero() {
    let ctx = ctx(LayoutKind::SoA);
    ctx.subset_table(Subset::Even).unwrap();
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

/// The order is pinned, not just self-consistent: on this hand-built
/// temporary the serial site-order chain, a four-partial tree and eight
/// partials combined left to right all round `1 + 2⁻⁵²` back to `1`,
/// while lane order keeps it (sites 4 and 5 meet in `p4 + p5` before
/// they meet the `1` at site 0). The library returns the lane-order bits.
#[test]
fn the_library_sums_in_lane_order_not_site_order() {
    let ctx = ctx(LayoutKind::SoA);
    let half_ulp = f64::EPSILON / 2.0;
    let site_value = |s: usize| match s {
        0 => 1.0,
        4 | 5 => half_ulp,
        _ => 0.0,
    };
    let x = LatticeReal::<f64>::from_fn(&ctx, |s| PScalar(PScalar(site_value(s))));
    let vol = ctx.geometry().vol();
    let values: Vec<f64> = (0..vol).map(site_value).collect();

    let serial = values.iter().fold(0.0f64, |acc, &v| acc + v);
    let mut p4 = [0.0f64; 4];
    let mut p8 = [0.0f64; 8];
    for (s, &v) in values.iter().enumerate() {
        p4[s % 4] += v;
        p8[s % 8] += v;
    }
    let four_tree = (p4[0] + p4[1]) + (p4[2] + p4[3]);
    let eight_left = p8.iter().fold(0.0f64, |acc, &v| acc + v);
    let lane = lane_fold(values.iter().copied());
    assert_eq!(lane, 1.0 + f64::EPSILON);
    for (name, other) in [
        ("serial", serial),
        ("four-partial tree", four_tree),
        ("left-to-right partials", eight_left),
    ] {
        assert_eq!(other, 1.0, "{name}");
    }

    let got = reduce_sum_real(&ctx, &x.q(), Subset::All).unwrap();
    same_bits("sum_real of the pinning field", got, lane);
    let mut scope = ctx.deferred();
    same_bits(
        "deferred sum_real of the pinning field",
        scope.sum_real(&x.q()).unwrap(),
        lane,
    );
}

/// Neumaier-compensated sum: the accurate reference for the error bound.
fn compensated_sum(values: &[f64]) -> f64 {
    let (mut sum, mut c) = (0.0f64, 0.0f64);
    for &x in values {
        let t = sum + x;
        c += if sum.abs() >= x.abs() {
            (sum - t) + x
        } else {
            (x - t) + sum
        };
        sum = t;
    }
    sum + c
}

/// Each lane-order sum of `n` values takes at most ⌈n/8⌉+3 roundings, so
/// on an 8⁴ lattice of wide-range values `norm2` and `sum` sit within
/// (⌈n/8⌉+3)·2⁻⁵³·Σ|x| of a compensated reference.
#[test]
fn lane_order_error_is_within_its_rounding_bound() {
    let ctx = QdpContext::builder(Geometry::symmetric(8)).build();
    let mut rng = StdRng::seed_from_u64(40);
    let x = LatticeReal::<f64>::from_fn(&ctx, |s| {
        let scale = 10f64.powi((s % 13) as i32 - 6);
        PScalar(PScalar((rng.random::<f64>() - 0.5) * scale))
    });
    let n = ctx.geometry().vol();
    let bound = |abs_sum: f64| (n.div_ceil(8) + 3) as f64 * f64::EPSILON / 2.0 * abs_sum;

    let sites: Vec<f64> = x.to_vec().iter().map(|v| v.0 .0).collect();
    let got = reduce_sum_real(&ctx, &x.q(), Subset::All).unwrap();
    let want = compensated_sum(&sites);
    let abs_sum: f64 = sites.iter().map(|v| v.abs()).sum();
    assert!(
        (got - want).abs() <= bound(abs_sum),
        "sum: {got:e} vs {want:e}, bound {:e}",
        bound(abs_sum)
    );

    let squares = LatticeReal::<f64>::new(&ctx);
    squares
        .assign(local_norm2::<SiteReal<f64>, f64>(&x.q()))
        .unwrap();
    let squares: Vec<f64> = squares.to_vec().iter().map(|v| v.0 .0).collect();
    let got = reduce_norm2(&ctx, &x.q(), Subset::All).unwrap();
    let want = compensated_sum(&squares);
    let abs_sum: f64 = squares.iter().sum();
    assert!(
        (got - want).abs() <= bound(abs_sum),
        "norm2: {got:e} vs {want:e}, bound {:e}",
        bound(abs_sum)
    );
}

/// Leave a NaN-filled `f64` real field's worth of junk on the device and
/// return the range it held, which the next field of that size lands on.
fn leave_nan_junk(ctx: &Arc<QdpContext>) -> u64 {
    let junk = LatticeReal::<f64>::from_fn(ctx, |_| PScalar(PScalar(f64::NAN)));
    ctx.cache().assure_on_device(&[junk.id()]).unwrap()[0]
}

/// Full-lattice reduction scratch skips its zero fill: on a device range
/// that held NaNs the sum still equals the oracle, because the kernel
/// overwrites every site (the range then holds the per-site values). A
/// subset reduction keeps the fill: an Even-subset sum over the same junk
/// still reads `+0.0` at the Odd sites. Both temporaries are first touches.
#[test]
fn reduction_scratch_on_a_junk_range_reads_no_junk() {
    let ctx = ctx(LayoutKind::SoA);
    ctx.subset_table(Subset::Even).unwrap();
    let x = LatticeReal::<f64>::from_fn(&ctx, |s| PScalar(PScalar(0.25 + s as f64)));
    ctx.cache().assure_on_device(&[x.id()]).unwrap();
    let vol = ctx.geometry().vol();
    let read_range = |ptr: u64| ctx.device().memory().with_f64s(ptr, vol, |v| v.to_vec());

    let want = fold_real(&ctx, local_norm2::<SiteReal<f64>, f64>(&x.q()), Subset::All);
    let junk = leave_nan_junk(&ctx);
    let touches = ctx.cache().stats().first_touches;
    let got = reduce_norm2(&ctx, &x.q(), Subset::All).unwrap();
    assert_eq!(ctx.cache().stats().first_touches, touches + 1);
    let left: Vec<f64> = read_range(junk);
    assert!(
        left.iter()
            .enumerate()
            .all(|(s, &v)| v == (0.25 + s as f64) * (0.25 + s as f64)),
        "the temporary landed on the junk range and its kernel wrote every site"
    );
    same_bits("norm2 All over junk", got, want);

    let want = fold_real(
        &ctx,
        local_norm2::<SiteReal<f64>, f64>(&x.q()),
        Subset::Even,
    );
    let junk = leave_nan_junk(&ctx);
    let touches = ctx.cache().stats().first_touches;
    let got = reduce_norm2(&ctx, &x.q(), Subset::Even).unwrap();
    assert_eq!(ctx.cache().stats().first_touches, touches + 1);
    let geom = ctx.geometry();
    let left = read_range(junk);
    for (s, &v) in left.iter().enumerate() {
        if !Subset::Even.contains(geom, s) {
            assert_eq!(
                v.to_bits(),
                0,
                "odd site {s} of the Even temporary reads +0.0"
            );
        }
    }
    same_bits("norm2 Even over junk", got, want);
}
