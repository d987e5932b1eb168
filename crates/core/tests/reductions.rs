//! Reductions are bit-exact: `norm2`, `inner_product` and `sum_*` — immediate
//! and through a `FusionScope` — must equal, bit for bit, a fold written
//! here from scratch: assign the site-local quantity into a persistent
//! field, read it back on the host in thread order (site order for the
//! whole lattice, increasing site order for a checkerboard), then, as the
//! kernel and the second phase do, sum each run of 32 values as a warp
//! butterfly in `f64` — lane `l` adds lane `l ^ m` for `m` = 1, 2, 4, 8, 16,
//! lanes past the last value holding `+0.0` — and add those warp sums in
//! pairs, level by level, an odd last one moving up as it is. Covered: both
//! precisions, both layouts, real and complex inputs, subsets All/Even/Odd
//! on a 4⁴ lattice (whole warps), a 3⁴ one (81, 41 and 40 threads: a
//! partial last warp) and an 8³×9 one (more than 32 partials), and inputs
//! holding −0.0, subnormals, ±inf and NaN.
//! Further tests pin the order against the orders it is not, bound its
//! rounding error, and check that reduction scratch never reads junk.

use qdp_core::prelude::*;
use qdp_core::{real, reduce_inner_product, reduce_norm2, reduce_sum_complex, reduce_sum_real};
use qdp_expr::{BinaryOp, Expr, UnaryOp};
use qdp_rng::{Rng, SeedableRng, StdRng};
use qdp_types::PScalar;
use std::marker::PhantomData;
use std::sync::Arc;

const SUBSETS: [Subset; 3] = [Subset::All, Subset::Even, Subset::Odd];

const SOA_AOS: [LayoutKind; 2] = [LayoutKind::SoA, LayoutKind::AoS];

/// The oracle's lattices: 4⁴ (8 and 4 whole warps), 3⁴ (81, 41 and 40
/// threads: a partial last warp) and 8³×9 (144 and 72 partials: blocks of
/// 32 partials and a shorter tail in the second phase).
const LATTICES: [[usize; 4]; 3] = [[4; 4], [3; 4], [8, 8, 8, 9]];

/// The butterfly's lane masks, in order.
const MASKS: [usize; 5] = [1, 2, 4, 8, 16];

fn ctx_on(geom: Geometry, layout: LayoutKind) -> Arc<QdpContext> {
    QdpContext::builder(geom).layout(layout).build()
}

fn ctx(layout: LayoutKind) -> Arc<QdpContext> {
    ctx_on(Geometry::symmetric(4), layout)
}

fn same_bits(what: &str, got: f64, want: f64) {
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{what}: library {got:e} vs warp-order fold {want:e}"
    );
}

/// The sum of each warp of 32 values, the last warp padded with `+0.0`:
/// after the butterfly every lane holds the same bits (IEEE addition
/// commutes), so lane 0 speaks for the warp.
fn warp_sums(values: &[f64]) -> Vec<f64> {
    values
        .chunks(32)
        .map(|warp| {
            let mut lane = [0.0f64; 32];
            lane[..warp.len()].copy_from_slice(warp);
            for m in MASKS {
                lane = std::array::from_fn(|l| lane[l] + lane[l ^ m]);
            }
            lane[0]
        })
        .collect()
}

/// The warp-order fold of per-thread values given in thread order. Which
/// NaN an add of two NaNs returns is up to the compiled code, so a NaN sum
/// is the canonical quiet NaN here as in the library.
fn warp_fold(values: impl Iterator<Item = f64>) -> f64 {
    let mut level = warp_sums(&values.collect::<Vec<_>>());
    while level.len() > 1 {
        level = level.chunks(2).map(|p| p.iter().sum()).collect();
    }
    let sum = level.first().copied().unwrap_or(0.0);
    if sum.is_nan() {
        f64::NAN
    } else {
        sum
    }
}

/// The sites of `subset` in thread order.
fn threads(ctx: &QdpContext, subset: Subset) -> Vec<usize> {
    subset
        .sites(ctx.geometry())
        .into_iter()
        .map(|s| s as usize)
        .collect()
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
    let v = f.to_vec();
    warp_fold(threads(ctx, subset).iter().map(|&s| v[s].0 .0.to_f64()))
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
    let sites = threads(ctx, subset);
    (
        warp_fold(sites.iter().map(|&s| v[s].0 .0.re.to_f64())),
        warp_fold(sites.iter().map(|&s| v[s].0 .0.im.to_f64())),
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
    for (dims, layout) in LATTICES.into_iter().flat_map(|d| SOA_AOS.map(|l| (d, l))) {
        let ctx = ctx_on(Geometry::new(dims), layout);
        for nonfinite in [false, true] {
            let mut rng = StdRng::seed_from_u64(seed);
            let tag = format!(
                "{:?} {dims:?} {layout:?} nonfinite={nonfinite}",
                R::FLOAT_TYPE
            );
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
fn reductions_match_a_warp_order_fold_bit_for_bit_f64() {
    run_precision::<f64>(11);
}

#[test]
fn reductions_match_a_warp_order_fold_bit_for_bit_f32() {
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

/// The order is pinned, not just self-consistent. On the first field
/// (1 at site 0, half an ulp of 1 at sites 8 and 9) the serial site-order
/// chain, the eight-partial lane order it replaced and a `shfl.down` tree
/// all round `1 + 2⁻⁵²` back to `1`: each adds a half ulp to `1` on its
/// own. The butterfly adds sites 8 and 9 first and keeps it. On the second
/// (1 in warp 0, half an ulp in warps 2 and 3) adding the warp sums left to
/// right loses it too, while the pairwise level keeps it. The library
/// returns the warp-order bits, immediate and deferred.
#[test]
fn the_library_sums_in_warp_order() {
    let ctx = ctx(LayoutKind::SoA);
    let half_ulp = f64::EPSILON / 2.0;
    let vol = ctx.geometry().vol();
    let serial = |v: &[f64]| v.iter().fold(0.0f64, |acc, &x| acc + x);
    let lane_order = |v: &[f64]| {
        let mut p = [0.0f64; 8];
        for (s, &x) in v.iter().enumerate() {
            p[s % 8] += x;
        }
        ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
    };
    let shfl_down = |v: &[f64]| {
        let warps = v.chunks(32).map(|w| {
            let mut lane = [0.0f64; 32];
            lane.copy_from_slice(w);
            for m in [16, 8, 4, 2, 1] {
                lane = std::array::from_fn(|l| lane[l] + lane.get(l + m).copied().unwrap_or(0.0));
            }
            lane[0]
        });
        warps.fold(0.0f64, |acc, x| acc + x)
    };
    let left_to_right = |v: &[f64]| serial(&warp_sums(v));
    // Each field: 1 at one site, half an ulp at two others.
    let fields = [("inside a warp", 0, [8, 9]), ("across warps", 0, [64, 96])];
    for (what, one, half) in fields {
        let value = |s: usize| {
            if s == one {
                1.0
            } else if half.contains(&s) {
                half_ulp
            } else {
                0.0
            }
        };
        let values: Vec<f64> = (0..vol).map(value).collect();
        let want = warp_fold(values.iter().copied());
        assert_eq!(want, 1.0 + f64::EPSILON, "{what}");
        let others = match what {
            "inside a warp" => vec![
                ("serial", serial(&values)),
                ("lane order", lane_order(&values)),
                ("shfl.down tree", shfl_down(&values)),
            ],
            _ => vec![("warp sums left to right", left_to_right(&values))],
        };
        for (name, other) in others {
            assert_eq!(other, 1.0, "{what}: {name}");
        }
        let x = LatticeReal::<f64>::from_fn(&ctx, |s| PScalar(PScalar(value(s))));
        let got = reduce_sum_real(&ctx, &x.q(), Subset::All).unwrap();
        same_bits(&format!("sum_real {what}"), got, want);
        let mut scope = ctx.deferred();
        same_bits(
            &format!("deferred sum_real {what}"),
            scope.sum_real(&x.q()).unwrap(),
            want,
        );
    }
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

/// Each warp-order sum of `n` values is a pairwise tree of depth
/// 5 + ⌈log₂⌈n/32⌉⌉, so on an 8⁴ lattice of wide-range values `norm2` and
/// `sum` — over the lattice and over a checkerboard — sit within
/// (5 + ⌈log₂⌈n/32⌉⌉)·2⁻⁵³·Σ|x| of a compensated reference.
#[test]
fn warp_order_error_is_within_its_rounding_bound() {
    let ctx = QdpContext::builder(Geometry::symmetric(8)).build();
    let mut rng = StdRng::seed_from_u64(40);
    let x = LatticeReal::<f64>::from_fn(&ctx, |s| {
        let scale = 10f64.powi((s % 13) as i32 - 6);
        PScalar(PScalar((rng.random::<f64>() - 0.5) * scale))
    });
    let squares = LatticeReal::<f64>::new(&ctx);
    squares
        .assign(local_norm2::<SiteReal<f64>, f64>(&x.q()))
        .unwrap();
    let (x_v, sq_v) = (x.to_vec(), squares.to_vec());
    for subset in [Subset::All, Subset::Odd] {
        let sites = threads(&ctx, subset);
        let n = sites.len();
        let depth = 5.0 + (n.div_ceil(32) as f64).log2().ceil();
        let bound = |abs_sum: f64| depth * f64::EPSILON / 2.0 * abs_sum;
        for (what, got, values) in [
            ("sum", reduce_sum_real(&ctx, &x.q(), subset), &x_v),
            ("norm2", reduce_norm2(&ctx, &x.q(), subset), &sq_v),
        ] {
            let values: Vec<f64> = sites.iter().map(|&s| values[s].0 .0).collect();
            let (got, want) = (got.unwrap(), compensated_sum(&values));
            let abs_sum: f64 = values.iter().map(|v| v.abs()).sum();
            assert!(
                (got - want).abs() <= bound(abs_sum),
                "{what} {subset:?}: {got:e} vs {want:e}, bound {:e}",
                bound(abs_sum)
            );
        }
    }
}

/// Leave `bytes` of NaNs on the device and return the range they held,
/// which the next allocation of that size lands on.
fn leave_nan_junk(ctx: &Arc<QdpContext>, bytes: usize) -> u64 {
    let id = ctx.cache().register(bytes);
    ctx.cache()
        .with_host_mut(id, |b| {
            b.chunks_exact_mut(8)
                .for_each(|c| c.copy_from_slice(&f64::NAN.to_le_bytes()))
        })
        .unwrap();
    let ptr = ctx.cache().assure_on_device(&[id]).unwrap()[0];
    ctx.cache().unregister(id);
    ptr
}

/// Reduction scratch skips its zero fill, over the lattice and over each
/// checkerboard: on a device range that held NaNs the sum still equals the
/// oracle, because the kernel writes every partial the second phase reads
/// — the range then holds the warp sums. Each partial buffer is a first
/// touch.
#[test]
fn reduction_scratch_on_a_junk_range_reads_no_junk() {
    let ctx = ctx(LayoutKind::SoA);
    let x = LatticeReal::<f64>::from_fn(&ctx, |s| PScalar(PScalar(0.25 + s as f64)));
    ctx.cache().assure_on_device(&[x.id()]).unwrap();
    for subset in SUBSETS {
        ctx.subset_table(subset).unwrap();
        let squares: Vec<f64> = (threads(&ctx, subset).iter())
            .map(|&s| (0.25 + s as f64) * (0.25 + s as f64))
            .collect();
        let want = warp_fold(squares.iter().copied());
        let partials = warp_sums(&squares);
        let junk = leave_nan_junk(&ctx, partials.len() * 8);
        let touches = ctx.cache().stats().first_touches;
        let got = reduce_norm2(&ctx, &x.q(), subset).unwrap();
        assert_eq!(ctx.cache().stats().first_touches, touches + 1, "{subset:?}");
        let left = ctx
            .device()
            .memory()
            .with_f64s(junk, partials.len(), |v| v.to_vec());
        assert_eq!(
            left, partials,
            "{subset:?}: the partials landed on the junk range, and the kernel wrote each"
        );
        same_bits(&format!("norm2 {subset:?} over junk"), got, want);
    }
}

/// The sums, the simulated clock after them and the allreduces counted,
/// of `norm2`, `inner_product` and a three-field `norm2_batch` — immediate
/// and through a deferred scope — on a fresh context with telemetry on.
fn payload_reductions(ctx: &Arc<QdpContext>, rank: usize) -> (Vec<f64>, f64, u64) {
    let field = |k: f64| {
        LatticeComplex::<f64>::from_fn(ctx, |s| {
            let s = (s + 100 * rank) as f64;
            PScalar(PScalar(Complex::new(0.5 + k * s, 1.0 - s / 7.0)))
        })
    };
    let (a, b, c) = (field(0.25), field(-1.5), field(3.0));
    let t0 = ctx.device().now();
    let ip = reduce_inner_product(ctx, &a.q(), &b.q(), Subset::All).unwrap();
    let mut sums = vec![a.norm2().unwrap(), ip.re, ip.im];
    let mut scope = ctx.deferred();
    sums.push(scope.norm2(&c).unwrap());
    sums.extend(scope.norm2_batch(&[&a, &b, &c]).unwrap());
    let ip = scope.inner_product(&a.q(), &c.q()).unwrap();
    sums.extend([ip.re, ip.im]);
    drop(scope);
    ctx.device().sync();
    let allreduces = ctx.profile_report().counter("comm.allreduces");
    (sums, ctx.device().now() - t0, allreduces)
}

fn profiled(geom: Geometry, payload: bool) -> Arc<QdpContext> {
    let tel = Arc::new(qdp_telemetry::Telemetry::new());
    tel.enable();
    let ctx = QdpContext::builder(geom).telemetry(tel).build();
    ctx.set_payload_execution(payload);
    ctx
}

/// With payload execution off no kernel writes a partial, so none is read:
/// every sum is `+0.0`, while the simulated clock advances exactly as with
/// payload on — the second pass is still accounted.
#[test]
fn payload_off_reductions_are_zero_on_the_same_clock() {
    let (on, clock_on, _) = payload_reductions(&profiled(Geometry::symmetric(4), true), 0);
    let (off, clock_off, _) = payload_reductions(&profiled(Geometry::symmetric(4), false), 0);
    assert!(on.iter().all(|s| *s != 0.0), "{on:?}");
    assert!(off.iter().all(|s| s.to_bits() == 0), "{off:?}");
    assert_eq!(off.len(), on.len());
    assert_eq!(clock_off.to_bits(), clock_on.to_bits());
}

/// On a `[2,1,1,1]` rank grid a payload-off batch still allreduces once,
/// as with payload on, and every rank returns `+0.0`.
#[test]
fn payload_off_reductions_allreduce_once_per_batch() {
    let global = [8usize, 4, 4, 4];
    let runs = qdp_comm::run_cluster(2, qdp_comm::LinkModel::infiniband_qdr(), move |handle| {
        let decomp = qdp_layout::Decomposition::new(global, [2, 1, 1, 1]);
        let rank = handle.rank;
        let (on, off) = (true, false);
        let ctx = profiled(decomp.local_geometry(), on);
        let _rank = qdp_core::multinode::MultiRank::new(
            Arc::clone(&ctx),
            decomp.clone(),
            handle,
            true,
            true,
        );
        let with = payload_reductions(&ctx, rank);
        ctx.set_payload_execution(off);
        let before = ctx.profile_report().counter("comm.allreduces");
        let (sums, clock, count) = payload_reductions(&ctx, rank);
        (with, (sums, clock, count - before))
    });
    for ((on, clock_on, count_on), (off, clock_off, count_off)) in runs {
        assert_eq!(
            count_on, 5,
            "one allreduce per batch: norm2, ⟨a,b⟩, three scope flushes"
        );
        assert_eq!(count_off, count_on);
        assert!(on.iter().all(|s| *s != 0.0), "{on:?}");
        assert!(off.iter().all(|s| s.to_bits() == 0), "{off:?}");
        assert!(clock_off > 0.0 && clock_on > 0.0);
    }
}
