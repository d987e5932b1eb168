//! Fusion planner guarantees: the deferred API must (a) cut the launch
//! count of a CG-shaped workload by a third or more, (b) at a group budget
//! of 1 (fusion off) reproduce the per-expression launch signature and
//! bit-identical results, and (c) split — never fuse — on every legality
//! hazard, with `fuse.bailouts` incremented and results unchanged.

use qdp_core::prelude::*;
use qdp_core::{adj, reduce_inner_product, shift};
use qdp_rng::{SeedableRng, StdRng};
use qdp_telemetry::Telemetry;
use qdp_types::su3::random_su3;
use qdp_types::{ColorMatrix, Fermion, PScalar, PVector};
use std::sync::Arc;

fn profiled_ctx(l: usize, fuse: bool) -> Arc<QdpContext> {
    let tel = Arc::new(Telemetry::new());
    tel.enable();
    QdpContext::builder(Geometry::symmetric(l))
        .fuse(fuse)
        .telemetry(tel)
        .build()
}

fn rand_cm(rng: &mut StdRng) -> ColorMatrix<f64> {
    PScalar(random_su3::<f64>(rng))
}

fn rand_fermion(rng: &mut StdRng) -> Fermion<f64> {
    PVector::from_fn(|_| PVector::from_fn(|_| qdp_types::su3::gaussian_complex::<f64>(rng)))
}

fn field_bytes(ctx: &QdpContext, id: u64) -> Vec<u8> {
    ctx.cache().with_host(id, |h| h.to_vec()).unwrap()
}

fn total_launches(ctx: &QdpContext) -> u64 {
    ctx.profile_report().kernels.iter().map(|k| k.launches).sum()
}

/// `(name, launches)` per kernel, sorted — the launch "sequence signature".
fn launch_signature(ctx: &QdpContext) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = ctx
        .profile_report()
        .kernels
        .iter()
        .map(|k| (k.name.clone(), k.launches))
        .collect();
    v.sort();
    v
}

/// The gauge-covariant Laplacian `(m+8)·ψ − Σ_µ [U_µ·ψ(x+µ) + U_µ†(x−µ)·ψ(x−µ)]`
/// — Hermitian positive definite, so plain CG applies.
fn laplace(
    u: &Multi1d<LatticeColorMatrix<f64>>,
    psi: &LatticeFermion<f64>,
    m: f64,
) -> QExpr<Fermion<f64>> {
    let mut hop = u[0].q() * shift(psi.q(), 0, ShiftDir::Forward)
        + adj(shift(u[0].q(), 0, ShiftDir::Backward)) * shift(psi.q(), 0, ShiftDir::Backward);
    for mu in 1..4 {
        hop = hop
            + u[mu].q() * shift(psi.q(), mu, ShiftDir::Forward)
            + adj(shift(u[mu].q(), mu, ShiftDir::Backward)) * shift(psi.q(), mu, ShiftDir::Backward);
    }
    (m + 8.0) * psi.q() - hop
}

struct CgFields {
    u: Multi1d<LatticeColorMatrix<f64>>,
    b: LatticeFermion<f64>,
    x: LatticeFermion<f64>,
    r: LatticeFermion<f64>,
    p: LatticeFermion<f64>,
    ap: LatticeFermion<f64>,
}

fn cg_fields(ctx: &Arc<QdpContext>, seed: u64) -> CgFields {
    let mut rng = StdRng::seed_from_u64(seed);
    let u = Multi1d::from_fn(4, |_| {
        LatticeColorMatrix::<f64>::from_fn(ctx, |_| rand_cm(&mut rng))
    });
    let b = LatticeFermion::<f64>::from_fn(ctx, |_| rand_fermion(&mut rng));
    CgFields {
        u,
        b,
        x: LatticeFermion::new(ctx),
        r: LatticeFermion::new(ctx),
        p: LatticeFermion::new(ctx),
        ap: LatticeFermion::new(ctx),
    }
}

const MASS: f64 = 0.5;

/// CG through the deferred API (`x₀ = 0`). Returns the final `‖r‖²`.
fn cg_deferred(ctx: &Arc<QdpContext>, f: &CgFields, iters: usize) -> f64 {
    let mut scope = ctx.deferred();
    scope.assign(&f.r, f.b.q()).unwrap();
    scope.assign(&f.p, f.b.q()).unwrap();
    let mut r2 = scope.norm2(&f.r).unwrap();
    for _ in 0..iters {
        scope.assign(&f.ap, laplace(&f.u, &f.p, MASS)).unwrap();
        let pap = scope.inner_product(&f.p.q(), &f.ap.q()).unwrap().re;
        let alpha = r2 / pap;
        scope.assign(&f.x, f.x.q() + alpha * f.p.q()).unwrap();
        scope.assign(&f.r, f.r.q() - alpha * f.ap.q()).unwrap();
        let r2n = scope.norm2(&f.r).unwrap();
        let beta = r2n / r2;
        r2 = r2n;
        scope.assign(&f.p, f.r.q() + beta * f.p.q()).unwrap();
    }
    scope.flush().unwrap();
    r2
}

/// The same CG issued per expression — the pre-fusion launch sequence.
fn cg_immediate(ctx: &Arc<QdpContext>, f: &CgFields, iters: usize) -> f64 {
    f.r.assign(f.b.q()).unwrap();
    f.p.assign(f.b.q()).unwrap();
    let mut r2 = f.r.norm2().unwrap();
    for _ in 0..iters {
        f.ap.assign(laplace(&f.u, &f.p, MASS)).unwrap();
        let pap = reduce_inner_product(ctx, &f.p.q(), &f.ap.q(), Subset::All)
            .unwrap()
            .re;
        let alpha = r2 / pap;
        f.x.assign(f.x.q() + alpha * f.p.q()).unwrap();
        f.r.assign(f.r.q() - alpha * f.ap.q()).unwrap();
        let r2n = f.r.norm2().unwrap();
        let beta = r2n / r2;
        r2 = r2n;
        f.p.assign(f.r.q() + beta * f.p.q()).unwrap();
    }
    r2
}

/// The launch-count guard: 10 CG iterations on 8⁴ must issue ≥ 30% fewer
/// kernel launches fused than per-expression, with 0-ULP identical results.
#[test]
fn fused_cg_saves_thirty_percent_of_launches_bit_exactly() {
    let fused_ctx = profiled_ctx(8, true);
    let ff = cg_fields(&fused_ctx, 0xC6);
    let fused_r2 = cg_deferred(&fused_ctx, &ff, 10);

    let base_ctx = profiled_ctx(8, true);
    let bf = cg_fields(&base_ctx, 0xC6);
    let base_r2 = cg_immediate(&base_ctx, &bf, 10);

    let fused_launches = total_launches(&fused_ctx);
    let base_launches = total_launches(&base_ctx);
    assert!(
        (fused_launches as f64) <= 0.70 * base_launches as f64,
        "fused CG must save >= 30% of launches: fused {fused_launches}, \
         per-expression {base_launches}"
    );

    // Bit-exact: the solution, the residual field and the scalar recurrence.
    assert_eq!(fused_r2.to_bits(), base_r2.to_bits(), "final ‖r‖²");
    assert_eq!(
        field_bytes(&fused_ctx, ff.x.id()),
        field_bytes(&base_ctx, bf.x.id()),
        "solution field x"
    );
    assert_eq!(
        field_bytes(&fused_ctx, ff.r.id()),
        field_bytes(&base_ctx, bf.r.id()),
        "residual field r"
    );

    // The planner's work is visible in telemetry, and the fused kernels
    // show up as first-class rows (profile + roofline feed off the same
    // per-kernel records).
    let rep = fused_ctx.profile_report();
    assert!(rep.counter("fuse.groups") >= 10, "fused groups formed");
    assert_eq!(
        rep.counter("fuse.launches_saved"),
        base_launches - fused_launches,
        "launches_saved must equal the observed launch difference"
    );
    assert!(
        rep.kernels.iter().any(|k| k.name.starts_with("qdpf_")),
        "fused kernels must appear in the per-kernel report"
    );
}

/// `QDP_FUSE=0` (here: `builder().fuse(false)`, a group budget of 1) must
/// reproduce the per-expression launch signature — same kernels, same
/// launch counts, same bits — with no group and no bailout counted.
#[test]
fn fuse_disabled_reproduces_per_expression_launch_sequence() {
    let off_ctx = profiled_ctx(4, false);
    let of = cg_fields(&off_ctx, 0xD7);
    let off_r2 = cg_deferred(&off_ctx, &of, 4);

    let base_ctx = profiled_ctx(4, true);
    let bf = cg_fields(&base_ctx, 0xD7);
    let base_r2 = cg_immediate(&base_ctx, &bf, 4);

    assert_eq!(
        launch_signature(&off_ctx),
        launch_signature(&base_ctx),
        "disabled fusion must issue the identical launch sequence"
    );
    assert_eq!(off_r2.to_bits(), base_r2.to_bits());
    assert_eq!(
        field_bytes(&off_ctx, of.x.id()),
        field_bytes(&base_ctx, bf.x.id())
    );
    assert_eq!(off_ctx.profile_report().counter("fuse.groups"), 0);
    assert_eq!(off_ctx.profile_report().counter("fuse.bailouts"), 0);
}

// ---------------------------------------------------------------------------
// Bailout tests: one per legality rule. Each proves the planner splits the
// group (fuse.bailouts incremented, no fused kernel formed across the
// hazard) and that results equal the per-expression path bit-for-bit.
// ---------------------------------------------------------------------------

struct Pair {
    u: LatticeColorMatrix<f64>,
    v: LatticeColorMatrix<f64>,
    a: LatticeColorMatrix<f64>,
    c: LatticeColorMatrix<f64>,
}

fn pair(ctx: &Arc<QdpContext>, seed: u64) -> Pair {
    let mut rng = StdRng::seed_from_u64(seed);
    Pair {
        u: LatticeColorMatrix::from_fn(ctx, |_| rand_cm(&mut rng)),
        v: LatticeColorMatrix::from_fn(ctx, |_| rand_cm(&mut rng)),
        a: LatticeColorMatrix::new(ctx),
        c: LatticeColorMatrix::new(ctx),
    }
}

#[test]
fn bailout_aliased_target() {
    let ctx = profiled_ctx(4, true);
    let f = pair(&ctx, 1);
    let mut scope = ctx.deferred();
    scope.assign(&f.a, f.u.q() * f.v.q()).unwrap();
    scope.assign(&f.a, f.a.q() * f.v.q()).unwrap();
    scope.flush().unwrap();
    assert_eq!(ctx.profile_report().counter("fuse.bailouts"), 1);
    assert_eq!(ctx.profile_report().counter("fuse.groups"), 0);

    let ref_ctx = profiled_ctx(4, true);
    let g = pair(&ref_ctx, 1);
    g.a.assign(g.u.q() * g.v.q()).unwrap();
    g.a.assign(g.a.q() * g.v.q()).unwrap();
    assert_eq!(
        field_bytes(&ctx, f.a.id()),
        field_bytes(&ref_ctx, g.a.id())
    );
}

#[test]
fn bailout_subset_mismatch() {
    let ctx = profiled_ctx(4, true);
    let f = pair(&ctx, 2);
    let mut scope = ctx.deferred();
    scope.assign_on(Subset::Even, &f.a, f.u.q() * f.v.q()).unwrap();
    scope.assign_on(Subset::Odd, &f.c, f.u.q() * f.v.q()).unwrap();
    scope.flush().unwrap();
    assert_eq!(ctx.profile_report().counter("fuse.bailouts"), 1);
    assert_eq!(ctx.profile_report().counter("fuse.groups"), 0);

    let ref_ctx = profiled_ctx(4, true);
    let g = pair(&ref_ctx, 2);
    g.a.assign_on(Subset::Even, g.u.q() * g.v.q()).unwrap();
    g.c.assign_on(Subset::Odd, g.u.q() * g.v.q()).unwrap();
    assert_eq!(field_bytes(&ctx, f.a.id()), field_bytes(&ref_ctx, g.a.id()));
    assert_eq!(field_bytes(&ctx, f.c.id()), field_bytes(&ref_ctx, g.c.id()));
}

/// The critical correctness hazard: a consumer reading the producer's
/// target *through a shift* would see a mix of old and new neighbour
/// values if fused. The planner must split.
#[test]
fn bailout_shift_across_fusion_boundary() {
    let ctx = profiled_ctx(4, true);
    let f = pair(&ctx, 3);
    let mut scope = ctx.deferred();
    scope.assign(&f.a, f.u.q() * f.v.q()).unwrap();
    scope
        .assign(&f.c, shift(f.a.q(), 0, ShiftDir::Forward) * f.v.q())
        .unwrap();
    scope.flush().unwrap();
    assert_eq!(ctx.profile_report().counter("fuse.bailouts"), 1);
    assert_eq!(ctx.profile_report().counter("fuse.groups"), 0);

    let ref_ctx = profiled_ctx(4, true);
    let g = pair(&ref_ctx, 3);
    g.a.assign(g.u.q() * g.v.q()).unwrap();
    g.c.assign(shift(g.a.q(), 0, ShiftDir::Forward) * g.v.q())
        .unwrap();
    assert_eq!(field_bytes(&ctx, f.c.id()), field_bytes(&ref_ctx, g.c.id()));
}

/// A statement reading its own target under a shift races with itself in
/// any kernel; it launches alone (through a temporary) and equals the
/// reference.
#[test]
fn bailout_self_shift() {
    let ctx = profiled_ctx(4, true);
    let f = pair(&ctx, 5);
    let mut scope = ctx.deferred();
    scope.assign(&f.a, f.u.q() * f.v.q()).unwrap();
    scope.assign(&f.u, shift(f.u.q(), 3, ShiftDir::Backward)).unwrap();
    scope.flush().unwrap();
    assert_eq!(ctx.profile_report().counter("fuse.bailouts"), 1);
    assert_eq!(ctx.profile_report().counter("fuse.groups"), 0);

    let ref_ctx = profiled_ctx(4, true);
    let g = pair(&ref_ctx, 5);
    g.a.assign(g.u.q() * g.v.q()).unwrap();
    g.u.assign_reference(shift(g.u.q(), 3, ShiftDir::Backward))
        .unwrap();
    assert_eq!(field_bytes(&ctx, f.a.id()), field_bytes(&ref_ctx, g.a.id()));
    assert_eq!(field_bytes(&ctx, f.u.id()), field_bytes(&ref_ctx, g.u.id()));
}

#[test]
fn bailout_cross_stream_dependency() {
    let ctx = profiled_ctx(4, true);
    let s2 = ctx.device().create_stream("fusion-test");
    let f = pair(&ctx, 4);
    let mut scope = ctx.deferred();
    scope.assign(&f.a, f.u.q() * f.v.q()).unwrap();
    {
        // a statement runs on the stream bound when it was recorded
        let _bound = ctx.device().bind_stream(s2);
        scope.assign(&f.c, f.u.q() * f.u.q()).unwrap();
    }
    scope.flush().unwrap();
    assert!(
        ctx.device().stream_now(s2) > ctx.device().stream_now(StreamId::DEFAULT),
        "the statement recorded under the binding launched on the bound stream"
    );
    ctx.device().sync();
    assert_eq!(ctx.profile_report().counter("fuse.bailouts"), 1);
    assert_eq!(ctx.profile_report().counter("fuse.groups"), 0);

    let ref_ctx = profiled_ctx(4, true);
    let r2 = ref_ctx.device().create_stream("fusion-test");
    let g = pair(&ref_ctx, 4);
    g.a.assign(g.u.q() * g.v.q()).unwrap();
    {
        let _bound = ref_ctx.device().bind_stream(r2);
        g.c.assign(g.u.q() * g.u.q()).unwrap();
    }
    ref_ctx.device().sync();
    assert_eq!(field_bytes(&ctx, f.a.id()), field_bytes(&ref_ctx, g.a.id()));
    assert_eq!(field_bytes(&ctx, f.c.id()), field_bytes(&ref_ctx, g.c.id()));
}

/// Happy path: a producer→consumer chain plus a batched reduction fuses,
/// counters tally, and the reduction value matches the immediate path.
#[test]
fn fused_chain_and_batched_reduction_match_immediate() {
    let ctx = profiled_ctx(4, true);
    let f = pair(&ctx, 6);
    let mut scope = ctx.deferred();
    scope.assign(&f.a, f.u.q() * f.v.q()).unwrap();
    let n2 = scope.norm2(&f.a).unwrap();
    let pair_n2 = scope.norm2_batch(&[&f.u, &f.v]).unwrap();
    drop(scope);
    let rep = ctx.profile_report();
    assert!(rep.counter("fuse.groups") >= 2, "chain + batch both fuse");
    assert!(rep.counter("fuse.launches_saved") >= 2);
    assert_eq!(
        rep.counter("fuse.bailouts"),
        0,
        "separate flushes never see each other — no legality split"
    );

    let ref_ctx = profiled_ctx(4, true);
    let g = pair(&ref_ctx, 6);
    g.a.assign(g.u.q() * g.v.q()).unwrap();
    assert_eq!(n2.to_bits(), g.a.norm2().unwrap().to_bits());
    assert_eq!(pair_n2[0].to_bits(), g.u.norm2().unwrap().to_bits());
    assert_eq!(pair_n2[1].to_bits(), g.v.norm2().unwrap().to_bits());
}

/// Reductions ride the same budget: at budget 1 `norm2_batch` and
/// `inner_product` launch one temporary kernel each — the kernels, launch
/// counts and bits of the immediate `Lattice::norm2` /
/// `reduce_inner_product`.
#[test]
fn budget_one_reductions_match_immediate() {
    let ctx = profiled_ctx(4, false);
    let f = pair(&ctx, 7);
    let mut scope = ctx.deferred();
    let n2 = scope.norm2_batch(&[&f.u, &f.v]).unwrap();
    let ip = scope.inner_product(&f.u.q(), &f.v.q()).unwrap();
    drop(scope);
    let rep = ctx.profile_report();
    assert_eq!(rep.counter("fuse.groups"), 0);
    assert_eq!(rep.counter("fuse.bailouts"), 0);

    let ref_ctx = profiled_ctx(4, true);
    let g = pair(&ref_ctx, 7);
    assert_eq!(n2[0].to_bits(), g.u.norm2().unwrap().to_bits());
    assert_eq!(n2[1].to_bits(), g.v.norm2().unwrap().to_bits());
    let ip_ref = reduce_inner_product(&ref_ctx, &g.u.q(), &g.v.q(), Subset::All).unwrap();
    assert_eq!(ip.re.to_bits(), ip_ref.re.to_bits());
    assert_eq!(ip.im.to_bits(), ip_ref.im.to_bits());
    assert_eq!(launch_signature(&ctx), launch_signature(&ref_ctx));
}

/// The legality rules do not depend on the rank grid: on a split grid a
/// statement that shifts along the split dimension fuses with an
/// independent statement exactly as on an unattached context — one `qdpf_`
/// kernel, no bailout — and the §V schedule runs the group as a whole,
/// bit for bit like the immediate path.
#[test]
fn split_grid_plans_like_one_rank() {
    use qdp_core::multinode::MultiRank;
    use qdp_layout::Decomposition;
    let record = |ctx: &Arc<QdpContext>, f: &Pair| {
        let mut scope = ctx.deferred();
        scope.assign(&f.a, f.u.q() * f.v.q()).unwrap();
        scope
            .assign(&f.c, shift(f.u.q(), 0, ShiftDir::Forward) * f.v.q())
            .unwrap();
        scope.flush().unwrap();
    };
    let check_one_fused_group = |ctx: &QdpContext| {
        let rep = ctx.profile_report();
        assert_eq!(rep.counter("fuse.bailouts"), 0);
        assert_eq!(rep.counter("fuse.groups"), 1);
        let fused: Vec<_> = rep.kernels.iter().filter(|k| k.name.starts_with("qdpf_")).collect();
        assert_eq!(fused.len(), 1, "one fused kernel: {:?}", launch_signature(ctx));
    };

    qdp_comm::run_cluster(2, qdp_comm::LinkModel::infiniband_qdr(), |handle| {
        let decomp = Decomposition::new([8, 4, 4, 4], [2, 1, 1, 1]);
        let seed = 8 + handle.rank as u64;
        let ctx = profiled_ctx(4, true);
        let _rank = MultiRank::new(Arc::clone(&ctx), decomp, handle, true, true);
        let f = pair(&ctx, seed);
        record(&ctx, &f);
        check_one_fused_group(&ctx);

        // the immediate path on the same attached context, bit for bit
        let g = pair(&ctx, seed);
        g.a.assign(g.u.q() * g.v.q()).unwrap();
        g.c.assign(shift(g.u.q(), 0, ShiftDir::Forward) * g.v.q())
            .unwrap();
        assert_eq!(field_bytes(&ctx, f.a.id()), field_bytes(&ctx, g.a.id()));
        assert_eq!(field_bytes(&ctx, f.c.id()), field_bytes(&ctx, g.c.id()));
    });

    let ctx = profiled_ctx(4, true);
    record(&ctx, &pair(&ctx, 8));
    check_one_fused_group(&ctx);
    let signature = launch_signature(&ctx);
    assert_eq!(signature.len(), 1, "one fused launch: {signature:?}");
    assert_eq!(signature[0].1, 1);
}

/// A fused group's key numbers leaves in the *group's* leaf table: two
/// groups whose statements match one by one but read different fields
/// across statements are different kernels. `{a = u+v; c = 2u}` then
/// `{a = u+v; c = 2v}` on one context must not hand the second group the
/// first group's kernel.
#[test]
fn groups_differing_only_in_cross_statement_leaves_get_their_own_kernels() {
    let ctx = profiled_ctx(4, true);
    let f = pair(&ctx, 9);
    let mut scope = ctx.deferred();
    scope.assign(&f.a, f.u.q() + f.v.q()).unwrap();
    scope.assign(&f.c, 2.0 * f.u.q()).unwrap();
    scope.flush().unwrap();
    scope.assign(&f.a, f.u.q() + f.v.q()).unwrap();
    scope.assign(&f.c, 2.0 * f.v.q()).unwrap();
    scope.flush().unwrap();
    drop(scope);
    let fused: Vec<(String, u64)> = launch_signature(&ctx)
        .into_iter()
        .filter(|(name, _)| name.starts_with("qdpf_"))
        .collect();
    assert_eq!(fused.len(), 2, "two distinct fused kernels: {fused:?}");
    assert!(fused.iter().all(|(_, launches)| *launches == 1));

    let want = LatticeColorMatrix::<f64>::new(&ctx);
    want.assign(2.0 * f.v.q()).unwrap();
    assert_eq!(field_bytes(&ctx, f.c.id()), field_bytes(&ctx, want.id()));
}

/// Same identity rule through the batched reduction: `[u, v]`, `[v, u]`
/// and `[u, u]` have two, two and one leaves — the last is a different
/// kernel, not a panic on the first one's argument count.
#[test]
fn norm2_batch_over_aliased_fields_matches_immediate() {
    let ctx = profiled_ctx(4, true);
    let f = pair(&ctx, 10);
    let (nu, nv) = (f.u.norm2().unwrap(), f.v.norm2().unwrap());
    let mut scope = ctx.deferred();
    for (fields, want) in [
        ([&f.u, &f.v], [nu, nv]),
        ([&f.v, &f.u], [nv, nu]),
        ([&f.u, &f.u], [nu, nu]),
    ] {
        let got = scope.norm2_batch(&fields).unwrap();
        assert_eq!(got[0].to_bits(), want[0].to_bits());
        assert_eq!(got[1].to_bits(), want[1].to_bits());
    }
}
