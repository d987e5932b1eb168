//! What a warm launch walks. The structural key is written piece by piece,
//! without the formatter, and must stay byte-identical to the rendering it
//! replaced — kernel names (`qdp_<hash>`) and persisted stores hang on it.
//! The short-circuiting predicates must agree with the allocating walks
//! they stand in for, and the planner must form the same groups over the
//! CG body as before.

use chroma_mini::fermion::{CloverTerm, WilsonDirac};
use chroma_mini::gauge::{gaussian_fermion, taproj, GaugeField};
use qdp_conformance::{gen_stmt_sequence, gen_typed_expr, random_target_kind, Fixture};
use qdp_core::prelude::*;
use qdp_core::{expm, plan_codegen, real, trace};
use qdp_expr::{Expr, FieldRef, KernelSignature};
use qdp_proptest::Gen;
use qdp_rng::{SeedableRng, StdRng};
use qdp_telemetry::Telemetry;
use qdp_types::ElemKind;
use std::fmt::Write;
use std::sync::Arc;

/// Random DAGs per precision.
const CASES: u64 = 200;

/// The structural key of `e` as the formatter rendered it — `write!` and
/// `Debug` for every node — with leaves numbered in the group table
/// `leaves`. Returns the precision the leaves promote to.
fn reference_key(e: &Expr, leaves: &mut Vec<u64>, key: &mut String) -> FloatType {
    fn slot(r: &FieldRef, leaves: &mut Vec<u64>, ft: &mut FloatType) -> usize {
        if r.ft == FloatType::F64 {
            *ft = FloatType::F64;
        }
        leaves.iter().position(|&id| id == r.id).unwrap_or_else(|| {
            leaves.push(r.id);
            leaves.len() - 1
        })
    }
    fn walk(e: &Expr, leaves: &mut Vec<u64>, key: &mut String, ft: &mut FloatType) {
        match e {
            Expr::Field(r) => {
                let s = slot(r, leaves, ft);
                write!(key, "f{s}:{:?}:{}", r.kind, r.ft.tag()).unwrap();
            }
            Expr::Scalar { complex, .. } => key.push_str(if *complex { "sc" } else { "sr" }),
            Expr::Unary(op, c) => {
                write!(key, "{op:?}(").unwrap();
                walk(c, leaves, key, ft);
                key.push(')');
            }
            Expr::Binary(op, a, b) => {
                write!(key, "{op:?}(").unwrap();
                walk(a, leaves, key, ft);
                key.push(',');
                walk(b, leaves, key, ft);
                key.push(')');
            }
            Expr::Shift { mu, dir, child } => {
                write!(key, "Shift{mu}{dir:?}(").unwrap();
                walk(child, leaves, key, ft);
                key.push(')');
            }
            Expr::GammaMul { gamma, child } => {
                write!(key, "G{:?}{:?}(", gamma.col, gamma.phase).unwrap();
                walk(child, leaves, key, ft);
                key.push(')');
            }
            Expr::SpinProject { proj, child } | Expr::SpinReconstruct { proj, child } => {
                let op = if matches!(e, Expr::SpinProject { .. }) {
                    'P'
                } else {
                    'R'
                };
                write!(key, "{op}{}{:?}(", proj.mu, proj.sign).unwrap();
                walk(child, leaves, key, ft);
                key.push(')');
            }
            Expr::CloverApply { diag, tri, child } => {
                let (d, t) = (slot(diag, leaves, ft), slot(tri, leaves, ft));
                write!(key, "Clov(f{d},f{t},").unwrap();
                walk(child, leaves, key, ft);
                key.push(')');
            }
        }
    }
    let mut ft = FloatType::F32;
    walk(e, leaves, key, &mut ft);
    ft
}

/// The old `has_nested_shift`: a shift whose child's shift list is not
/// empty.
fn reference_nested(e: &Expr) -> bool {
    match e {
        Expr::Shift { child, .. } => !child.shifts().is_empty(),
        Expr::Field(_) | Expr::Scalar { .. } => false,
        Expr::Unary(_, c) => reference_nested(c),
        Expr::Binary(_, a, b) => reference_nested(a) || reference_nested(b),
        Expr::GammaMul { child, .. }
        | Expr::SpinProject { child, .. }
        | Expr::SpinReconstruct { child, .. }
        | Expr::CloverApply { child, .. } => reference_nested(child),
    }
}

/// One statement's key, its full kernel key through `plan_codegen` (every
/// subset-mapping and rank-split variant), and the key-less predicates.
fn check_statement(ctx: &QdpContext, what: &str, target: FieldRef, e: &Expr) {
    let (mut leaves, mut want) = (Vec::new(), String::new());
    let expr_ft = reference_key(e, &mut leaves, &mut want);
    assert_eq!(e.kernel_key(), want, "{what}: kernel_key");
    let mut sig = KernelSignature::default();
    let mut key = String::new();
    assert_eq!(sig.push(e, &mut key), expr_ft, "{what}: promoted precision");
    assert_eq!(key, want, "{what}: signature key");
    let ids: Vec<u64> = sig.leaves.iter().map(|l| l.id).collect();
    assert_eq!(ids, leaves, "{what}: leaf table");

    let stmt_ft = if target.ft == FloatType::F64 {
        FloatType::F64
    } else {
        expr_ft
    };
    for subset_mapped in [false, true] {
        for remote in [false, true] {
            let plan = plan_codegen(ctx, target, e, subset_mapped, remote).unwrap();
            let full = format!(
                "{want}|v{}|{:?}|{stmt_ft}|m{subset_mapped}|r{:x}|t{:?}{}|{}",
                ctx.geometry().vol(),
                ctx.layout(),
                if remote { 0xf } else { 0 },
                target.kind,
                target.ft.tag(),
                ctx.opt_level().tag(),
            );
            assert_eq!(plan.key, full, "{what}: plan key");
        }
    }

    assert_eq!(e.float_type(), expr_ft, "{what}: float_type");
    let shifts = e.shifts();
    assert_eq!(
        e.has_shift(|_, _| true),
        !shifts.is_empty(),
        "{what}: has_shift"
    );
    for mu in 0..4 {
        let along = shifts.iter().any(|&(m, _)| m == mu);
        assert_eq!(
            e.has_shift(|m, _| m == mu),
            along,
            "{what}: has_shift({mu})"
        );
    }
    let hazards = e.leaves_under_any_shift();
    for leaf in e.leaves().iter().chain([&target]) {
        let shifted = hazards.iter().any(|h| h.id == leaf.id);
        assert_eq!(
            e.reads_under_shift(leaf.id),
            shifted,
            "{what}: reads_under_shift"
        );
    }
    assert_eq!(
        e.has_nested_shift(),
        reference_nested(e),
        "{what}: has_nested_shift"
    );
}

#[test]
fn physics_keys_match_the_formatter_rendering() {
    let ctx = QdpContext::builder(Geometry::symmetric(4)).build();
    let mut rng = StdRng::seed_from_u64(7);
    let g = GaugeField::hot(&ctx, &mut rng);
    let psi = gaussian_fermion(&ctx, &mut rng);
    let wilson = WilsonDirac::new(&g, 0.3, None);
    let clover = WilsonDirac::new(&g, 0.3, Some(CloverTerm::construct(&g, 1.2).unwrap()));
    let fermion = psi.fref();
    let link = g.u[0].fref();
    let mut stmts: Vec<(String, FieldRef, Expr)> = Vec::new();
    for (name, m) in [("wilson", &wilson), ("clover", &clover)] {
        stmts.push((format!("{name} M"), fermion, m.apply_expr(psi.q()).0));
        stmts.push((format!("{name} M†"), fermion, m.apply_dag_expr(psi.q()).0));
    }
    let p = LatticeColorMatrix::<f64>::new(&ctx);
    for mu in 0..4 {
        let force = (-5.5 / 3.0) * taproj(g.u[mu].q() * g.staple_expr(mu));
        stmts.push((format!("gauge force {mu}"), link, force.0));
        let update = expm(0.05 * p.q()) * g.u[mu].q();
        stmts.push((format!("expm link update {mu}"), link, update.0));
    }
    let plaq = real(trace(g.plaquette_expr(0, 3)));
    let plaq_target = FieldRef {
        id: u64::MAX,
        kind: ElemKind::Real,
        ft: FloatType::F64,
    };
    stmts.push(("plaquette".into(), plaq_target, plaq.0));
    for (what, target, e) in &stmts {
        check_statement(&ctx, what, *target, e);
    }
}

#[test]
fn generated_keys_match_the_formatter_rendering() {
    for ft in [FloatType::F32, FloatType::F64] {
        let fx = Fixture::normal(ft, 5);
        let other = match ft {
            FloatType::F32 => FloatType::F64,
            FloatType::F64 => FloatType::F32,
        };
        for case in 0..CASES {
            let mut g = Gen::from_case_seed(case, 1.0);
            let kind = random_target_kind(&mut g);
            let depth = g.depth(4);
            let e = gen_typed_expr(&mut g, &fx, kind, depth);
            let what = format!("{ft:?} case {case}");
            // A target of the other precision promotes the statement.
            let target = FieldRef {
                id: u64::MAX,
                kind,
                ft: if case % 2 == 0 { ft } else { other },
            };
            check_statement(&fx.ctx, &what, target, &e);

            // A fused group numbers every statement's leaves in the
            // group's one table.
            let (seq, twin) = gen_stmt_sequence(&mut g, &fx, 3);
            let mut sig = KernelSignature::default();
            let mut leaves = Vec::new();
            for (i, (_, e)) in seq.iter().enumerate() {
                let (mut key, mut want) = (String::new(), String::new());
                sig.push(e, &mut key);
                reference_key(e, &mut leaves, &mut want);
                assert_eq!(key, want, "{what}: statement {i} of its group");
            }
            for (t, _) in seq.iter().chain(twin.iter().flatten()) {
                fx.release(*t);
            }
        }
    }
}

/// The `cg_model` CG body (`tmp = M p; ap = M† tmp; ⟨p, ap⟩; x += αp;
/// r −= α ap; ‖r‖²; p = r + βp`) through one deferred scope: the groups,
/// bailouts and launches it plans, pinned.
#[test]
fn cg_body_plans_the_same_groups() {
    let tel = Arc::new(Telemetry::new());
    tel.enable();
    let ctx = QdpContext::builder(Geometry::symmetric(4))
        .telemetry(tel)
        .build();
    ctx.set_payload_execution(false);
    let mut rng = StdRng::seed_from_u64(3);
    let g = GaugeField::hot(&ctx, &mut rng);
    let m = WilsonDirac::new(&g, 0.3, None);
    let (x, r, p) = (
        LatticeFermion::<f64>::new(&ctx),
        gaussian_fermion(&ctx, &mut rng),
        gaussian_fermion(&ctx, &mut rng),
    );
    let (ap, tmp) = (
        LatticeFermion::<f64>::new(&ctx),
        LatticeFermion::<f64>::new(&ctx),
    );
    let before = ctx.profile_report();
    let launches = |rep: &qdp_telemetry::ProfileReport| -> u64 {
        rep.kernels.iter().map(|k| k.launches).sum()
    };
    let mut scope = ctx.deferred();
    for _ in 0..3 {
        scope.assign(&tmp, m.apply_expr(p.q())).unwrap();
        scope.assign(&ap, m.apply_dag_expr(tmp.q())).unwrap();
        scope.inner_product(&p.q(), &ap.q()).unwrap();
        scope.assign(&x, x.q() + 0.1 * p.q()).unwrap();
        scope.assign(&r, r.q() - 0.1 * ap.q()).unwrap();
        scope.norm2(&r).unwrap();
        scope.assign(&p, r.q() + 0.7 * p.q()).unwrap();
    }
    scope.flush().unwrap();
    drop(scope);
    let rep = ctx.profile_report();
    let fuse: Vec<(&str, u64)> = rep
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("fuse."))
        .map(|(name, &n)| (name.as_str(), n - before.counter(name)))
        .collect();
    assert_eq!(
        fuse,
        [
            ("fuse.bailout.shift-of-group-target", 5),
            ("fuse.bailouts", 5),
            ("fuse.groups", 6),
            ("fuse.launches_saved", 9),
        ]
    );
    assert_eq!(launches(&rep) - launches(&before), 12);
}
