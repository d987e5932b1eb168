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
use qdp_expr::{BinaryOp, Expr, FieldRef, KernelSignature};
use qdp_proptest::Gen;
use qdp_rng::{SeedableRng, StdRng};
use qdp_telemetry::Telemetry;
use qdp_types::ElemKind;
use std::collections::HashMap;
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

/// Append `e`'s signature to the group `sig`; its text key, leaves
/// numbered in the group's table.
fn append_stmt(sig: &mut KernelSignature, e: &Expr) -> String {
    let stmt = KernelSignature::of(e);
    let map = sig.append(&stmt);
    let mut key = String::new();
    stmt.write_key(|slot| map[slot as usize], &mut key);
    key
}

/// One statement's key, its full kernel key through `plan_codegen` (every
/// subset-mapping and rank-split variant), and the key-less predicates.
fn check_statement(ctx: &QdpContext, what: &str, target: FieldRef, e: &Expr) {
    let (mut leaves, mut want) = (Vec::new(), String::new());
    let expr_ft = reference_key(e, &mut leaves, &mut want);
    assert_eq!(e.kernel_key(), want, "{what}: kernel_key");
    let sig = KernelSignature::of(e);
    let mut key = String::new();
    sig.write_key(|slot| slot, &mut key);
    assert_eq!(sig.float_type(), expr_ft, "{what}: promoted precision");
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
                let (key, mut want) = (append_stmt(&mut sig, e), String::new());
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

/// Token keys and text keys seen so far, each side mapped to the other:
/// adding a pair checks that equal tokens come with equal text and equal
/// text with equal tokens.
#[derive(Default)]
struct Keys {
    by_tokens: HashMap<Vec<u32>, String>,
    by_text: HashMap<String, Vec<u32>>,
}

impl Keys {
    fn add(&mut self, what: &str, tokens: &[u32], text: &str) {
        if let Some(seen) = self.by_tokens.insert(tokens.to_vec(), text.to_string()) {
            assert_eq!(seen, text, "{what}: equal tokens, different text keys");
        }
        if let Some(seen) = self.by_text.insert(text.to_string(), tokens.to_vec()) {
            assert_eq!(seen, tokens, "{what}: equal text keys, different tokens");
        }
    }
}

/// `e` with every field id moved up by `by` and every scalar value changed,
/// complex flags kept: the same kernel.
fn relabeled(e: &Expr, by: u64) -> Expr {
    let field = |r: &FieldRef| FieldRef {
        id: r.id + by,
        ..*r
    };
    let sub = |c: &Expr| Box::new(relabeled(c, by));
    match e {
        Expr::Field(r) => Expr::Field(field(r)),
        Expr::Scalar { re, im, complex } => Expr::Scalar {
            re: re * 3.0 + 1.5,
            im: im - 0.5,
            complex: *complex,
        },
        Expr::Unary(op, c) => Expr::Unary(*op, sub(c)),
        Expr::Binary(op, a, b) => Expr::Binary(*op, sub(a), sub(b)),
        Expr::Shift { mu, dir, child } => Expr::Shift {
            mu: *mu,
            dir: *dir,
            child: sub(child),
        },
        Expr::GammaMul { gamma, child } => Expr::GammaMul {
            gamma: *gamma,
            child: sub(child),
        },
        Expr::SpinProject { proj, child } => Expr::SpinProject {
            proj: *proj,
            child: sub(child),
        },
        Expr::SpinReconstruct { proj, child } => Expr::SpinReconstruct {
            proj: *proj,
            child: sub(child),
        },
        Expr::CloverApply { diag, tri, child } => Expr::CloverApply {
            diag: field(diag),
            tri: field(tri),
            child: sub(child),
        },
    }
}

/// `e` with its first scalar's complex flag flipped, if it has a scalar.
fn flip_first_scalar(e: &Expr) -> Option<Expr> {
    let mut flipped = false;
    fn go(e: &Expr, flipped: &mut bool) -> Expr {
        if let (Expr::Scalar { re, im, complex }, false) = (e, *flipped) {
            *flipped = true;
            return Expr::Scalar {
                re: *re,
                im: *im,
                complex: !complex,
            };
        }
        let mut sub = |c: &Expr| Box::new(go(c, flipped));
        match e {
            Expr::Unary(op, c) => Expr::Unary(*op, sub(c)),
            Expr::Binary(op, a, b) => {
                let a = sub(a);
                Expr::Binary(*op, a, sub(b))
            }
            Expr::Shift { mu, dir, child } => Expr::Shift {
                mu: *mu,
                dir: *dir,
                child: sub(child),
            },
            Expr::GammaMul { gamma, child } => Expr::GammaMul {
                gamma: *gamma,
                child: sub(child),
            },
            Expr::SpinProject { proj, child } => Expr::SpinProject {
                proj: *proj,
                child: sub(child),
            },
            Expr::SpinReconstruct { proj, child } => Expr::SpinReconstruct {
                proj: *proj,
                child: sub(child),
            },
            Expr::CloverApply { diag, tri, child } => Expr::CloverApply {
                diag: *diag,
                tri: *tri,
                child: sub(child),
            },
            other => other.clone(),
        }
    }
    let out = go(e, &mut flipped);
    flipped.then_some(out)
}

/// A statement group's token key and its text key, statements' text keys
/// joined as the kernel key joins them.
fn group_key(stmts: &[(FieldRef, Expr)]) -> (Vec<u32>, String) {
    let mut sig = KernelSignature::default();
    let keys: Vec<String> = stmts.iter().map(|(_, e)| append_stmt(&mut sig, e)).collect();
    (sig.tokens, keys.join(" ; "))
}

/// The kernel cache compares token keys. Over random DAGs — each beside a
/// copy with other fields and scalar values, and one with a scalar's
/// complex flag flipped — and generated statement groups with their
/// aliasing twins: two keys have equal tokens exactly when their text keys
/// are equal. (The environment words a launch appends are checked the same
/// way by `fuse.rs`'s `group_token_keys_are_equal_exactly_when_text_keys_are`.)
#[test]
fn token_keys_are_equal_exactly_when_text_keys_are() {
    let (mut stmts, mut groups) = (Keys::default(), Keys::default());
    for ft in [FloatType::F32, FloatType::F64] {
        let fx = Fixture::normal(ft, 5);
        for case in 0..CASES {
            let mut g = Gen::from_case_seed(case, 1.0);
            let kind = random_target_kind(&mut g);
            let depth = g.depth(4);
            let e = gen_typed_expr(&mut g, &fx, kind, depth);
            let what = format!("{ft:?} case {case}");
            let copy = relabeled(&e, 1000);
            for (label, e) in [("", &e), (" relabeled", &copy)] {
                let sig = KernelSignature::of(e);
                stmts.add(&format!("{what}{label}"), &sig.tokens, &e.kernel_key());
            }
            assert_eq!(
                KernelSignature::of(&e).tokens,
                KernelSignature::of(&copy).tokens
            );
            if let Some(flipped) = flip_first_scalar(&e) {
                let sig = KernelSignature::of(&flipped);
                assert_ne!(
                    sig.tokens,
                    KernelSignature::of(&e).tokens,
                    "{what}: complex flag"
                );
                stmts.add(
                    &format!("{what} flipped"),
                    &sig.tokens,
                    &flipped.kernel_key(),
                );
            }

            let (seq, twin) = gen_stmt_sequence(&mut g, &fx, 3);
            let moved: Vec<(FieldRef, Expr)> =
                seq.iter().map(|(t, e)| (*t, relabeled(e, 1000))).collect();
            let (tokens, text) = group_key(&seq);
            groups.add(&format!("{what} group"), &tokens, &text);
            let (moved_tokens, moved_text) = group_key(&moved);
            assert_eq!(
                (&moved_tokens, &moved_text),
                (&tokens, &text),
                "{what}: relabeled group"
            );
            if let Some(twin) = &twin {
                let (twin_tokens, twin_text) = group_key(twin);
                assert_ne!(twin_text, text, "{what}: the twin shares another leaf");
                groups.add(&format!("{what} twin"), &twin_tokens, &twin_text);
            }
            for (t, _) in seq.iter().chain(twin.iter().flatten()) {
                fx.release(*t);
            }
        }
    }
    assert!(
        groups.by_text.len() > CASES as usize,
        "the groups are mostly distinct"
    );
}

/// `{r = a+b; t = 2*a}` and `{r = a+b; t = 2*b}` are two kernels; scalar
/// values are parameters, and a real scalar is not a complex one.
#[test]
fn token_keys_number_group_leaves_and_scalar_kinds() {
    let u = |id| Expr::field(id, ElemKind::ColorMatrix, FloatType::F64);
    let bin = |op, a, b| Expr::Binary(op, Box::new(a), Box::new(b));
    let sum = bin(BinaryOp::Add, u(1), u(2));
    let t = FieldRef {
        id: 9,
        kind: ElemKind::ColorMatrix,
        ft: FloatType::F64,
    };
    let group = |s: Expr, id| group_key(&[(t, sum.clone()), (t, bin(BinaryOp::Mul, s, u(id)))]);
    let mut keys = Keys::default();
    let (a, b) = (group(Expr::real(2.0), 1), group(Expr::real(2.0), 2));
    assert_ne!(a.0, b.0);
    assert_ne!(a.1, b.1);
    let scaled = group(Expr::real(-7.25), 1);
    assert_eq!(scaled, a, "scalar values are not part of the key");
    let complex = group(Expr::complex(2.0, 0.0), 1);
    assert_ne!(complex.0, a.0);
    for (what, (tokens, text)) in [("a", a), ("b", b), ("scaled", scaled), ("complex", complex)] {
        keys.add(what, &tokens, &text);
    }
    assert_eq!(keys.by_text.len(), 3);
}
