//! What a warm launch walks. A kernel's key is its token sequence and its
//! name (`qdp_<hash>`) a hash of those tokens: two token keys, and two
//! names, must be equal exactly when a test-side rendering of the structure
//! through the formatter is. The short-circuiting predicates must agree
//! with the allocating walks they stand in for, and the planner must form
//! the same groups over the CG body as before.

use chroma_mini::fermion::{CloverTerm, WilsonDirac};
use chroma_mini::gauge::{gaussian_fermion, taproj, GaugeField};
use qdp_conformance::{gen_stmt_sequence, gen_typed_expr, random_target_kind, Fixture};
use qdp_core::prelude::*;
use qdp_core::{expm, plan_codegen, real, trace};
use qdp_expr::{BinaryOp, Expr, FieldRef, KernelSignature, ShiftDir, UnaryOp};
use qdp_proptest::Gen;
use qdp_rng::{SeedableRng, StdRng};
use qdp_telemetry::Telemetry;
use qdp_types::{ElemKind, Gamma};
use std::collections::HashMap;
use std::fmt::{Debug, Write};
use std::hash::Hash;
use std::sync::Arc;

/// Random DAGs per precision.
const CASES: u64 = 200;

/// The structural key of `e` rendered through the formatter — `write!`
/// and `Debug` for every node — with leaves numbered in the group table
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

/// One statement's token key against its reference key, its name through
/// `plan_codegen` (every subset-mapping and rank-split variant) against
/// the reference full key, and the key-less predicates.
fn check_statement(ctx: &QdpContext, keys: &mut Checks, what: &str, target: FieldRef, e: &Expr) {
    let (mut leaves, mut want) = (Vec::new(), String::new());
    let expr_ft = reference_key(e, &mut leaves, &mut want);
    let sig = KernelSignature::of(e);
    assert_eq!(e.kernel_key(), sig.tokens, "{what}: kernel_key");
    keys.stmts.add(what, &sig.tokens, &want);
    assert_eq!(sig.float_type(), expr_ft, "{what}: promoted precision");
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
                "{want}|v{}|{:?}|{stmt_ft}|m{subset_mapped}|r{:x}|t{:?}{}|{:?}",
                ctx.geometry().vol(),
                ctx.layout(),
                if remote { 0xf } else { 0 },
                target.kind,
                target.ft.tag(),
                ctx.opt_level(),
            );
            keys.names.add(what, &plan.name, &full);
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
fn physics_keys_and_names_follow_the_reference() {
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
    let mut keys = Checks::default();
    for (what, target, e) in &stmts {
        check_statement(&ctx, &mut keys, what, *target, e);
    }
    // The four link updates are one kernel; every other statement is its own.
    assert_eq!(keys.stmts.by_text.len(), stmts.len() - 3);
    assert_eq!(keys.names.by_text.len(), 4 * (stmts.len() - 3));
}

#[test]
fn generated_keys_and_names_follow_the_reference() {
    let mut keys = Checks::default();
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
            check_statement(&fx.ctx, &mut keys, &what, target, &e);
        }
    }
    assert!(keys.stmts.by_text.len() > CASES as usize, "the DAGs are mostly distinct");
}

/// Two fresh contexts give the same statement the same kernel name, and
/// the one a launch runs is the one `plan_codegen` plans.
#[test]
fn fresh_contexts_name_a_statement_alike() {
    let names = [1, 2].map(|seed| {
        let ctx = QdpContext::builder(Geometry::symmetric(4)).build();
        let mut rng = StdRng::seed_from_u64(seed);
        let g = GaugeField::hot(&ctx, &mut rng);
        let psi = gaussian_fermion(&ctx, &mut rng);
        let out = LatticeFermion::<f64>::new(&ctx);
        let m = WilsonDirac::new(&g, 0.3, None);
        let dslash = m.apply_expr(psi.q()).0;
        let plan = plan_codegen(&ctx, out.fref(), &dslash, false, false).unwrap();
        let report = qdp_core::eval(&ctx, out.fref(), &dslash, Subset::All).unwrap();
        assert_eq!(report.kernel_name, plan.name, "launch and plan name alike");
        plan.name
    });
    assert_eq!(names[0], names[1]);
    assert!(names[0].starts_with("qdp_") && names[0].len() == 4 + 16, "{}", names[0]);
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

/// Keys (token keys or kernel names) and reference keys seen so far, each
/// side mapped to the other: adding a pair checks that equal keys come
/// with equal references and equal references with equal keys.
struct Keys<K> {
    by_key: HashMap<K, String>,
    by_text: HashMap<String, K>,
}

impl<K> Default for Keys<K> {
    fn default() -> Self {
        Keys {
            by_key: HashMap::new(),
            by_text: HashMap::new(),
        }
    }
}

impl<K: Clone + Debug + Eq + Hash> Keys<K> {
    fn add<Q: ToOwned<Owned = K> + ?Sized>(&mut self, what: &str, key: &Q, text: &str) {
        let key = key.to_owned();
        if let Some(seen) = self.by_key.insert(key.clone(), text.to_string()) {
            assert_eq!(seen, text, "{what}: equal keys, different references");
        }
        if let Some(seen) = self.by_text.insert(text.to_string(), key.clone()) {
            assert_eq!(seen, key, "{what}: equal references, different keys");
        }
    }
}

/// Statements' token keys and their kernels' names, each against its
/// reference.
#[derive(Default)]
struct Checks {
    stmts: Keys<Vec<u32>>,
    names: Keys<String>,
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

/// A statement group's token key and its reference key: the statements'
/// reference keys, leaves numbered in the group's one table, joined. The
/// group's leaf table is checked against the reference's.
fn group_key(stmts: &[(FieldRef, Expr)]) -> (Vec<u32>, String) {
    let mut sig = KernelSignature::default();
    let (mut leaves, mut keys) = (Vec::new(), Vec::new());
    for (_, e) in stmts {
        sig.append(&KernelSignature::of(e));
        let mut key = String::new();
        reference_key(e, &mut leaves, &mut key);
        keys.push(key);
    }
    let ids: Vec<u64> = sig.leaves.iter().map(|l| l.id).collect();
    assert_eq!(ids, leaves, "the group's leaf table");
    (sig.tokens, keys.join(" ; "))
}

/// The kernel cache compares token keys. Over random DAGs — each beside a
/// copy with other fields and scalar values, and one with a scalar's
/// complex flag flipped — and generated statement groups with their
/// aliasing twins: two keys have equal tokens exactly when their reference
/// keys are equal. (The environment words a launch appends are checked the
/// same way by `fuse.rs`'s
/// `group_token_keys_are_equal_exactly_when_reference_keys_are`.)
#[test]
fn token_keys_are_equal_exactly_when_reference_keys_are() {
    let (mut stmts, mut groups) = (Keys::<Vec<u32>>::default(), Keys::<Vec<u32>>::default());
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
                let mut want = String::new();
                reference_key(e, &mut Vec::new(), &mut want);
                stmts.add(&format!("{what}{label}"), &e.kernel_key(), &want);
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
                let mut want = String::new();
                reference_key(&flipped, &mut Vec::new(), &mut want);
                stmts.add(&format!("{what} flipped"), &sig.tokens, &want);
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

/// `{r = a+b; t = 2*a}` and `{r = a+b; t = 2*b}` are two kernels — in a
/// group, the second statement's leaf map says *which* earlier leaf it
/// reads; scalar values are parameters, and a real scalar is not a complex
/// one.
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
    let mut keys = Keys::<Vec<u32>>::default();
    let (a, b) = (group(Expr::real(2.0), 1), group(Expr::real(2.0), 2));
    assert_ne!(a.0, b.0);
    let sum_key = "Add(f0:ColorMatrix:dp,f1:ColorMatrix:dp)";
    assert_eq!(a.1, format!("{sum_key} ; Mul(sr,f0:ColorMatrix:dp)"));
    assert_eq!(b.1, format!("{sum_key} ; Mul(sr,f1:ColorMatrix:dp)"));
    // Alone, both second statements are the same kernel; in the group the
    // leaf map tells them apart.
    let twice = |id| bin(BinaryOp::Mul, Expr::real(2.0), u(id));
    assert_eq!(twice(1).kernel_key(), twice(2).kernel_key());
    let maps = [1, 2].map(|id| {
        let mut sig = KernelSignature::default();
        sig.append(&KernelSignature::of(&sum));
        sig.append(&KernelSignature::of(&twice(id))).to_vec()
    });
    assert_eq!(maps, [[0], [1]]);
    let scaled = group(Expr::real(-7.25), 1);
    assert_eq!(scaled, a, "scalar values are not part of the key");
    let complex = group(Expr::complex(2.0, 0.0), 1);
    assert_ne!(complex.0, a.0);
    for (what, (tokens, text)) in [("a", a), ("b", b), ("scaled", scaled), ("complex", complex)] {
        keys.add(what, &tokens, &text);
    }
    assert_eq!(keys.by_text.len(), 3);
}

/// `(m+4)·ψ − ½ Σ_µ [(1−γ_µ) U_µ ψ(x+µ) + (1+γ_µ) (U_µ† ψ)(x−µ)]` — the
/// unprojected Wilson-dslash DAG (U_µ = fields 1..=4, ψ = 5).
fn plain_dslash_expr() -> Expr {
    let u = |id| Expr::field(id, ElemKind::ColorMatrix, FloatType::F64);
    let psi = || Expr::field(5, ElemKind::Fermion, FloatType::F64);
    let sh = |mu, dir, child: Expr| Expr::Shift {
        mu,
        dir,
        child: Box::new(child),
    };
    let bin = |op, a: Expr, b: Expr| Expr::Binary(op, Box::new(a), Box::new(b));
    let gam = |mu, child: Expr| Expr::GammaMul {
        gamma: Gamma::gamma_mu(mu),
        child: Box::new(child),
    };
    let mut hop: Option<Expr> = None;
    for mu in 0..4 {
        let link = u(mu as u64 + 1);
        let fwd = bin(BinaryOp::Mul, link.clone(), sh(mu, ShiftDir::Forward, psi()));
        let bwd = sh(
            mu,
            ShiftDir::Backward,
            bin(BinaryOp::Mul, Expr::Unary(UnaryOp::Adj, Box::new(link)), psi()),
        );
        let term = bin(
            BinaryOp::Add,
            bin(BinaryOp::Sub, fwd.clone(), gam(mu, fwd)),
            bin(BinaryOp::Add, bwd.clone(), gam(mu, bwd)),
        );
        hop = Some(match hop {
            None => term,
            Some(acc) => bin(BinaryOp::Add, acc, term),
        });
    }
    bin(
        BinaryOp::Add,
        bin(BinaryOp::Mul, Expr::real(4.1), psi()),
        bin(BinaryOp::Mul, Expr::real(-0.5), hop.unwrap()),
    )
}

/// The reference rendering is pinned byte for byte on a dslash and an
/// axpy, beside the signature's tables; their token keys follow it: a
/// relabelled dslash is the same kernel, a real axpy scalar another one.
#[test]
fn literal_keys_pin_the_reference() {
    let gammas = [
        "[3, 2, 1, 0][I, I, MinusI, MinusI]",
        "[3, 2, 1, 0][MinusOne, One, One, MinusOne]",
        "[2, 3, 0, 1][I, MinusI, MinusI, I]",
        "[2, 3, 0, 1][One, One, One, One]",
    ];
    let term = |mu: usize| {
        let (l, g) = (mu + 1, gammas[mu]);
        let fwd = format!("Mul(f{l}:ColorMatrix:dp,Shift{mu}Forward(f0:Fermion:dp))");
        let bwd = format!("Shift{mu}Backward(Mul(Adj(f{l}:ColorMatrix:dp),f0:Fermion:dp))");
        format!("Add(Sub({fwd},G{g}({fwd})),Add({bwd},G{g}({bwd})))")
    };
    let dslash_key = format!(
        "Add(Mul(sr,f0:Fermion:dp),Mul(sr,Add(Add(Add({},{}),{}),{})))",
        term(0),
        term(1),
        term(2),
        term(3)
    );
    let dslash = plain_dslash_expr();
    let sig = KernelSignature::of(&dslash);
    assert_eq!(sig.float_type(), FloatType::F64);
    let ids: Vec<u64> = sig.leaves.iter().map(|l| l.id).collect();
    assert_eq!(ids, [5, 1, 2, 3, 4]);
    assert_eq!(sig.shifts.len(), 8);
    assert_eq!(sig.scalars, [(4.1, 0.0), (-0.5, 0.0)]);
    assert_eq!(sig.scalar_complex, [false, false]);

    let psi = |id| Expr::field(id, ElemKind::Fermion, FloatType::F64);
    let axpy = |s: Expr| {
        let scaled = Expr::Binary(BinaryOp::Mul, Box::new(s), Box::new(psi(9)));
        Expr::Binary(BinaryOp::Add, Box::new(psi(7)), Box::new(scaled))
    };
    let exprs = [
        ("dslash", dslash.clone(), Some(dslash_key)),
        ("relabeled dslash", relabeled(&dslash, 1000), None),
        (
            "axpy",
            axpy(Expr::complex(0.5, 0.25)),
            Some("Add(f0:Fermion:dp,Mul(sc,f1:Fermion:dp))".to_string()),
        ),
        ("real axpy", axpy(Expr::real(0.5)), None),
    ];
    let mut keys = Keys::<Vec<u32>>::default();
    for (what, e, literal) in &exprs {
        let mut want = String::new();
        reference_key(e, &mut Vec::new(), &mut want);
        if let Some(literal) = literal {
            assert_eq!(&want, literal, "{what}: reference rendering");
        }
        keys.add(what, &e.kernel_key(), &want);
    }
    assert_eq!(keys.by_text.len(), 3);
}
