//! The code generator prints the program that runs: at `OptLevel::Default`
//! its text is final. For the golden snapshots and for random DAGs from the
//! conformance generator — single statements over random subsets, fused
//! statement groups, and those groups followed by a reduction over a random
//! subset, in both layouts and both precisions — every kernel
//!
//! * comes back byte for byte from parse → `optimize_module` → emit, and
//! * holds no two pure integer instructions with the same opcode, type and
//!   operands (address arithmetic is computed once per kernel).
//!
//! A launch lowers the kernel the generator built, never its text: every
//! random kernel, as built, is also the kernel its printed text parses
//! back to, and that text is what `codegen_fused_ptx` prints (the goldens'
//! half is `golden_ptx.rs`).

use qdp_conformance::{gen_stmt_sequence, gen_typed_expr, random_target_kind, Fixture};
use qdp_core::{codegen_fused_kernel, codegen_fused_ptx, OptLevel, QdpContext};
use qdp_expr::{Expr, UnaryOp};
use qdp_layout::{LayoutKind, Subset};
use qdp_proptest::Gen;
use qdp_ptx::emit::emit_module;
use qdp_ptx::module::{Kernel, Module};
use qdp_ptx::opt::optimize_module;
use qdp_ptx::parse::parse_module;
use qdp_types::FloatType;
use std::collections::HashSet;

/// Random DAGs per precision (each also yields a fused group).
const CASES: u64 = 200;

/// The opcodes whose value is a pure function of integer operands.
const PURE_INT: [&str; 11] = [
    "add.u32", "add.u64", "and.b32", "shr.u32", "mul.wide.u32", "mad.lo.u32", "setp.ge.u32",
    "setp.ne.u32", "selp.u32", "selp.u64", "mov.u32",
];

fn check_final(what: &str, ptx: &str) {
    let mut module = parse_module(ptx).unwrap_or_else(|e| panic!("{what}: {e}"));
    optimize_module(&mut module, OptLevel::Default);
    assert!(
        emit_module(&module) == ptx,
        "{what}: the sweep rewrote the generator's output:\n{ptx}"
    );
    let mut seen = HashSet::new();
    for line in ptx.lines() {
        let Some((op, rest)) = line.trim().split_once(' ') else {
            continue;
        };
        if PURE_INT.contains(&op) {
            let operands = rest.split_once(", ").map_or(rest, |(_, operands)| operands);
            assert!(
                seen.insert((op, operands)),
                "{what}: `{op} _, {operands}` is computed twice:\n{ptx}"
            );
        }
    }
}

/// Print `kernel` and require the text to parse back to it; returns the
/// text.
fn check_reprints(what: &str, kernel: Kernel) -> String {
    let module = Module::with_kernel(kernel);
    let ptx = emit_module(&module);
    let parsed = parse_module(&ptx).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(
        parsed == module,
        "{what}: the built kernel is not the one its text parses to:\n{ptx}"
    );
    ptx
}

#[test]
fn golden_snapshots_are_final() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/snapshots");
    let mut n = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "ptx") {
            check_final(&path.display().to_string(), &std::fs::read_to_string(&path).unwrap());
            n += 1;
        }
    }
    assert_eq!(n, 8, "golden snapshots in {}", dir.display());
}

#[test]
fn generated_kernels_are_final() {
    for ft in [FloatType::F32, FloatType::F64] {
        // The fixture supplies the fields and DAGs; the kernels render on
        // contexts fixed at the default level, whatever `QDP_OPT` says.
        let fx = Fixture::normal(ft, 3);
        let contexts = [LayoutKind::SoA, LayoutKind::AoS].map(|layout| {
            QdpContext::builder(Fixture::geometry())
                .layout(layout)
                .opt_level(OptLevel::Default)
                .build()
        });
        for case in 0..CASES {
            let mut g = Gen::from_case_seed(case, 1.0);
            let kind = random_target_kind(&mut g);
            let depth = g.depth(4);
            let expr = gen_typed_expr(&mut g, &fx, kind, depth);
            let subset = [Subset::All, Subset::Even, Subset::Odd][g.usize_in(0..3)];
            let target = fx.fresh_target(kind);
            let (stmts, _) = gen_stmt_sequence(&mut g, &fx, 4);
            let norm2 = Expr::Unary(UnaryOp::LocalNorm2, Box::new(expr.clone()));
            for ctx in &contexts {
                let what = format!("{ft:?} {:?} case {case}", ctx.layout());
                let single = [(target, expr.clone())];
                let built = codegen_fused_kernel(ctx, &single, &[], subset, "k").unwrap();
                let ptx = check_reprints(&what, built);
                assert!(ptx == codegen_fused_ptx(ctx, &single, &[], subset, "k").unwrap());
                check_final(&what, &ptx);
                let fused = codegen_fused_kernel(ctx, &stmts, &[], Subset::All, "k").unwrap();
                let fused = check_reprints(&format!("{what}, fused"), fused);
                assert!(fused == codegen_fused_ptx(ctx, &stmts, &[], Subset::All, "k").unwrap());
                check_final(&format!("{what}, fused"), &fused);
                let norm2 = std::slice::from_ref(&norm2);
                let reduced = codegen_fused_kernel(ctx, &stmts, norm2, subset, "k").unwrap();
                let reduced = check_reprints(&format!("{what}, reduced"), reduced);
                check_final(&format!("{what}, reduced"), &reduced);
            }
            fx.release(target);
            let mut released = HashSet::new();
            for (t, _) in &stmts {
                if released.insert(t.id) {
                    fx.release(*t);
                }
            }
        }
    }
}
