//! The kernel identity derived by `qdp_expr::KernelSignature`: K = 1 keys
//! are pinned byte for byte, K ≥ 2 keys number leaves in the group's table.

use qdp_expr::{BinaryOp, Expr, KernelSignature, ShiftDir, UnaryOp};
use qdp_types::{ElemKind, FloatType, Gamma};

fn u(id: u64) -> Expr {
    Expr::field(id, ElemKind::ColorMatrix, FloatType::F64)
}
fn psi(id: u64) -> Expr {
    Expr::field(id, ElemKind::Fermion, FloatType::F64)
}

/// `(m+4)·ψ − ½ Σ_µ [(1−γ_µ) U_µ ψ(x+µ) + (1+γ_µ) (U_µ† ψ)(x−µ)]` — the
/// Wilson-dslash DAG as chroma-mini builds it (U_µ = fields 1..=4, ψ = 5).
fn wilson_dslash_expr() -> Expr {
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
        let fwd = bin(BinaryOp::Mul, link.clone(), sh(mu, ShiftDir::Forward, psi(5)));
        let bwd = sh(
            mu,
            ShiftDir::Backward,
            bin(BinaryOp::Mul, Expr::Unary(UnaryOp::Adj, Box::new(link)), psi(5)),
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
        bin(BinaryOp::Mul, Expr::real(4.1), psi(5)),
        bin(BinaryOp::Mul, Expr::real(-0.5), hop.unwrap()),
    )
}

/// K = 1 keys are the cache (and persistent-store) identity of every
/// per-expression kernel: the group walk must reproduce, byte for byte,
/// the strings the per-expression walker produced before it.
#[test]
fn single_statement_group_keys_are_pinned() {
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
    let dslash = wilson_dslash_expr();
    let sig = KernelSignature::of(&dslash);
    let mut key = String::new();
    sig.write_key(|slot| slot, &mut key);
    assert_eq!(sig.float_type(), FloatType::F64);
    assert_eq!(key, dslash_key);
    assert_eq!(dslash.kernel_key(), dslash_key);
    let ids: Vec<u64> = sig.leaves.iter().map(|l| l.id).collect();
    assert_eq!(ids, [5, 1, 2, 3, 4]);
    assert_eq!(sig.shifts.len(), 8);
    assert_eq!(sig.scalars, [(4.1, 0.0), (-0.5, 0.0)]);
    assert_eq!(sig.scalar_complex, [false, false]);

    let axpy = Expr::Binary(
        BinaryOp::Add,
        Box::new(psi(7)),
        Box::new(Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::complex(0.5, 0.25)),
            Box::new(psi(9)),
        )),
    );
    assert_eq!(axpy.kernel_key(), "Add(f0:Fermion:dp,Mul(sc,f1:Fermion:dp))");
}

/// In a group, leaves are numbered in the group's leaf table: the
/// second statement's key says *which* earlier leaf it reads.
#[test]
fn group_keys_number_leaves_in_the_group_table() {
    let sum = Expr::Binary(BinaryOp::Add, Box::new(u(1)), Box::new(u(2)));
    let twice = |id| Expr::Binary(BinaryOp::Mul, Box::new(Expr::real(2.0)), Box::new(u(id)));
    let group = |second: &Expr| {
        let mut sig = KernelSignature::default();
        let keys = [&sum, second].map(|e| {
            let stmt = KernelSignature::of(e);
            let map = sig.append(&stmt);
            let mut key = String::new();
            stmt.write_key(|slot| map[slot as usize], &mut key);
            key
        });
        (sig, keys)
    };
    let (sig_a, keys_a) = group(&twice(1));
    let (sig_b, keys_b) = group(&twice(2));
    assert_eq!(keys_a[0], keys_b[0]);
    assert_eq!(keys_a[1], "Mul(sr,f0:ColorMatrix:dp)");
    assert_eq!(keys_b[1], "Mul(sr,f1:ColorMatrix:dp)");
    assert_eq!(sig_a.leaves, sig_b.leaves);
    assert_eq!(sig_a.leaves.len(), 2);
    // Alone, both second statements are the same kernel.
    assert_eq!(twice(1).kernel_key(), twice(2).kernel_key());
}
