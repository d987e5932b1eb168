//! Property tests: PTX emission and parsing are exact inverses for any
//! kernel of the generator's dialect (the generate → print → parse chain the
//! JIT relies on must be lossless). Runs on the in-tree `qdp-proptest`
//! harness: a failing kernel shrinks by re-deriving with fewer steps.

use qdp_proptest::{check, prop_assert_eq, Config, Gen};
use qdp_ptx::emit::emit_module;
use qdp_ptx::inst::{BinOp, CmpOp, Inst, Operand};
use qdp_ptx::module::{KernelBuilder, Module};
use qdp_ptx::parse::parse_module;
use qdp_ptx::types::{PtxType, RegClass};

/// One random instruction of the generator's dialect appended through the
/// builder, using only registers that already exist (tracked in `pools`).
#[derive(Debug, Clone)]
enum Step {
    FloatBin(u8, bool, u8, u8), // op, dp, a, b indices
    Neg(bool, u8),
    IntBin(u8, u8, u8),
    Fma(bool, u8, u8, u8),
    Cvt(bool, u8),      // f32<->f64
    MovImmF(bool, i32), // value as small int
    MovImmI(i64),
    Setp(u8, u8, u8),
    Selp(bool, u8, u8),
    LoadStore(bool, u8, i8), // dp, value idx, offset16
    Address(u8, u8, u8),     // site idx, component, element size
}

fn gen_step(g: &mut Gen) -> Step {
    match g.usize_in(0..11) {
        0 => Step::FloatBin(g.u8_in(0..3), g.any_bool(), g.any_u8(), g.any_u8()),
        1 => Step::Neg(g.any_bool(), g.any_u8()),
        2 => Step::IntBin(g.u8_in(0..2), g.any_u8(), g.any_u8()),
        3 => Step::Fma(g.any_bool(), g.any_u8(), g.any_u8(), g.any_u8()),
        4 => Step::Cvt(g.any_bool(), g.any_u8()),
        5 => Step::MovImmF(g.any_bool(), g.i32_in(-1000..1000)),
        6 => Step::MovImmI(g.any_i64()),
        7 => Step::Setp(g.u8_in(0..2), g.any_u8(), g.any_u8()),
        8 => Step::Selp(g.any_bool(), g.any_u8(), g.any_u8()),
        9 => Step::LoadStore(g.any_bool(), g.any_u8(), g.any_i64() as i8),
        _ => Step::Address(g.any_u8(), g.any_u8(), g.u8_in(0..2)),
    }
}

fn gen_steps(g: &mut Gen, max: usize) -> Vec<Step> {
    g.vec_of(0..max, gen_step)
}

fn build_kernel(steps: &[Step]) -> Module {
    let mut b = KernelBuilder::new("prop_kernel");
    let p_ptr = b.param("ptr", PtxType::U64);
    let p_n = b.param("n", PtxType::U32);
    let tid = b.global_tid();
    let n = b.ld_param(&p_n, PtxType::U32);
    let exit = b.guard(tid, n);
    let base = b.ld_param(&p_ptr, PtxType::U64);

    // live value pools per class
    let mut f32s = vec![b.mov(PtxType::F32, Operand::ImmF(1.5))];
    let mut f64s = vec![b.mov(PtxType::F64, Operand::ImmF(2.5))];
    let mut i32s = vec![tid, n];
    let mut preds = vec![];
    let pick = |v: &Vec<qdp_ptx::types::Reg>, i: u8| v[i as usize % v.len()];

    for s in steps {
        match s {
            Step::FloatBin(o, dp, ai, bi) => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][*o as usize % 3];
                let (ty, pool) = if *dp {
                    (PtxType::F64, &mut f64s)
                } else {
                    (PtxType::F32, &mut f32s)
                };
                let a = pool[*ai as usize % pool.len()];
                let bb = pool[*bi as usize % pool.len()];
                let r = b.bin(op, ty, a.into(), bb.into());
                pool.push(r);
            }
            Step::Neg(dp, ai) => {
                let (ty, pool) = if *dp {
                    (PtxType::F64, &mut f64s)
                } else {
                    (PtxType::F32, &mut f32s)
                };
                let a = pool[*ai as usize % pool.len()];
                let dst = b.fresh_for(ty);
                b.push(Inst::Neg {
                    ty,
                    dst,
                    src: a.into(),
                });
                pool.push(dst);
            }
            Step::IntBin(o, ai, bi) => {
                let op = [BinOp::Add, BinOp::And][*o as usize % 2];
                let a = pick(&i32s, *ai);
                let bb = pick(&i32s, *bi);
                let r = b.bin(op, PtxType::U32, a.into(), bb.into());
                i32s.push(r);
            }
            Step::Fma(dp, ai, bi, ci) => {
                let (ty, pool) = if *dp {
                    (PtxType::F64, &mut f64s)
                } else {
                    (PtxType::F32, &mut f32s)
                };
                let (a, bb, c) = (
                    pool[*ai as usize % pool.len()],
                    pool[*bi as usize % pool.len()],
                    pool[*ci as usize % pool.len()],
                );
                let r = b.fma(ty, a.into(), bb.into(), c.into());
                pool.push(r);
            }
            Step::Cvt(to_dp, ai) => {
                if *to_dp {
                    let a = pick(&f32s, *ai);
                    let r = b.cvt(PtxType::F64, PtxType::F32, a);
                    f64s.push(r);
                } else {
                    let a = pick(&f64s, *ai);
                    let r = b.cvt(PtxType::F32, PtxType::F64, a);
                    f32s.push(r);
                }
            }
            Step::MovImmF(dp, v) => {
                let ty = if *dp { PtxType::F64 } else { PtxType::F32 };
                let r = b.mov(ty, Operand::ImmF(*v as f64 / 8.0));
                if *dp {
                    f64s.push(r)
                } else {
                    f32s.push(r)
                }
            }
            Step::MovImmI(v) => {
                let r = b.mov(PtxType::U32, Operand::ImmI((*v as u32) as i64));
                i32s.push(r);
            }
            Step::Setp(c, ai, bi) => {
                let cmp = [CmpOp::Ne, CmpOp::Ge][*c as usize % 2];
                let a = pick(&i32s, *ai);
                let bb = pick(&i32s, *bi);
                let dst = b.fresh(RegClass::Pred);
                b.push(Inst::Setp {
                    cmp,
                    ty: PtxType::U32,
                    dst,
                    a: a.into(),
                    b: bb.into(),
                });
                preds.push(dst);
            }
            Step::Selp(dp, ai, bi) => {
                if preds.is_empty() {
                    continue;
                }
                let (ty, pool) = if *dp {
                    (PtxType::F64, &mut f64s)
                } else {
                    (PtxType::F32, &mut f32s)
                };
                let a = pool[*ai as usize % pool.len()];
                let bb = pool[*bi as usize % pool.len()];
                let dst = b.fresh_for(ty);
                b.push(Inst::Selp {
                    ty,
                    dst,
                    a: a.into(),
                    b: bb.into(),
                    pred: preds[preds.len() - 1],
                });
                pool.push(dst);
            }
            Step::LoadStore(dp, vi, off) => {
                let ty = if *dp { PtxType::F64 } else { PtxType::F32 };
                let v = if *dp { pick(&f64s, *vi) } else { pick(&f32s, *vi) };
                b.push(Inst::StGlobal {
                    ty,
                    addr: base,
                    offset: *off as i64 * 8,
                    src: v.into(),
                });
                let dst = b.fresh_for(ty);
                b.push(Inst::LdGlobal {
                    ty,
                    dst,
                    addr: base,
                    offset: *off as i64 * 8,
                });
                if *dp {
                    f64s.push(dst)
                } else {
                    f32s.push(dst)
                }
            }
            Step::Address(si, comp, esize) => {
                // The generator's address chain: `mad.lo.u32` (AoS element),
                // `mul.wide.u32` (bytes) and `add.u64` (pointer).
                let site = pick(&i32s, *si);
                let elem = b.fresh(RegClass::B32);
                b.push(Inst::MadLo {
                    dst: elem,
                    a: site.into(),
                    b: Operand::ImmI(24),
                    c: Operand::ImmI(i64::from(*comp)),
                });
                let off = b.fresh(RegClass::B64);
                b.push(Inst::MulWide {
                    dst: off,
                    a: elem,
                    b: Operand::ImmI([4, 8][*esize as usize % 2]),
                });
                b.bin(BinOp::Add, PtxType::U64, base.into(), off.into());
                i32s.push(elem);
            }
        }
    }
    b.bind_label(&exit);
    Module::with_kernel(b.finish())
}

/// emit → parse recovers the exact IR.
#[test]
fn emit_parse_roundtrip() {
    check("emit_parse_roundtrip", Config::cases(64), |g| {
        let steps = gen_steps(g, 60);
        let module = build_kernel(&steps);
        module.validate().unwrap();
        let text = emit_module(&module);
        let parsed = parse_module(&text).expect("parse emitted PTX");
        prop_assert_eq!(parsed, module);
        Ok(())
    });
}

/// emit ∘ parse ∘ emit is idempotent on text.
#[test]
fn text_idempotence() {
    check("text_idempotence", Config::cases(64), |g| {
        let steps = gen_steps(g, 40);
        let module = build_kernel(&steps);
        let t1 = emit_module(&module);
        let t2 = emit_module(&parse_module(&t1).unwrap());
        prop_assert_eq!(t1, t2);
        Ok(())
    });
}

/// Parsed kernels survive the JIT resource accounting: register counts
/// from the builder match what the text declares.
#[test]
fn reg_counts_preserved() {
    check("reg_counts_preserved", Config::cases(64), |g| {
        let steps = gen_steps(g, 40);
        let module = build_kernel(&steps);
        let text = emit_module(&module);
        let parsed = parse_module(&text).unwrap();
        prop_assert_eq!(parsed.kernels[0].reg_counts, module.kernels[0].reg_counts);
        prop_assert_eq!(
            parsed.kernels[0].thread_bytes(),
            module.kernels[0].thread_bytes()
        );
        prop_assert_eq!(
            parsed.kernels[0].thread_flops(),
            module.kernels[0].thread_flops()
        );
        Ok(())
    });
}
