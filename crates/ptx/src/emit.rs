//! Textual PTX emission (paper Fig. 2: the generator's output is a PTX
//! program handed to the driver JIT as text).
//!
//! Every piece is formatted straight into the one output `String`:
//! operands through the `Opnd` display adaptor, kernels through
//! `write_kernel`, with no intermediate string per operand, argument list
//! or kernel.

use crate::inst::{BinOp, Inst, Operand, UnOp};
use crate::module::{Kernel, Module};
use crate::types::{PtxType, RegClass};
use std::collections::BTreeSet;
use std::fmt::{self, Write};

/// Render a float immediate in PTX bit notation (`0f` / `0d` + hex bits).
pub fn float_imm(ty: PtxType, v: f64) -> String {
    Opnd(ty, &Operand::ImmF(v)).to_string()
}

/// An operand as it prints in an instruction of type `.0`: registers by
/// name, float immediates in `0f`/`0d` bit notation, integers in decimal.
struct Opnd<'a>(PtxType, &'a Operand);

impl fmt::Display for Opnd<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.0, self.1) {
            (_, Operand::Reg(r)) => r.fmt(f),
            (PtxType::F32, Operand::ImmF(v)) => write!(f, "0f{:08X}", (*v as f32).to_bits()),
            (PtxType::F64, Operand::ImmF(v)) => write!(f, "0d{:016X}", v.to_bits()),
            (_, Operand::ImmF(_)) => panic!("float immediate with non-float type"),
            (_, Operand::ImmI(v)) => v.fmt(f),
        }
    }
}

/// Bit-type suffix (`b32`/`b64`) for the width of `ty`.
fn bits_suffix(ty: PtxType) -> &'static str {
    if ty.size_bytes() == 8 {
        "b64"
    } else {
        "b32"
    }
}

/// `cvt` modifier per PTX rules: narrowing float→float and int→float take
/// `.rn`; float→int takes `.rzi`; everything else is plain.
fn cvt_modifier(dst: PtxType, src: PtxType) -> &'static str {
    if dst.is_float() && src.is_float() {
        if dst.size_bytes() < src.size_bytes() {
            ".rn"
        } else {
            ""
        }
    } else if dst.is_float() && src.is_int() {
        ".rn"
    } else if dst.is_int() && src.is_float() {
        ".rzi"
    } else {
        ""
    }
}

fn emit_inst(out: &mut String, inst: &Inst) {
    match inst {
        Inst::LdParam { ty, dst, param } => {
            let _ = writeln!(out, "\tld.param.{} {}, [{}];", ty.suffix(), dst, param);
        }
        Inst::LdGlobal {
            ty,
            dst,
            addr,
            offset,
        } => {
            if *offset == 0 {
                let _ = writeln!(out, "\tld.global.{} {}, [{}];", ty.suffix(), dst, addr);
            } else {
                let _ = writeln!(
                    out,
                    "\tld.global.{} {}, [{}+{}];",
                    ty.suffix(),
                    dst,
                    addr,
                    offset
                );
            }
        }
        Inst::StGlobal {
            ty,
            addr,
            offset,
            src,
        } => {
            let s = Opnd(*ty, src);
            if *offset == 0 {
                let _ = writeln!(out, "\tst.global.{} [{}], {};", ty.suffix(), addr, s);
            } else {
                let _ = writeln!(
                    out,
                    "\tst.global.{} [{}+{}], {};",
                    ty.suffix(),
                    addr,
                    offset,
                    s
                );
            }
        }
        Inst::Mov { ty, dst, src } => {
            let _ = writeln!(
                out,
                "\tmov.{} {}, {};",
                ty.suffix(),
                dst,
                Opnd(*ty, src)
            );
        }
        Inst::MovSpecial { dst, sreg } => {
            let _ = writeln!(out, "\tmov.u32 {}, {};", dst, sreg.name());
        }
        Inst::Cvt {
            dst_ty,
            src_ty,
            dst,
            src,
        } => {
            let _ = writeln!(
                out,
                "\tcvt{}.{}.{} {}, {};",
                cvt_modifier(*dst_ty, *src_ty),
                dst_ty.suffix(),
                src_ty.suffix(),
                dst,
                src
            );
        }
        Inst::Unary { op, ty, dst, src } => {
            let suffix = if matches!(op, UnOp::Not) {
                bits_suffix(*ty)
            } else {
                ty.suffix()
            };
            let _ = writeln!(
                out,
                "\t{}.{} {}, {};",
                op.mnemonic(),
                suffix,
                dst,
                Opnd(*ty, src)
            );
        }
        Inst::Binary { op, ty, dst, a, b } => {
            let (mnemonic, suffix) = if ty.is_float() {
                (op.mnemonic_float(), ty.suffix())
            } else {
                match op {
                    BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl => {
                        (op.mnemonic_int(), bits_suffix(*ty))
                    }
                    _ => (op.mnemonic_int(), ty.suffix()),
                }
            };
            let _ = writeln!(
                out,
                "\t{}.{} {}, {}, {};",
                mnemonic,
                suffix,
                dst,
                Opnd(*ty, a),
                Opnd(*ty, b)
            );
        }
        Inst::MulWide { src_ty, dst, a, b } => {
            let _ = writeln!(
                out,
                "\tmul.wide.{} {}, {}, {};",
                src_ty.suffix(),
                dst,
                a,
                Opnd(*src_ty, b)
            );
        }
        Inst::MadLo { ty, dst, a, b, c } => {
            let _ = writeln!(
                out,
                "\tmad.lo.{} {}, {}, {}, {};",
                ty.suffix(),
                dst,
                Opnd(*ty, a),
                Opnd(*ty, b),
                Opnd(*ty, c)
            );
        }
        Inst::Fma { ty, dst, a, b, c } => {
            let _ = writeln!(
                out,
                "\tfma.rn.{} {}, {}, {}, {};",
                ty.suffix(),
                dst,
                Opnd(*ty, a),
                Opnd(*ty, b),
                Opnd(*ty, c)
            );
        }
        Inst::Setp { cmp, ty, dst, a, b } => {
            let _ = writeln!(
                out,
                "\tsetp.{}.{} {}, {}, {};",
                cmp.name(),
                ty.suffix(),
                dst,
                Opnd(*ty, a),
                Opnd(*ty, b)
            );
        }
        Inst::Selp {
            ty,
            dst,
            a,
            b,
            pred,
        } => {
            let _ = writeln!(
                out,
                "\tselp.{} {}, {}, {}, {};",
                ty.suffix(),
                dst,
                Opnd(*ty, a),
                Opnd(*ty, b),
                pred
            );
        }
        Inst::Bra { target, pred } => match pred {
            None => {
                let _ = writeln!(out, "\tbra {};", target);
            }
            Some((p, false)) => {
                let _ = writeln!(out, "\t@{} bra {};", p, target);
            }
            Some((p, true)) => {
                let _ = writeln!(out, "\t@!{} bra {};", p, target);
            }
        },
        Inst::Label { name } => {
            let _ = writeln!(out, "{}:", name);
        }
        Inst::Call {
            func,
            ty,
            dst,
            args,
        } => {
            let _ = write!(
                out,
                "\tcall.uni ({}), {}_{}, (",
                dst,
                func.symbol(),
                ty.suffix()
            );
            for (i, a) in args.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{a}");
            }
            out.push_str(");\n");
        }
        Inst::Ret => {
            let _ = writeln!(out, "\tret;");
        }
    }
}

/// Math subroutines referenced by a kernel, as `(fn, precision)` pairs.
fn math_calls(kernel: &Kernel) -> BTreeSet<(String, usize, PtxType)> {
    let mut set = BTreeSet::new();
    for inst in &kernel.body {
        if let Inst::Call { func, ty, args, .. } = inst {
            set.insert((
                format!("{}_{}", func.symbol(), ty.suffix()),
                args.len(),
                *ty,
            ));
        }
    }
    set
}

/// Emit one kernel body (without module directives).
pub fn emit_kernel(kernel: &Kernel) -> String {
    let mut out = String::new();
    write_kernel(&mut out, kernel);
    out
}

fn write_kernel(out: &mut String, kernel: &Kernel) {
    let _ = write!(out, ".visible .entry {}(", kernel.name);
    for (i, p) in kernel.params.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(out, "{sep}\t.param .{} {}", p.ty.suffix(), p.name);
    }
    out.push_str("\n)\n{\n");
    for (i, class) in RegClass::all().iter().enumerate() {
        let n = kernel.reg_counts[i];
        if n > 0 {
            let _ = writeln!(
                out,
                "\t.reg {} {}<{}>;",
                class.decl_type(),
                class.prefix(),
                n
            );
        }
    }
    out.push('\n');
    for inst in &kernel.body {
        emit_inst(out, inst);
    }
    out.push_str("}\n");
}

/// Emit a full module as PTX text.
pub fn emit_module(module: &Module) -> String {
    let mut out = String::new();
    out.push_str("//\n// Generated by QDP-JIT/PTX (Rust reproduction)\n//\n");
    let _ = writeln!(out, ".version {}.{}", module.version.0, module.version.1);
    let _ = writeln!(out, ".target {}", module.target);
    out.push_str(".address_size 64\n\n");

    // Declarations for the pre-generated math subroutines (§III-D).
    let mut decls = BTreeSet::new();
    for k in &module.kernels {
        decls.extend(math_calls(k));
    }
    for (sym, arity, ty) in &decls {
        let _ = write!(out, ".extern .func (.param .{} ret) {} (", ty.suffix(), sym);
        for i in 0..*arity {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}.param .{} x{i}", ty.suffix());
        }
        out.push_str(");\n");
    }
    if !decls.is_empty() {
        out.push('\n');
    }

    for k in &module.kernels {
        write_kernel(&mut out, k);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{CmpOp, MathFn, SpecialReg};
    use crate::module::KernelBuilder;
    use crate::types::Reg;

    #[test]
    fn float_imm_encoding() {
        assert_eq!(float_imm(PtxType::F32, 1.0), "0f3F800000");
        assert_eq!(float_imm(PtxType::F64, 1.0), "0d3FF0000000000000");
        assert_eq!(float_imm(PtxType::F64, -2.0), "0dC000000000000000");
    }

    #[test]
    fn cvt_modifiers() {
        assert_eq!(cvt_modifier(PtxType::F32, PtxType::F64), ".rn");
        assert_eq!(cvt_modifier(PtxType::F64, PtxType::F32), "");
        assert_eq!(cvt_modifier(PtxType::F64, PtxType::S32), ".rn");
        assert_eq!(cvt_modifier(PtxType::S32, PtxType::F32), ".rzi");
        assert_eq!(cvt_modifier(PtxType::U64, PtxType::U32), "");
    }

    #[test]
    fn kernel_text_shape() {
        let mut b = KernelBuilder::new("test_kernel");
        let pn = b.param("n", PtxType::U32);
        let tid = b.global_tid();
        let n = b.ld_param(&pn, PtxType::U32);
        let exit = b.guard(tid, n);
        b.bind_label(&exit);
        let k = b.finish();
        let text = emit_kernel(&k);
        assert!(text.contains(".visible .entry test_kernel("));
        assert!(text.contains(".param .u32 n"));
        assert!(text.contains("mov.u32 %r0, %ctaid.x;"));
        assert!(text.contains("mad.lo.u32"));
        assert!(text.contains("setp.ge.u32"));
        assert!(text.contains("bra $exit_0;"));
        assert!(text.contains("$exit_0:"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn module_directives() {
        let m = Module::new();
        let text = emit_module(&m);
        assert!(text.contains(".version 3.1"));
        assert!(text.contains(".target sm_35"));
        assert!(text.contains(".address_size 64"));
    }

    #[test]
    fn call_emits_extern_decl() {
        let mut b = KernelBuilder::new("mathy");
        let x = b.fresh(RegClass::F64);
        b.push(Inst::Mov {
            ty: PtxType::F64,
            dst: x,
            src: Operand::ImmF(0.5),
        });
        let y = b.fresh(RegClass::F64);
        b.push(Inst::Call {
            func: MathFn::Sin,
            ty: PtxType::F64,
            dst: y,
            args: vec![x],
        });
        let m = Module::with_kernel(b.finish());
        let text = emit_module(&m);
        assert!(text.contains(".extern .func (.param .f64 ret) qdpjit_sin_f64 (.param .f64 x0);"));
        assert!(text.contains("call.uni (%fd1), qdpjit_sin_f64, (%fd0);"));
    }

    #[test]
    fn predicated_branch_forms() {
        let mut s = String::new();
        let p = Reg::new(RegClass::Pred, 2);
        emit_inst(
            &mut s,
            &Inst::Bra {
                target: "$L".into(),
                pred: Some((p, true)),
            },
        );
        assert_eq!(s, "\t@!%p2 bra $L;\n");
    }

    #[test]
    fn setp_and_selp_text() {
        let mut s = String::new();
        emit_inst(
            &mut s,
            &Inst::Setp {
                cmp: CmpOp::Lt,
                ty: PtxType::S32,
                dst: Reg::new(RegClass::Pred, 0),
                a: Reg::new(RegClass::B32, 1).into(),
                b: Operand::ImmI(7),
            },
        );
        assert_eq!(s, "\tsetp.lt.s32 %p0, %r1, 7;\n");
        s.clear();
        emit_inst(
            &mut s,
            &Inst::Selp {
                ty: PtxType::U64,
                dst: Reg::new(RegClass::B64, 3),
                a: Reg::new(RegClass::B64, 1).into(),
                b: Reg::new(RegClass::B64, 2).into(),
                pred: Reg::new(RegClass::Pred, 0),
            },
        );
        assert_eq!(s, "\tselp.u64 %rd3, %rd1, %rd2, %p0;\n");
    }

    #[test]
    fn special_regs_text() {
        let mut s = String::new();
        emit_inst(
            &mut s,
            &Inst::MovSpecial {
                dst: Reg::new(RegClass::B32, 9),
                sreg: SpecialReg::NctaidX,
            },
        );
        assert_eq!(s, "\tmov.u32 %r9, %nctaid.x;\n");
    }
}
