//! Textual PTX emission (paper Fig. 2: the generator's output is a PTX
//! program handed to the driver JIT as text).
//!
//! Every piece is formatted straight into the one output `String`:
//! operands through the `Opnd` display adaptor, kernels through
//! `write_kernel`, with no intermediate string per operand, argument list
//! or kernel.

use crate::inst::{BinOp, Inst, Operand};
use crate::module::{Kernel, Module};
use crate::types::{PtxType, RegClass};
use std::fmt::{self, Write};

/// Render a float immediate in PTX bit notation (`0f` / `0d` + hex bits).
pub fn float_imm(ty: PtxType, v: f64) -> String {
    Opnd(ty, &Operand::ImmF(v)).to_string()
}

/// An operand as it prints in an instruction of type `.0`: registers by
/// name, float immediates in `0f` bit notation in an `f32` instruction and
/// `0d` otherwise, integers in decimal.
struct Opnd<'a>(PtxType, &'a Operand);

impl fmt::Display for Opnd<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.0, self.1) {
            (_, Operand::Reg(r)) => r.fmt(f),
            (PtxType::F32, Operand::ImmF(v)) => write!(f, "0f{:08X}", (*v as f32).to_bits()),
            (_, Operand::ImmF(v)) => write!(f, "0d{:016X}", v.to_bits()),
            (_, Operand::ImmI(v)) => v.fmt(f),
        }
    }
}

/// The type suffix of a bitwise op: `b32`/`b64` for the unsigned types,
/// the plain suffix otherwise (the inverse of the parser's reading).
fn bits_suffix(ty: PtxType) -> &'static str {
    match ty {
        PtxType::U32 => "b32",
        PtxType::U64 => "b64",
        other => other.suffix(),
    }
}

/// `cvt` modifier: a narrowing conversion rounds to nearest (`.rn`); a
/// widening one is exact and plain.
fn cvt_modifier(dst: PtxType, src: PtxType) -> &'static str {
    if dst.size_bytes() < src.size_bytes() {
        ".rn"
    } else {
        ""
    }
}

/// One instruction's text without its indent or newline, for diagnostics.
pub(crate) fn inst_text(inst: &Inst) -> String {
    let mut out = String::new();
    emit_inst(&mut out, inst);
    out.trim().to_string()
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
        Inst::Neg { ty, dst, src } => {
            let _ = writeln!(out, "\tneg.{} {}, {};", ty.suffix(), dst, Opnd(*ty, src));
        }
        Inst::Binary { op, ty, dst, a, b } => {
            let suffix = match op {
                BinOp::And => bits_suffix(*ty),
                _ => ty.suffix(),
            };
            let _ = writeln!(
                out,
                "\t{}.{} {}, {}, {};",
                op.mnemonic(*ty),
                suffix,
                dst,
                Opnd(*ty, a),
                Opnd(*ty, b)
            );
        }
        Inst::MulWide { dst, a, b } => {
            let b = Opnd(PtxType::U32, b);
            let _ = writeln!(out, "\tmul.wide.u32 {}, {}, {};", dst, a, b);
        }
        Inst::MadLo { dst, a, b, c } => {
            let [a, b, c] = [a, b, c].map(|o| Opnd(PtxType::U32, o));
            let _ = writeln!(out, "\tmad.lo.u32 {}, {}, {}, {};", dst, a, b, c);
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
        Inst::Shfl {
            dst,
            src,
            lane_mask,
        } => {
            let _ = writeln!(
                out,
                "\tshfl.bfly.b32 {}, {}, {}, 0x1f;",
                dst, src, lane_mask
            );
        }
        Inst::Unpack { lo, hi, src } => {
            let _ = writeln!(out, "\tmov.b64 {{{}, {}}}, {};", lo, hi, src);
        }
        Inst::Pack { dst, lo, hi } => {
            let _ = writeln!(out, "\tmov.b64 {}, {{{}, {}}};", dst, lo, hi);
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
        Inst::Ret => {
            let _ = writeln!(out, "\tret;");
        }
    }
}

/// Emit one kernel body (without module directives).
#[cfg(test)]
fn emit_kernel(kernel: &Kernel) -> String {
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
    for k in &module.kernels {
        write_kernel(&mut out, k);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{CmpOp, SpecialReg};
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
                cmp: CmpOp::Ge,
                ty: PtxType::U32,
                dst: Reg::new(RegClass::Pred, 0),
                a: Reg::new(RegClass::B32, 1).into(),
                b: Operand::ImmI(7),
            },
        );
        assert_eq!(s, "\tsetp.ge.u32 %p0, %r1, 7;\n");
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
    fn shuffle_and_halves_text() {
        let [r1, r2, r3] = [1, 2, 3].map(|i| Reg::new(RegClass::B32, i));
        let fd = Reg::new(RegClass::F64, 4);
        let mut s = String::new();
        emit_inst(
            &mut s,
            &Inst::Unpack {
                lo: r1,
                hi: r2,
                src: fd,
            },
        );
        emit_inst(
            &mut s,
            &Inst::Shfl {
                dst: r3,
                src: r1,
                lane_mask: 16,
            },
        );
        emit_inst(
            &mut s,
            &Inst::Pack {
                dst: fd,
                lo: r3,
                hi: r2,
            },
        );
        emit_inst(
            &mut s,
            &Inst::Binary {
                op: BinOp::Shr,
                ty: PtxType::U32,
                dst: r1,
                a: r2.into(),
                b: Operand::ImmI(5),
            },
        );
        assert_eq!(
            s,
            "\tmov.b64 {%r1, %r2}, %fd4;\n\tshfl.bfly.b32 %r3, %r1, 16, 0x1f;\n\
             \tmov.b64 %fd4, {%r3, %r2};\n\tshr.u32 %r1, %r2, 5;\n"
        );
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
