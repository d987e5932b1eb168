//! The PTX instruction set emitted by the code generator.

use crate::types::{PtxType, Reg};

/// An instruction operand: a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// Floating-point immediate (stored as f64; emitted in the
    /// instruction's type).
    ImmF(f64),
    /// Integer immediate.
    ImmI(i64),
}

impl Operand {
    /// The floating-point immediate `v` of an instruction of type `ty`,
    /// holding the value its text carries: an `f32` instruction's immediate
    /// is rounded to `f32` here, so a kernel built in memory is the kernel
    /// its printed text parses back to.
    pub fn imm_f(ty: PtxType, v: f64) -> Operand {
        Operand::ImmF(match ty {
            PtxType::F32 => v as f32 as f64,
            _ => v,
        })
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

/// Special (read-only) registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// `%tid.x` — thread index within the block.
    TidX,
    /// `%ntid.x` — block dimension.
    NtidX,
    /// `%ctaid.x` — block index within the grid.
    CtaidX,
    /// `%nctaid.x` — grid dimension.
    NctaidX,
}

impl SpecialReg {
    /// PTX spelling.
    pub fn name(self) -> &'static str {
        match self {
            SpecialReg::TidX => "%tid.x",
            SpecialReg::NtidX => "%ntid.x",
            SpecialReg::CtaidX => "%ctaid.x",
            SpecialReg::NctaidX => "%nctaid.x",
        }
    }

    /// Parse a PTX spelling.
    pub fn from_name(s: &str) -> Option<SpecialReg> {
        Some(match s {
            "%tid.x" => SpecialReg::TidX,
            "%ntid.x" => SpecialReg::NtidX,
            "%ctaid.x" => SpecialReg::CtaidX,
            "%nctaid.x" => SpecialReg::NctaidX,
            _ => return None,
        })
    }
}

/// Binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `add` (floats, `u32`, `u64`)
    Add,
    /// `sub` (floats)
    Sub,
    /// `mul` (floats; an integer type prints as `mul.lo`)
    Mul,
    /// `and.b32`
    And,
    /// `shr.u32` (logical; a shift by 32 or more gives 0)
    Shr,
}

impl BinOp {
    /// PTX mnemonic for an operation of type `ty`.
    pub fn mnemonic(self, ty: PtxType) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul if ty.is_float() => "mul",
            BinOp::Mul => "mul.lo",
            BinOp::And => "and",
            BinOp::Shr => "shr",
        }
    }
}

/// Comparison operators for `setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// not equal
    Ne,
    /// greater or equal
    Ge,
}

impl CmpOp {
    /// PTX spelling.
    pub fn name(self) -> &'static str {
        match self {
            CmpOp::Ne => "ne",
            CmpOp::Ge => "ge",
        }
    }

    /// Parse a PTX spelling.
    pub fn from_name(s: &str) -> Option<CmpOp> {
        Some(match s {
            "ne" => CmpOp::Ne,
            "ge" => CmpOp::Ge,
            _ => return None,
        })
    }
}

/// One PTX instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `ld.param.<ty> dst, [param];`
    LdParam {
        /// Value type.
        ty: PtxType,
        /// Destination register.
        dst: Reg,
        /// Parameter name.
        param: String,
    },
    /// `ld.global.<ty> dst, [addr+offset];`
    LdGlobal {
        /// Value type.
        ty: PtxType,
        /// Destination register.
        dst: Reg,
        /// Address register (byte address, 64-bit).
        addr: Reg,
        /// Constant byte offset.
        offset: i64,
    },
    /// `st.global.<ty> [addr+offset], src;`
    StGlobal {
        /// Value type.
        ty: PtxType,
        /// Address register (byte address, 64-bit).
        addr: Reg,
        /// Constant byte offset.
        offset: i64,
        /// Value to store.
        src: Operand,
    },
    /// `mov.<ty> dst, src;`
    Mov {
        /// Value type.
        ty: PtxType,
        /// Destination.
        dst: Reg,
        /// Source.
        src: Operand,
    },
    /// `mov.u32 dst, %tid.x;` — read a special register.
    MovSpecial {
        /// Destination (32-bit).
        dst: Reg,
        /// Which special register.
        sreg: SpecialReg,
    },
    /// `cvt[.rn].<dst_ty>.<src_ty> dst, src;` — f32 ↔ f64.
    Cvt {
        /// Destination type.
        dst_ty: PtxType,
        /// Source type.
        src_ty: PtxType,
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `neg.<ty> dst, src;` (floats).
    Neg {
        /// Value type.
        ty: PtxType,
        /// Destination.
        dst: Reg,
        /// Source.
        src: Operand,
    },
    /// Binary arithmetic and the `and.b32` mask.
    Binary {
        /// Operation.
        op: BinOp,
        /// Value type.
        ty: PtxType,
        /// Destination.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `mul.wide.u32 dst(64-bit), a(32-bit), b;`
    MulWide {
        /// 64-bit destination.
        dst: Reg,
        /// 32-bit left operand.
        a: Reg,
        /// Right operand (32-bit register or immediate).
        b: Operand,
    },
    /// `mad.lo.u32 dst, a, b, c;` — `dst = a*b + c`, low 32 bits.
    MadLo {
        /// Destination.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// `fma.rn.<ty> dst, a, b, c;` — fused multiply-add (floats).
    Fma {
        /// Value type (f32/f64).
        ty: PtxType,
        /// Destination.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// `setp.<cmp>.<ty> dst, a, b;`
    Setp {
        /// Comparison.
        cmp: CmpOp,
        /// Operand type.
        ty: PtxType,
        /// Predicate destination.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `selp.<ty> dst, a, b, pred;` — `dst = pred ? a : b`.
    Selp {
        /// Value type.
        ty: PtxType,
        /// Destination.
        dst: Reg,
        /// Value if true.
        a: Operand,
        /// Value if false.
        b: Operand,
        /// Selector predicate.
        pred: Reg,
    },
    /// `shfl.bfly.b32 dst, src, lane_mask, 0x1f;` — each lane of a warp
    /// reads `src` from the lane whose index is its own XOR `lane_mask`
    /// (a lane whose partner is not active reads its own `src`).
    Shfl {
        /// 32-bit destination.
        dst: Reg,
        /// 32-bit source.
        src: Reg,
        /// The butterfly's lane mask, below 32.
        lane_mask: u32,
    },
    /// `mov.b64 {lo, hi}, src;` — split an `f64` into its two 32-bit halves.
    Unpack {
        /// Low half (32-bit).
        lo: Reg,
        /// High half (32-bit).
        hi: Reg,
        /// The `f64` register.
        src: Reg,
    },
    /// `mov.b64 dst, {lo, hi};` — join two 32-bit halves into an `f64`.
    Pack {
        /// The `f64` register.
        dst: Reg,
        /// Low half (32-bit).
        lo: Reg,
        /// High half (32-bit).
        hi: Reg,
    },
    /// `[@[!]pred] bra target;`
    Bra {
        /// Branch target label.
        target: String,
        /// Optional guard predicate `(reg, negated)`.
        pred: Option<(Reg, bool)>,
    },
    /// `target:` — a label.
    Label {
        /// Label name.
        name: String,
    },
    /// `ret;`
    Ret,
}

impl Inst {
    /// Registers this instruction writes (for validation / liveness): one,
    /// or none, but two for the halves of an [`Inst::Unpack`].
    pub fn def_regs(&self) -> impl Iterator<Item = Reg> {
        let defs = match self {
            Inst::LdParam { dst, .. }
            | Inst::LdGlobal { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::MovSpecial { dst, .. }
            | Inst::Cvt { dst, .. }
            | Inst::Neg { dst, .. }
            | Inst::Binary { dst, .. }
            | Inst::MulWide { dst, .. }
            | Inst::MadLo { dst, .. }
            | Inst::Fma { dst, .. }
            | Inst::Setp { dst, .. }
            | Inst::Selp { dst, .. }
            | Inst::Shfl { dst, .. }
            | Inst::Pack { dst, .. } => [Some(*dst), None],
            Inst::Unpack { lo, hi, .. } => [Some(*lo), Some(*hi)],
            Inst::StGlobal { .. } | Inst::Bra { .. } | Inst::Label { .. } | Inst::Ret => {
                [None, None]
            }
        };
        defs.into_iter().flatten()
    }

    /// Registers this instruction reads, appended to `out` (for validation
    /// / liveness). Every register operand counts, including address
    /// registers, selector predicates and branch guards.
    pub fn use_regs(&self, out: &mut Vec<Reg>) {
        fn op(o: &Operand, out: &mut Vec<Reg>) {
            if let Operand::Reg(r) = o {
                out.push(*r)
            }
        }
        match self {
            Inst::LdParam { .. } | Inst::MovSpecial { .. } | Inst::Label { .. } | Inst::Ret => {}
            Inst::LdGlobal { addr, .. } => out.push(*addr),
            Inst::StGlobal { addr, src, .. } => {
                out.push(*addr);
                op(src, out);
            }
            Inst::Mov { src, .. } | Inst::Neg { src, .. } => op(src, out),
            Inst::Cvt { src, .. } | Inst::Shfl { src, .. } | Inst::Unpack { src, .. } => {
                out.push(*src)
            }
            Inst::Pack { lo, hi, .. } => out.extend([*lo, *hi]),
            Inst::Binary { a, b, .. } => {
                op(a, out);
                op(b, out);
            }
            Inst::MulWide { a, b, .. } => {
                out.push(*a);
                op(b, out);
            }
            Inst::MadLo { a, b, c, .. } | Inst::Fma { a, b, c, .. } => {
                op(a, out);
                op(b, out);
                op(c, out);
            }
            Inst::Setp { a, b, .. } => {
                op(a, out);
                op(b, out);
            }
            Inst::Selp { a, b, pred, .. } => {
                op(a, out);
                op(b, out);
                out.push(*pred);
            }
            Inst::Bra { pred, .. } => {
                if let Some((p, _)) = pred {
                    out.push(*p)
                }
            }
        }
    }

    /// Apply `f` to every register slot in this instruction — definitions,
    /// uses, address registers and predicates alike. Used by
    /// the sweep for register renumbering.
    pub fn map_regs(&mut self, f: &mut impl FnMut(&mut Reg)) {
        fn op(o: &mut Operand, f: &mut impl FnMut(&mut Reg)) {
            if let Operand::Reg(r) = o {
                f(r)
            }
        }
        match self {
            Inst::Label { .. } | Inst::Ret => {}
            Inst::LdParam { dst, .. } | Inst::MovSpecial { dst, .. } => f(dst),
            Inst::LdGlobal { dst, addr, .. } => {
                f(dst);
                f(addr);
            }
            Inst::StGlobal { addr, src, .. } => {
                f(addr);
                op(src, f);
            }
            Inst::Mov { dst, src, .. } | Inst::Neg { dst, src, .. } => {
                f(dst);
                op(src, f);
            }
            Inst::Cvt { dst, src, .. } | Inst::Shfl { dst, src, .. } => {
                f(dst);
                f(src);
            }
            Inst::Unpack { lo, hi, src } => {
                f(lo);
                f(hi);
                f(src);
            }
            Inst::Pack { dst, lo, hi } => {
                f(dst);
                f(lo);
                f(hi);
            }
            Inst::Binary { dst, a, b, .. } | Inst::Setp { dst, a, b, .. } => {
                f(dst);
                op(a, f);
                op(b, f);
            }
            Inst::MulWide { dst, a, b, .. } => {
                f(dst);
                f(a);
                op(b, f);
            }
            Inst::MadLo { dst, a, b, c, .. } | Inst::Fma { dst, a, b, c, .. } => {
                f(dst);
                op(a, f);
                op(b, f);
                op(c, f);
            }
            Inst::Selp { dst, a, b, pred, .. } => {
                f(dst);
                op(a, f);
                op(b, f);
                f(pred);
            }
            Inst::Bra { pred, .. } => {
                if let Some((p, _)) = pred {
                    f(p)
                }
            }
        }
    }

    /// Is this a global memory access, and how many bytes does it move?
    /// Used by the device performance model to count kernel traffic.
    pub fn global_bytes(&self) -> Option<(bool, usize)> {
        match self {
            Inst::LdGlobal { ty, .. } => Some((true, ty.size_bytes())),
            Inst::StGlobal { ty, .. } => Some((false, ty.size_bytes())),
            _ => None,
        }
    }

    /// Floating-point operations performed (flop count for the performance
    /// model): a float `add`, `sub` or `mul` counts 1, an `fma` 2, and a
    /// `neg` — a sign flip, not arithmetic — nothing.
    pub fn flops(&self) -> usize {
        match self {
            Inst::Binary { op: BinOp::Add | BinOp::Sub | BinOp::Mul, ty, .. } if ty.is_float() => 1,
            Inst::Fma { .. } => 2,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RegClass;

    #[test]
    fn special_reg_roundtrip() {
        for s in [
            SpecialReg::TidX,
            SpecialReg::NtidX,
            SpecialReg::CtaidX,
            SpecialReg::NctaidX,
        ] {
            assert_eq!(SpecialReg::from_name(s.name()), Some(s));
        }
    }

    #[test]
    fn cmp_roundtrip() {
        for c in [CmpOp::Ne, CmpOp::Ge] {
            assert_eq!(CmpOp::from_name(c.name()), Some(c));
        }
    }

    #[test]
    fn flop_accounting() {
        let r = Reg::new(RegClass::F64, 1);
        let fma = Inst::Fma {
            ty: PtxType::F64,
            dst: r,
            a: r.into(),
            b: r.into(),
            c: r.into(),
        };
        assert_eq!(fma.flops(), 2);
        let add = Inst::Binary {
            op: BinOp::Add,
            ty: PtxType::F32,
            dst: Reg::new(RegClass::F32, 1),
            a: Operand::ImmF(1.0),
            b: Operand::ImmF(2.0),
        };
        assert_eq!(add.flops(), 1);
        let iadd = Inst::Binary {
            op: BinOp::Add,
            ty: PtxType::U32,
            dst: Reg::new(RegClass::B32, 1),
            a: Operand::ImmI(1),
            b: Operand::ImmI(2),
        };
        assert_eq!(iadd.flops(), 0);
    }

    #[test]
    fn global_bytes() {
        let addr = Reg::new(RegClass::B64, 1);
        let ld = Inst::LdGlobal {
            ty: PtxType::F64,
            dst: Reg::new(RegClass::F64, 1),
            addr,
            offset: 0,
        };
        assert_eq!(ld.global_bytes(), Some((true, 8)));
        let st = Inst::StGlobal {
            ty: PtxType::F32,
            addr,
            offset: 16,
            src: Operand::ImmF(0.0),
        };
        assert_eq!(st.global_bytes(), Some((false, 4)));
    }
}
