//! Lowering parsed PTX to the register-machine program executed by the
//! simulated device ("GPU code" in the paper's Fig. 2).
//!
//! The lowering resolves branch labels to instruction indices, parameter
//! names to argument indices, and pre-encodes immediates in the operation's
//! type. Like the driver JIT, it allocates registers by live range: the
//! generator's SSA-like virtual registers (thousands in a dslash) map onto
//! a compact set of *columns* — one [`crate::exec::TILE`]-lane vector each
//! in the executor's register file. It also extracts the static
//! resource/traffic statistics the performance model and the occupancy
//! calculation need.
//!
//! Control flow is limited to what the generator emits: forward exits
//! (`@p bra` to a `ret`, or `ret` itself), and conditional exits only
//! before the first store — so a tile whose exits leave a ragged lane set
//! can be re-run lane by lane without repeating a side effect. Anything
//! else is a [`JitError::Lower`].

use qdp_ptx::inst::{BinOp, CmpOp, Inst, MathFn, Operand, SpecialReg, UnOp};
use qdp_ptx::module::Kernel;
use qdp_ptx::opt::{OptLevel, OptStats};
use qdp_ptx::types::{PtxType, Reg, RegClass};
use qdp_ptx::PtxError;
use std::collections::HashMap;

/// Errors from JIT translation.
#[derive(Debug, Clone, PartialEq)]
pub enum JitError {
    /// The PTX front end rejected the program.
    Ptx(PtxError),
    /// Structural problem found during lowering.
    Lower(String),
}

impl From<PtxError> for JitError {
    fn from(e: PtxError) -> JitError {
        JitError::Ptx(e)
    }
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::Ptx(e) => write!(f, "{e}"),
            JitError::Lower(m) => write!(f, "lowering failed: {m}"),
        }
    }
}

impl std::error::Error for JitError {}

/// A resolved operand: register column or pre-encoded immediate bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AVal {
    /// Register-file column.
    Slot(u32),
    /// Immediate, already encoded in the operation type's bit layout.
    Imm(u64),
}

/// Lowered instructions. Registers are live-range-allocated columns (the
/// `dst`/`addr`/… "slots" below); labels are gone.
#[derive(Debug, Clone, PartialEq)]
pub enum COp {
    /// Load a kernel argument.
    LdArg {
        /// Destination slot.
        dst: u32,
        /// Argument index.
        arg: u32,
        /// Declared parameter type.
        ty: PtxType,
    },
    /// Global load.
    Ld {
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Slot holding the byte address.
        addr: u32,
        /// Constant byte offset.
        offset: i64,
    },
    /// Global store.
    St {
        /// Value type.
        ty: PtxType,
        /// Slot holding the byte address.
        addr: u32,
        /// Constant byte offset.
        offset: i64,
        /// Value to store.
        src: AVal,
    },
    /// Move.
    Mov {
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Source.
        src: AVal,
    },
    /// Read special register.
    Special {
        /// Destination slot.
        dst: u32,
        /// Which special register.
        sreg: SpecialReg,
    },
    /// Type conversion.
    Cvt {
        /// Destination type.
        dst_ty: PtxType,
        /// Source type.
        src_ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Source slot.
        src: u32,
    },
    /// Unary operation.
    Un {
        /// Operation.
        op: UnOp,
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Source.
        src: AVal,
    },
    /// Binary operation.
    Bin {
        /// Operation.
        op: BinOp,
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Left operand.
        a: AVal,
        /// Right operand.
        b: AVal,
    },
    /// Widening 32→64-bit multiply.
    MulWide {
        /// Source type (u32/s32).
        src_ty: PtxType,
        /// 64-bit destination slot.
        dst: u32,
        /// 32-bit source slot.
        a: u32,
        /// Right operand.
        b: AVal,
    },
    /// Integer multiply-add (low half).
    MadLo {
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Multiplicand.
        a: AVal,
        /// Multiplier.
        b: AVal,
        /// Addend.
        c: AVal,
    },
    /// Fused multiply-add.
    Fma {
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Multiplicand.
        a: AVal,
        /// Multiplier.
        b: AVal,
        /// Addend.
        c: AVal,
    },
    /// Set predicate from comparison.
    Setp {
        /// Comparison.
        cmp: CmpOp,
        /// Operand type.
        ty: PtxType,
        /// Predicate destination slot.
        dst: u32,
        /// Left operand.
        a: AVal,
        /// Right operand.
        b: AVal,
    },
    /// Select by predicate.
    Selp {
        /// Value type.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Value if predicate is true.
        a: AVal,
        /// Value if predicate is false.
        b: AVal,
        /// Predicate slot.
        pred: u32,
    },
    /// Exit branch: the target is a later `Ret`, and no store precedes it.
    Bra {
        /// Target instruction index.
        target: u32,
        /// Optional predicate `(slot, negated)`.
        pred: Option<(u32, bool)>,
    },
    /// Math subroutine call.
    Call {
        /// The subroutine.
        func: MathFn,
        /// Precision.
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Argument slots (second used only for binary functions).
        args: [u32; 2],
    },
    /// Return (thread exit).
    Ret,
}

/// A JIT-translated kernel: the executable program plus the static
/// statistics the timing and occupancy models need.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// Kernel name.
    pub name: String,
    /// Lowered program.
    pub code: Vec<COp>,
    /// Register-file columns (live-range allocated).
    pub n_cols: u32,
    /// Leading columns of registers read before any write; the executor
    /// zeroes them per tile, so such a read yields 0.
    pub n_zeroed: u32,
    /// Number of kernel arguments with their declared types.
    pub param_types: Vec<PtxType>,
    /// 32-bit register equivalents per thread (occupancy input).
    pub regs_per_thread: u32,
    /// Global-memory bytes read per thread.
    pub read_bytes: usize,
    /// Global-memory bytes written per thread.
    pub write_bytes: usize,
    /// Floating-point operations per thread.
    pub flops: usize,
    /// Dominant memory-access width in bytes (4 = SP, 8 = DP fields).
    pub access_bytes: usize,
    /// Whether the kernel performs double-precision arithmetic.
    pub double_precision: bool,
}

fn encode_imm(ty: PtxType, op: &Operand) -> Result<u64, JitError> {
    match op {
        Operand::Reg(_) => unreachable!(),
        Operand::ImmF(v) => match ty {
            PtxType::F32 => Ok((*v as f32).to_bits() as u64),
            PtxType::F64 => Ok(v.to_bits()),
            _ => Err(JitError::Lower(format!(
                "float immediate in {} context",
                ty.suffix()
            ))),
        },
        Operand::ImmI(v) => Ok(*v as u64),
    }
}

/// Translate one kernel into a [`CompiledKernel`].
pub fn lower_kernel(kernel: &Kernel) -> Result<CompiledKernel, JitError> {
    kernel.validate()?;

    // Slot assignment: banks are laid out consecutively.
    let classes = RegClass::all();
    let mut bank_base = [0u32; 5];
    let mut total = 0u32;
    for (i, _c) in classes.iter().enumerate() {
        bank_base[i] = total;
        total += kernel.reg_counts[i];
    }
    let slot = |r: &Reg| -> u32 {
        let idx = classes.iter().position(|c| *c == r.class).unwrap();
        bank_base[idx] + r.id
    };
    let aval = |ty: PtxType, op: &Operand| -> Result<AVal, JitError> {
        match op {
            Operand::Reg(r) => Ok(AVal::Slot(slot(r))),
            imm => Ok(AVal::Imm(encode_imm(ty, imm)?)),
        }
    };

    // Label resolution: instruction index of each label, with labels
    // removed from the lowered stream. First pass: compute final indices.
    let mut labels: HashMap<&str, u32> = HashMap::new();
    let mut out_idx = 0u32;
    for inst in &kernel.body {
        if let Inst::Label { name } = inst {
            labels.insert(name.as_str(), out_idx);
        } else {
            out_idx += 1;
        }
    }

    let param_index = |name: &str| -> Result<u32, JitError> {
        kernel
            .params
            .iter()
            .position(|p| p.name == name)
            .map(|i| i as u32)
            .ok_or_else(|| JitError::Lower(format!("unknown param {name}")))
    };

    let mut code = Vec::with_capacity(kernel.body.len());
    let mut access_bytes = 4usize;
    let mut double_precision = false;
    let mut stored = false;
    let mut exit_targets = Vec::new();
    for inst in &kernel.body {
        let lowered = match inst {
            Inst::Label { .. } => continue,
            Inst::LdParam { ty, dst, param } => COp::LdArg {
                dst: slot(dst),
                arg: param_index(param)?,
                ty: *ty,
            },
            Inst::LdGlobal {
                ty,
                dst,
                addr,
                offset,
            } => {
                access_bytes = access_bytes.max(ty.size_bytes());
                COp::Ld {
                    ty: *ty,
                    dst: slot(dst),
                    addr: slot(addr),
                    offset: *offset,
                }
            }
            Inst::StGlobal {
                ty,
                addr,
                offset,
                src,
            } => {
                stored = true;
                COp::St {
                    ty: *ty,
                    addr: slot(addr),
                    offset: *offset,
                    src: aval(*ty, src)?,
                }
            }
            Inst::Mov { ty, dst, src } => COp::Mov {
                ty: *ty,
                dst: slot(dst),
                src: aval(*ty, src)?,
            },
            Inst::MovSpecial { dst, sreg } => COp::Special {
                dst: slot(dst),
                sreg: *sreg,
            },
            Inst::Cvt {
                dst_ty,
                src_ty,
                dst,
                src,
            } => COp::Cvt {
                dst_ty: *dst_ty,
                src_ty: *src_ty,
                dst: slot(dst),
                src: slot(src),
            },
            Inst::Unary { op, ty, dst, src } => COp::Un {
                op: *op,
                ty: *ty,
                dst: slot(dst),
                src: aval(*ty, src)?,
            },
            Inst::Binary { op, ty, dst, a, b } => COp::Bin {
                op: *op,
                ty: *ty,
                dst: slot(dst),
                a: aval(*ty, a)?,
                b: aval(*ty, b)?,
            },
            Inst::MulWide { src_ty, dst, a, b } => COp::MulWide {
                src_ty: *src_ty,
                dst: slot(dst),
                a: slot(a),
                b: aval(*src_ty, b)?,
            },
            Inst::MadLo { ty, dst, a, b, c } => COp::MadLo {
                ty: *ty,
                dst: slot(dst),
                a: aval(*ty, a)?,
                b: aval(*ty, b)?,
                c: aval(*ty, c)?,
            },
            Inst::Fma { ty, dst, a, b, c } => COp::Fma {
                ty: *ty,
                dst: slot(dst),
                a: aval(*ty, a)?,
                b: aval(*ty, b)?,
                c: aval(*ty, c)?,
            },
            Inst::Setp { cmp, ty, dst, a, b } => COp::Setp {
                cmp: *cmp,
                ty: *ty,
                dst: slot(dst),
                a: aval(*ty, a)?,
                b: aval(*ty, b)?,
            },
            Inst::Selp {
                ty,
                dst,
                a,
                b,
                pred,
            } => COp::Selp {
                ty: *ty,
                dst: slot(dst),
                a: aval(*ty, a)?,
                b: aval(*ty, b)?,
                pred: slot(pred),
            },
            Inst::Bra { target, pred } => {
                let pc = code.len() as u32;
                let index = *labels
                    .get(target.as_str())
                    .ok_or_else(|| JitError::Lower(format!("undefined label {target}")))?;
                if index <= pc {
                    return Err(JitError::Lower(format!("backward branch to {target}")));
                }
                if stored {
                    return Err(JitError::Lower(format!(
                        "branch to {target} after a store (exits must precede the first store)"
                    )));
                }
                exit_targets.push(index);
                COp::Bra {
                    target: index,
                    pred: pred.map(|(r, n)| (slot(&r), n)),
                }
            }
            Inst::Call { func, ty, dst, args } => {
                let mut a = [0u32; 2];
                for (i, r) in args.iter().enumerate().take(2) {
                    a[i] = slot(r);
                }
                COp::Call {
                    func: *func,
                    ty: *ty,
                    dst: slot(dst),
                    args: a,
                }
            }
            Inst::Ret => COp::Ret,
        };
        // Track DP usage from instruction types.
        if let Inst::Fma { ty, .. }
        | Inst::Binary { ty, .. }
        | Inst::Unary { ty, .. }
        | Inst::LdGlobal { ty, .. } = inst
        {
            if *ty == PtxType::F64 {
                double_precision = true;
            }
        }
        code.push(lowered);
    }

    if let Some(t) = exit_targets
        .iter()
        .find(|&&t| code.get(t as usize) != Some(&COp::Ret))
    {
        return Err(JitError::Lower(format!(
            "branch to instruction {t}, which is not ret (only exits are supported)"
        )));
    }

    // 32-bit register equivalents of each slot, bank by bank.
    let widths: Vec<u32> = classes
        .iter()
        .zip(kernel.reg_counts)
        .flat_map(|(c, count)| {
            std::iter::repeat_n(if c.width_bytes() == 8 { 2 } else { 1 }, count as usize)
        })
        .collect();
    let regs = allocate_registers(&mut code, &widths);

    let (read_bytes, write_bytes) = kernel.thread_bytes();
    Ok(CompiledKernel {
        name: kernel.name.clone(),
        code,
        n_cols: regs.cols,
        n_zeroed: regs.zeroed,
        param_types: kernel.params.iter().map(|p| p.ty).collect(),
        regs_per_thread: regs.per_thread,
        read_bytes,
        write_bytes,
        flops: kernel.thread_flops(),
        access_bytes,
        double_precision,
    })
}

fn use_aval(v: &mut AVal, f: &mut impl FnMut(&mut u32, bool)) {
    if let AVal::Slot(s) = v {
        f(s, false);
    }
}

/// Visit every register slot one lowered instruction mentions — uses
/// first, then the definition (flagged `true`). Live ranges span from the
/// first to the last mention, defs and uses alike.
fn visit_slots(op: &mut COp, f: &mut impl FnMut(&mut u32, bool)) {
    match op {
        COp::LdArg { dst, .. } | COp::Special { dst, .. } => f(dst, true),
        COp::Ld { dst, addr: src, .. } | COp::Cvt { dst, src, .. } => {
            f(src, false);
            f(dst, true);
        }
        COp::St { addr, src, .. } => {
            f(addr, false);
            use_aval(src, f);
        }
        COp::Mov { dst, src, .. } | COp::Un { dst, src, .. } => {
            use_aval(src, f);
            f(dst, true);
        }
        COp::Bin { dst, a, b, .. } | COp::Setp { dst, a, b, .. } => {
            use_aval(a, f);
            use_aval(b, f);
            f(dst, true);
        }
        COp::MulWide { dst, a, b, .. } => {
            f(a, false);
            use_aval(b, f);
            f(dst, true);
        }
        COp::MadLo { dst, a, b, c, .. } | COp::Fma { dst, a, b, c, .. } => {
            use_aval(a, f);
            use_aval(b, f);
            use_aval(c, f);
            f(dst, true);
        }
        COp::Selp {
            dst, a, b, pred, ..
        } => {
            use_aval(a, f);
            use_aval(b, f);
            f(pred, false);
            f(dst, true);
        }
        COp::Bra { pred, .. } => {
            if let Some((p, _)) = pred {
                f(p, false);
            }
        }
        COp::Call { dst, args, .. } => {
            // Both argument slots, as the occupancy estimate has always
            // counted them (a unary call's second one is slot 0).
            for a in args {
                f(a, false);
            }
            f(dst, true);
        }
        COp::Ret => {}
    }
}

/// A kernel's register allocation.
struct Registers {
    /// Peak simultaneously live 32-bit equivalents (occupancy input).
    per_thread: u32,
    /// Columns the program's slots were rewritten to.
    cols: u32,
    /// Leading columns read before any write.
    zeroed: u32,
}

/// Allocate registers by live range, approximated as first to last mention
/// (exact for the straight-line streaming kernels the generator emits,
/// whose only branches are exits). One walk over the program finds the
/// ranges, whose sweep gives the occupancy estimate — peak simultaneously
/// live 32-bit equivalents (`widths`, per slot); a second rewrites the
/// slots to columns in place, a column per register, free again after its
/// last mention. A register read before any write keeps a column of its own
/// among the leading zeroed ones, so the read sees 0 as in a fresh register
/// file.
fn allocate_registers(code: &mut [COp], widths: &[u32]) -> Registers {
    const NONE: u32 = u32::MAX;
    let n = widths.len();
    let mut first = vec![NONE; n];
    let mut last = vec![0u32; n];
    let mut zeroed: Vec<u32> = Vec::new();
    // +width at first mention, -width after last mention
    let mut delta = vec![0i64; code.len() + 1];
    for (i, op) in code.iter_mut().enumerate() {
        visit_slots(op, &mut |s, def| {
            let s = *s as usize;
            if first[s] == NONE {
                first[s] = i as u32;
                delta[i] += i64::from(widths[s]);
                if !def {
                    zeroed.push(s as u32);
                }
            }
            last[s] = i as u32;
        });
    }
    for s in 0..n {
        if first[s] != NONE {
            delta[last[s] as usize + 1] -= i64::from(widths[s]);
        }
    }
    let (mut live, mut peak) = (0i64, 0i64);
    for d in delta {
        live += d;
        peak = peak.max(live);
    }

    let mut col = vec![NONE; n];
    for (c, &s) in zeroed.iter().enumerate() {
        col[s as usize] = c as u32;
    }
    let n_zeroed = zeroed.len() as u32;
    let mut n_cols = n_zeroed;
    let mut free = Vec::new();
    let mut dying = Vec::new();
    for (i, op) in code.iter_mut().enumerate() {
        visit_slots(op, &mut |s, _| {
            let (c, end) = (&mut col[*s as usize], &mut last[*s as usize]);
            if *c == NONE {
                *c = free.pop().unwrap_or_else(|| {
                    n_cols += 1;
                    n_cols - 1
                });
            }
            if *end == i as u32 {
                *end = NONE; // once, however often this op mentions it
                dying.push(*c);
            }
            *s = *c;
        });
        // Freed after the op, so its destination never takes a column one
        // of its own operands dies in.
        for &c in &dying {
            if c >= n_zeroed {
                free.push(c);
            }
        }
        dying.clear();
    }
    Registers {
        // A floor of 16 mirrors the ABI/reserved registers of real kernels;
        // a ceiling of 255 mirrors the hardware limit (the driver spills to
        // local memory beyond it).
        per_thread: (peak as u32).clamp(16, 255),
        cols: n_cols,
        zeroed: n_zeroed,
    }
}

/// Parse PTX text and lower every kernel. This is the "driver JIT" entry
/// point used by [`crate::cache::KernelCache`].
pub fn compile_ptx(text: &str) -> Result<Vec<CompiledKernel>, JitError> {
    let module = qdp_ptx::parse::parse_module(text)?;
    module.validate()?;
    module.kernels.iter().map(lower_kernel).collect()
}

/// Like [`compile_ptx`], but runs the PTX peephole optimizer between
/// validation and lowering (the slot the paper's driver JIT optimizes in,
/// Fig. 2). Returns the per-pass statistics alongside the kernels.
///
/// `optimize_module` never produces an invalid module — kernels violating
/// the optimizer's preconditions are skipped and post-optimization
/// validation failures revert the kernel — so the result always lowers
/// whenever the unoptimized text would.
pub fn compile_ptx_opt(
    text: &str,
    level: OptLevel,
) -> Result<(Vec<CompiledKernel>, OptStats), JitError> {
    let mut module = qdp_ptx::parse::parse_module(text)?;
    module.validate()?;
    let stats = qdp_ptx::opt::optimize_module(&mut module, level);
    let kernels: Vec<CompiledKernel> = module
        .kernels
        .iter()
        .map(lower_kernel)
        .collect::<Result<_, _>>()?;
    Ok((kernels, stats))
}

/// Like [`compile_ptx_opt`], but also returns the PTX text of the module
/// *after* the optimizer ran — the artifact the persistent kernel store
/// serializes, so a warm process can lower the already-optimized program
/// verbatim without repeating any optimizer pass. At [`OptLevel::None`]
/// the input text is returned unchanged (verbatim contract: nothing is
/// re-emitted or normalised).
pub fn compile_ptx_opt_emit(
    text: &str,
    level: OptLevel,
) -> Result<(Vec<CompiledKernel>, OptStats, String), JitError> {
    let mut module = qdp_ptx::parse::parse_module(text)?;
    module.validate()?;
    let stats = qdp_ptx::opt::optimize_module(&mut module, level);
    let optimized_text = if level == OptLevel::None {
        text.to_string()
    } else {
        qdp_ptx::emit::emit_module(&module)
    };
    let kernels: Vec<CompiledKernel> = module
        .kernels
        .iter()
        .map(lower_kernel)
        .collect::<Result<_, _>>()?;
    Ok((kernels, stats, optimized_text))
}

/// The code generator's golden kernels, pinned by `qdp-core`'s snapshot
/// tests — the lowering and executor tests run them.
#[cfg(test)]
pub(crate) const GOLDEN_PTX: [(&str, &str); 7] = [
    ("axpy_fermion_dp", include_str!("../../core/tests/snapshots/axpy_fermion_dp.ptx")),
    ("fused_axpy_norm2_dp", include_str!("../../core/tests/snapshots/fused_axpy_norm2_dp.ptx")),
    ("fused_force_accum_dp", include_str!("../../core/tests/snapshots/fused_force_accum_dp.ptx")),
    ("shift_cm_even_dp", include_str!("../../core/tests/snapshots/shift_cm_even_dp.ptx")),
    ("su3_mul_dp", include_str!("../../core/tests/snapshots/su3_mul_dp.ptx")),
    ("wilson_dslash_dp", include_str!("../../core/tests/snapshots/wilson_dslash_dp.ptx")),
    ("wilson_dslash_sp", include_str!("../../core/tests/snapshots/wilson_dslash_sp.ptx")),
];

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_ptx::emit::emit_module;
    use qdp_ptx::module::{KernelBuilder, Module};

    fn build_simple() -> Kernel {
        let mut b = KernelBuilder::new("k");
        let p = b.param("x", PtxType::U64);
        let n = b.param("n", PtxType::U32);
        let tid = b.global_tid();
        let nn = b.ld_param(&n, PtxType::U32);
        let exit = b.guard(tid, nn);
        let base = b.ld_param(&p, PtxType::U64);
        let off = b.fresh(RegClass::B64);
        b.push(Inst::MulWide {
            src_ty: PtxType::U32,
            dst: off,
            a: tid,
            b: Operand::ImmI(8),
        });
        let addr = b.bin(BinOp::Add, PtxType::U64, base.into(), off.into());
        let v = b.fresh(RegClass::F64);
        b.push(Inst::LdGlobal {
            ty: PtxType::F64,
            dst: v,
            addr,
            offset: 0,
        });
        let w = b.bin(BinOp::Mul, PtxType::F64, v.into(), Operand::ImmF(3.0));
        b.push(Inst::StGlobal {
            ty: PtxType::F64,
            addr,
            offset: 0,
            src: w.into(),
        });
        b.bind_label(&exit);
        b.finish()
    }

    #[test]
    fn lowering_resolves_labels_and_params() {
        let k = build_simple();
        let c = lower_kernel(&k).unwrap();
        // Exactly one branch; its target must be the index of the Ret's
        // predecessor region (the label is removed).
        let bra_targets: Vec<u32> = c
            .code
            .iter()
            .filter_map(|op| match op {
                COp::Bra { target, .. } => Some(*target),
                _ => None,
            })
            .collect();
        assert_eq!(bra_targets.len(), 1);
        let t = bra_targets[0] as usize;
        assert!(matches!(c.code[t], COp::Ret));
        assert_eq!(c.param_types.len(), 2);
        assert!(c.double_precision);
        assert_eq!(c.access_bytes, 8);
        assert_eq!(c.read_bytes, 8);
        assert_eq!(c.write_bytes, 8);
        assert_eq!(c.flops, 1);
    }

    #[test]
    fn compile_from_text_roundtrip() {
        let module = Module::with_kernel(build_simple());
        let text = emit_module(&module);
        let compiled = compile_ptx(&text).unwrap();
        assert_eq!(compiled.len(), 1);
        assert_eq!(compiled[0], lower_kernel(&module.kernels[0]).unwrap());
    }

    #[test]
    fn float_imm_encoded_in_op_type() {
        let k = build_simple();
        let c = lower_kernel(&k).unwrap();
        let has_f64_imm = c.code.iter().any(|op| {
            matches!(op, COp::Bin { b: AVal::Imm(bits), ty: PtxType::F64, .. }
                     if f64::from_bits(*bits) == 3.0)
        });
        assert!(has_f64_imm);
    }

    #[test]
    fn rejects_bad_ptx_text() {
        assert!(compile_ptx("garbage").is_err());
    }

    fn parse_golden(text: &str) -> Kernel {
        qdp_ptx::parse::parse_module(text).unwrap().kernels.remove(0)
    }

    /// Checked against the registers' live ranges in the PTX itself: every
    /// register keeps one column, and a column's registers never overlap.
    #[test]
    fn live_registers_never_share_a_column() {
        for (name, text) in GOLDEN_PTX {
            let kernel = parse_golden(text);
            let c = lower_kernel(&kernel).unwrap();
            assert_eq!(c.n_zeroed, 0, "{name}: generated code writes before it reads");
            let body: Vec<&Inst> = kernel
                .body
                .iter()
                .filter(|i| !matches!(i, Inst::Label { .. }))
                .collect();
            assert_eq!(body.len(), c.code.len(), "{name}");
            let mut ranges: HashMap<Reg, (usize, usize)> = HashMap::new();
            let mut cols: HashMap<Reg, u32> = HashMap::new();
            let mut regs = Vec::new();
            for (i, (inst, op)) in body.iter().zip(&c.code).enumerate() {
                regs.clear();
                inst.use_regs(&mut regs);
                regs.extend(inst.def_reg());
                for r in &regs {
                    ranges.entry(*r).or_insert((i, i)).1 = i;
                }
                if let Some(r) = inst.def_reg() {
                    let mut def_col = None;
                    visit_slots(&mut op.clone(), &mut |s, def| {
                        if def {
                            def_col = Some(*s);
                        }
                    });
                    let col = def_col.unwrap();
                    assert_eq!(*cols.entry(r).or_insert(col), col, "{name}: {r} moved");
                }
            }
            let mut by_col: HashMap<u32, Vec<(usize, usize)>> = HashMap::new();
            for (r, range) in &ranges {
                by_col.entry(cols[r]).or_default().push(*range);
            }
            assert_eq!(by_col.len() as u32, c.n_cols, "{name}");
            for (col, mut rs) in by_col {
                rs.sort_unstable();
                for w in rs.windows(2) {
                    assert!(w[0].1 < w[1].0, "{name}: column {col} holds {w:?} at once");
                }
            }
        }
    }

    #[test]
    fn dslash_compacts_to_a_hundred_odd_columns() {
        for (name, text) in GOLDEN_PTX.iter().filter(|(n, _)| n.starts_with("wilson_dslash")) {
            let kernel = parse_golden(text);
            let declared: u32 = kernel.reg_counts.iter().sum();
            let c = lower_kernel(&kernel).unwrap();
            assert_eq!(declared, 3543, "{name}");
            assert!(c.n_cols <= 110, "{name}: {} columns of {declared} declared", c.n_cols);
        }
    }

    /// Printing inverts parsing on the golden kernels, and the optimizer's
    /// output at both levels is pinned byte for byte by the FNV digest of
    /// its emitted text — any change to what the PTX passes produce fails
    /// here, not only in a conformance sweep.
    #[test]
    fn golden_kernels_reprint_and_optimize_to_pinned_bytes() {
        let pinned = [
            ("30080e8062858004", "f61af9e4fd2cc812"),
            ("14d968c4be81b2a0", "8aafa5d9be484a82"),
            ("86fbc370a06edb51", "2c8d366f69f4d6dc"),
            ("71f596d956c9e4b3", "71f596d956c9e4b3"),
            ("f74ca32216821b98", "24f753bc447ea83d"),
            ("51b6ed6655b0b563", "18c6d21f976ce449"),
            ("fb422f28abc4d42f", "f562329c0690435b"),
        ];
        for ((name, text), (o1, o2)) in GOLDEN_PTX.iter().zip(pinned) {
            let module = qdp_ptx::parse::parse_module(text).unwrap();
            assert!(
                emit_module(&module) == *text,
                "{name}: reprinted text differs"
            );
            for (level, want) in [(OptLevel::Default, o1), (OptLevel::Aggressive, o2)] {
                let (_, _, optimized) = compile_ptx_opt_emit(text, level).unwrap();
                let got = qdp_ptx::hash::stable_text_digest(&optimized);
                assert_eq!(got, want, "{name} at {}", level.tag());
            }
        }
    }

    /// The occupancy input (and so the simulated clock) is what it was
    /// when every declared register had its own slot.
    #[test]
    fn regs_per_thread_is_pinned() {
        let pinned = [105, 109, 89, 43, 87, 209, 113];
        for ((name, text), want) in GOLDEN_PTX.iter().zip(pinned) {
            let c = lower_kernel(&parse_golden(text)).unwrap();
            assert_eq!(c.regs_per_thread, want, "{name}");
        }
    }

    #[test]
    fn control_flow_other_than_exits_is_rejected() {
        // A `@p bra $l`, the label `$l` and one store, in the given order,
        // followed by the final `ret`.
        let build = |order: [&str; 3]| {
            let mut b = KernelBuilder::new("cf");
            let p_x = b.param("x", PtxType::U64);
            let base = b.ld_param(&p_x, PtxType::U64);
            let tid = b.global_tid();
            let p = b.fresh(RegClass::Pred);
            b.push(Inst::Setp {
                cmp: CmpOp::Eq,
                ty: PtxType::U32,
                dst: p,
                a: tid.into(),
                b: Operand::ImmI(0),
            });
            for step in order {
                match step {
                    "bra" => b.push(Inst::Bra {
                        target: "$l".into(),
                        pred: Some((p, false)),
                    }),
                    "label" => b.bind_label("$l"),
                    _ => b.push(Inst::StGlobal {
                        ty: PtxType::U32,
                        addr: base,
                        offset: 0,
                        src: Operand::ImmI(1),
                    }),
                }
            }
            b.finish()
        };
        assert!(lower_kernel(&build(["bra", "store", "label"])).is_ok(), "an exit lowers");
        for (what, order) in [
            ("backward branch", ["label", "bra", "store"]),
            ("branch to a non-ret", ["bra", "label", "store"]),
            ("exit after a store", ["store", "bra", "label"]),
        ] {
            let r = lower_kernel(&build(order));
            assert!(matches!(r, Err(JitError::Lower(_))), "{what}: {r:?}");
        }
    }
}
