//! Lowering parsed PTX to the register-machine program executed by the
//! simulated device ("GPU code" in the paper's Fig. 2).
//!
//! The lowering resolves branch labels to instruction indices, parameter
//! names to argument indices, and pre-encodes immediates in the operation's
//! type. Like ptxas, it folds each load's and store's address arithmetic
//! into the access itself ([`Addr`]: one addressed form), and drops what
//! the fold leaves unused. Like CUDA's JIT compiler, it allocates registers by
//! live range: the generator's SSA-like virtual registers (thousands in a
//! dslash) map onto a compact set of *columns* — one
//! [`crate::exec::TILE`]-lane vector each in the executor's register file.
//! It also extracts the static resource/traffic statistics the performance
//! model and the occupancy calculation need; the register count is taken
//! from the program as written, before the fold, so the occupancy model
//! sees the kernel the generator printed.
//!
//! A reduction's warp butterfly — an `f64` unpacked into halves, each
//! shuffled, packed again — folds into one 64-bit lane permutation
//! ([`COp::Bfly`]).
//!
//! Control flow is limited to what the generator emits: forward exits
//! (`@p bra` to a `ret`, or `ret` itself), and conditional exits only
//! before the first store — so a tile whose exits leave a ragged lane set
//! can be re-run lane by lane without repeating a side effect. Anything
//! else is a [`JitError::Lower`].

use crate::autotune::TuneState;
use qdp_gpu_sim::sync::Mutex;
use qdp_ptx::inst::{BinOp, CmpOp, Inst, Operand, SpecialReg};
use qdp_ptx::module::Kernel;
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

/// The address of a load or store, in each lane. Wrapping u64 arithmetic,
/// like the `add.u64` the folded form replaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Addr {
    /// `[reg + offset]`: a register holding the address, as written.
    Reg {
        /// Slot holding the byte address.
        slot: u32,
        /// Constant byte offset.
        offset: i64,
    },
    /// `arg + ((site +₃₂ k) as u64)·scale + offset`: the generator's
    /// `add.u32` → `mul.wide.u32` → `add.u64` chain over a pointer
    /// argument, folded into the access (u32 wrap of `site + k` kept).
    Indexed {
        /// Argument index of the pointer parameter.
        arg: u32,
        /// Slot holding the u32 element index (a site).
        site: u32,
        /// Addend, added modulo 2³² like `add.u32`.
        k: u32,
        /// Bytes per element, `mul.wide.u32`'s multiplier.
        scale: u32,
        /// Constant byte offset.
        offset: i64,
        /// The program's first access through this `site` register: the
        /// executor tests the site column for a consecutive run here, and
        /// the register's later accesses reuse the result (it is defined
        /// once, before this access).
        first: bool,
    },
}

/// Lowered instructions. Registers are live-range-allocated columns (the
/// `dst`/`src`/… "slots" below); labels are gone.
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
        /// Byte address.
        addr: Addr,
    },
    /// Global store.
    St {
        /// Value type.
        ty: PtxType,
        /// Byte address.
        addr: Addr,
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
    /// f32 ↔ f64 conversion.
    Cvt {
        /// Destination type (the source is the other float type).
        dst_ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Source slot.
        src: u32,
    },
    /// Float negation.
    Neg {
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
    /// Widening u32 → u64 multiply.
    MulWide {
        /// 64-bit destination slot.
        dst: u32,
        /// 32-bit source slot.
        a: u32,
        /// Right operand.
        b: AVal,
    },
    /// u32 multiply-add (low half).
    MadLo {
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
    /// `fma(c, d, w)` whose addend `w` was a rounded product chain over
    /// `a·b` — the product fold's form ([`fold_chains`]). Each step rounds
    /// as its own instruction did: the product, then the `acc` step, then
    /// the fma.
    MulAcc {
        /// Value type (a float type).
        ty: PtxType,
        /// Destination slot.
        dst: u32,
        /// Product multiplicand.
        a: u32,
        /// Product multiplier.
        b: u32,
        /// How the product makes the addend.
        acc: Acc,
        /// The fma's multiplicand.
        c: u32,
        /// The fma's multiplier.
        d: u32,
    },
    /// Set predicate from a u32 comparison.
    Setp {
        /// Comparison.
        cmp: CmpOp,
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
    /// `shfl.bfly.b32`: lane `l` reads `src` of lane `l ^ lane_mask`.
    Shfl {
        /// 32-bit destination slot.
        dst: u32,
        /// 32-bit source slot.
        src: u32,
        /// Butterfly lane mask (below 32: a warp's lanes meet only each
        /// other).
        lane_mask: u32,
    },
    /// `mov.b64 {lo, hi}, src`: an `f64`'s two 32-bit halves.
    Unpack {
        /// Low-half slot.
        lo: u32,
        /// High-half slot.
        hi: u32,
        /// The `f64` slot.
        src: u32,
    },
    /// `mov.b64 dst, {lo, hi}`: two 32-bit halves joined into an `f64`.
    Pack {
        /// The `f64` slot.
        dst: u32,
        /// Low-half slot.
        lo: u32,
        /// High-half slot.
        hi: u32,
    },
    /// The butterfly fold's form ([`fold_chains`]): an `f64` unpacked,
    /// both halves shuffled with one lane mask and packed again, as one
    /// 64-bit lane permutation — it only moves bits, so the fold is exact.
    Bfly {
        /// Destination slot.
        dst: u32,
        /// Source slot.
        src: u32,
        /// Butterfly lane mask.
        lane_mask: u32,
    },
    /// Exit branch: the target is a later `Ret`, and no store precedes it.
    Bra {
        /// Target instruction index.
        target: u32,
        /// Optional predicate `(slot, negated)`.
        pred: Option<(u32, bool)>,
    },
    /// Return (thread exit).
    Ret,
}

/// The addend `w` of a [`COp::MulAcc`], from its product `p = a·b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acc {
    /// `w = p`.
    Product,
    /// `w = −p`.
    Negated,
    /// `w = acc + p`, `acc` in this slot.
    Add(u32),
    /// `w = acc − p`, `acc` in this slot.
    Sub(u32),
}

impl Acc {
    /// The accumulator's slot, if the form has one.
    pub(crate) fn slot(self) -> Option<u32> {
        match self {
            Acc::Add(s) | Acc::Sub(s) => Some(s),
            Acc::Product | Acc::Negated => None,
        }
    }
}

/// A JIT-translated kernel: the executable program, the static statistics
/// the timing and occupancy models need, and the kernel's block-size
/// tuning record.
#[derive(Debug)]
pub struct CompiledKernel {
    /// Kernel name.
    pub name: String,
    /// Lowered program.
    pub code: Vec<COp>,
    /// Instructions of the PTX program as written (labels aside): what the
    /// modelled translation time scales with.
    pub ptx_insts: usize,
    /// Register-file columns (live-range allocated, after the address
    /// fold).
    pub n_cols: u32,
    /// Leading columns of registers read before any write; the executor
    /// zeroes them per tile, so such a read yields 0.
    pub n_zeroed: u32,
    /// Number of kernel arguments with their declared types.
    pub param_types: Vec<PtxType>,
    /// 32-bit register equivalents per thread (occupancy input), counted
    /// on the program as written, before the address fold.
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
    /// The §VII tuning record: empty until the kernel's first launch fills
    /// it, then walked by every launch of this kernel.
    pub tuning: Mutex<Option<TuneState>>,
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
    lower(kernel, true)
}

/// [`lower_kernel`] without the product and butterfly folds, so a test can
/// hold the two lowerings against each other.
#[cfg(test)]
pub(crate) fn lower_kernel_unfolded(kernel: &Kernel) -> Result<CompiledKernel, JitError> {
    lower(kernel, false)
}

fn lower(kernel: &Kernel, values: bool) -> Result<CompiledKernel, JitError> {
    let Translated {
        mut code,
        widths,
        access_bytes,
        double_precision,
    } = translate(kernel)?;
    let ptx_insts = code.len();
    let regs_per_thread = peak_live_regs(&mut code, &widths);
    fold_chains(&mut code, widths.len(), values);
    let regs = allocate_registers(&mut code, widths.len());

    let (read_bytes, write_bytes) = kernel.thread_bytes();
    Ok(CompiledKernel {
        name: kernel.name.clone(),
        code,
        ptx_insts,
        n_cols: regs.cols,
        n_zeroed: regs.zeroed,
        param_types: kernel.params.iter().map(|p| p.ty).collect(),
        regs_per_thread,
        read_bytes,
        write_bytes,
        flops: kernel.thread_flops(),
        access_bytes,
        double_precision,
        tuning: Mutex::new(None),
    })
}

/// A kernel translated one instruction per instruction, over one slot per
/// declared register (no fold, no allocation yet).
struct Translated {
    code: Vec<COp>,
    /// 32-bit register equivalents of each slot.
    widths: Vec<u32>,
    access_bytes: usize,
    double_precision: bool,
}

fn translate(kernel: &Kernel) -> Result<Translated, JitError> {
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
                    addr: Addr::Reg {
                        slot: slot(addr),
                        offset: *offset,
                    },
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
                    addr: Addr::Reg {
                        slot: slot(addr),
                        offset: *offset,
                    },
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
                dst_ty, dst, src, ..
            } => COp::Cvt {
                dst_ty: *dst_ty,
                dst: slot(dst),
                src: slot(src),
            },
            Inst::Neg { ty, dst, src } => COp::Neg {
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
            Inst::MulWide { dst, a, b } => COp::MulWide {
                dst: slot(dst),
                a: slot(a),
                b: aval(PtxType::U32, b)?,
            },
            Inst::MadLo { dst, a, b, c } => COp::MadLo {
                dst: slot(dst),
                a: aval(PtxType::U32, a)?,
                b: aval(PtxType::U32, b)?,
                c: aval(PtxType::U32, c)?,
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
            Inst::Shfl {
                dst,
                src,
                lane_mask,
            } => COp::Shfl {
                dst: slot(dst),
                src: slot(src),
                lane_mask: *lane_mask,
            },
            Inst::Unpack { lo, hi, src } => COp::Unpack {
                lo: slot(lo),
                hi: slot(hi),
                src: slot(src),
            },
            Inst::Pack { dst, lo, hi } => COp::Pack {
                dst: slot(dst),
                lo: slot(lo),
                hi: slot(hi),
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
            Inst::Ret => COp::Ret,
        };
        // Track DP usage from instruction types.
        if let Inst::Fma { ty, .. }
        | Inst::Binary { ty, .. }
        | Inst::Neg { ty, .. }
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
    Ok(Translated {
        code,
        widths,
        access_bytes,
        double_precision,
    })
}

fn use_aval(v: &mut AVal, f: &mut impl FnMut(&mut u32, bool)) {
    if let AVal::Slot(s) = v {
        f(s, false);
    }
}

fn use_addr(a: &mut Addr, f: &mut impl FnMut(&mut u32, bool)) {
    match a {
        Addr::Reg { slot, .. } | Addr::Indexed { site: slot, .. } => f(slot, false),
    }
}

/// Visit every register slot one lowered instruction mentions — uses
/// first, then the definition (flagged `true`). Live ranges span from the
/// first to the last mention, defs and uses alike.
fn visit_slots(op: &mut COp, f: &mut impl FnMut(&mut u32, bool)) {
    match op {
        COp::LdArg { dst, .. } | COp::Special { dst, .. } => f(dst, true),
        COp::Ld { dst, addr, .. } => {
            use_addr(addr, f);
            f(dst, true);
        }
        COp::Cvt { dst, src, .. } | COp::Shfl { dst, src, .. } | COp::Bfly { dst, src, .. } => {
            f(src, false);
            f(dst, true);
        }
        COp::Unpack { lo, hi, src } => {
            f(src, false);
            f(lo, true);
            f(hi, true);
        }
        COp::Pack { dst, lo, hi } => {
            f(lo, false);
            f(hi, false);
            f(dst, true);
        }
        COp::St { addr, src, .. } => {
            use_addr(addr, f);
            use_aval(src, f);
        }
        COp::Mov { dst, src, .. } | COp::Neg { dst, src, .. } => {
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
        COp::MulAcc {
            dst,
            a,
            b,
            acc,
            c,
            d,
            ..
        } => {
            f(a, false);
            f(b, false);
            if let Acc::Add(e) | Acc::Sub(e) = acc {
                f(e, false);
            }
            f(c, false);
            f(d, false);
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
        COp::Ret => {}
    }
}

/// First and last mention of each of `n` slots (`NONE` if never
/// mentioned), and the slots read before any write, in first-mention order.
fn live_ranges(code: &mut [COp], n: usize) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let (mut first, mut last, mut zeroed) = (vec![NONE; n], vec![0u32; n], Vec::new());
    for (i, op) in code.iter_mut().enumerate() {
        visit_slots(op, &mut |s, def| {
            let s = *s as usize;
            if first[s] == NONE {
                first[s] = i as u32;
                if !def {
                    zeroed.push(s as u32);
                }
            }
            last[s] = i as u32;
        });
    }
    (first, last, zeroed)
}

const NONE: u32 = u32::MAX;

/// The occupancy estimate: peak simultaneously live 32-bit equivalents
/// (`widths`, per slot), a live range approximated as first to last
/// mention (exact for the straight-line streaming kernels the generator
/// emits, whose only branches are exits). A floor of 16 mirrors the
/// ABI/reserved registers of real kernels; a ceiling of 255 mirrors the
/// hardware limit (real kernels spill to local memory beyond it).
fn peak_live_regs(code: &mut [COp], widths: &[u32]) -> u32 {
    let (first, last, _) = live_ranges(code, widths.len());
    // +width at first mention, -width after last mention
    let mut delta = vec![0i64; code.len() + 1];
    for (s, &w) in widths.iter().enumerate() {
        if first[s] != NONE {
            delta[first[s] as usize] += i64::from(w);
            delta[last[s] as usize + 1] -= i64::from(w);
        }
    }
    let (mut live, mut peak) = (0i64, 0i64);
    for d in delta {
        live += d;
        peak = peak.max(live);
    }
    (peak as u32).clamp(16, 255)
}

/// Each slot's definitions, its last definition and its uses, as
/// [`fold_chains`] counts them.
struct Census {
    defs: Vec<u32>,
    def_at: Vec<u32>,
    uses: Vec<u32>,
}

impl Census {
    /// Whether `s` is defined once, before instruction `at`.
    fn stable(&self, s: u32, at: usize) -> bool {
        self.defs[s as usize] == 1 && (self.def_at[s as usize] as usize) < at
    }

    /// The single definition of `s`, stable at `at`, and its index.
    fn def<'c>(&self, code: &'c [COp], s: u32, at: usize) -> Option<(&'c COp, usize)> {
        let i = self.def_at[s as usize] as usize;
        self.stable(s, at).then(|| (&code[i], i))
    }

    /// [`Census::def`] of a register nothing but its reader at `at` reads.
    fn single<'c>(&self, code: &'c [COp], s: u32, at: usize) -> Option<(&'c COp, usize)> {
        self.def(code, s, at).filter(|_| self.uses[s as usize] == 1)
    }

    /// The folded form of the access address `[slot + offset]` at `at`.
    fn address(&self, code: &[COp], slot: u32, offset: i64, at: usize) -> Option<Addr> {
        let Some((
            &COp::Bin {
                op: BinOp::Add,
                ty: PtxType::U64,
                a,
                b,
                ..
            },
            add_at,
        )) = self.def(code, slot, at)
        else {
            return None;
        };
        let (AVal::Slot(x), AVal::Slot(y)) = (a, b) else {
            return None;
        };
        [(x, y), (y, x)].into_iter().find_map(|(base, off)| {
            let (
                &COp::LdArg {
                    arg,
                    ty: PtxType::U64,
                    ..
                },
                _,
            ) = self.def(code, base, add_at)?
            else {
                return None;
            };
            let (
                &COp::MulWide {
                    a: idx,
                    b: AVal::Imm(w),
                    ..
                },
                mul_at,
            ) = self.def(code, off, add_at)?
            else {
                return None;
            };
            let (site, k) = match self.def(code, idx, mul_at) {
                Some((
                    &COp::Bin {
                        op: BinOp::Add,
                        ty: PtxType::U32,
                        a: AVal::Slot(site),
                        b: AVal::Imm(k),
                        ..
                    },
                    idx_at,
                )) if self.stable(site, idx_at) => (site, k as u32),
                _ if self.stable(idx, mul_at) => (idx, 0),
                _ => return None,
            };
            Some(Addr::Indexed {
                arg,
                site,
                k,
                scale: w as u32,
                offset,
                first: false,
            })
        })
    }

    /// The `f64` a `mov.b64 dst, {lo, hi}` at `at` rebuilds after both
    /// halves went through one butterfly, and the lane mask: `lo` and `hi`
    /// each the one-use `shfl.bfly` of the matching half of one unpack of
    /// that `f64`, which holds its value at `at`.
    fn butterfly(&self, code: &[COp], lo: u32, hi: u32, at: usize) -> Option<(u32, u32)> {
        let shfl = |half: u32| match self.single(code, half, at)? {
            (&COp::Shfl { src, lane_mask, .. }, shfl_at) => Some((src, lane_mask, shfl_at)),
            _ => None,
        };
        let ((a, mask, a_at), (b, mask_b, b_at)) = (shfl(lo)?, shfl(hi)?);
        let unpack = |half: u32, shfl_at: usize| match self.single(code, half, shfl_at)? {
            (&COp::Unpack { lo, hi, src }, u_at) => Some((lo, hi, src, u_at)),
            _ => None,
        };
        let (ulo, uhi, src, u_at) = unpack(a, a_at)?;
        let same = unpack(b, b_at)?.3 == u_at && (ulo, uhi) == (a, b);
        (same && mask == mask_b && self.stable(src, at)).then_some((src, mask))
    }

    /// The product `(a, b)` and the form of the addend `w` of a `ty` fma at
    /// `at`, when `w` is a product chain the product fold takes.
    fn product(&self, code: &[COp], ty: PtxType, w: u32, at: usize) -> Option<(u32, u32, Acc)> {
        // `p = a·b` in `ty`, read only at `at`.
        let mul = |p: u32, at: usize| -> Option<(u32, u32)> {
            let (
                &COp::Bin {
                    op: BinOp::Mul,
                    ty: t,
                    a: AVal::Slot(a),
                    b: AVal::Slot(b),
                    ..
                },
                p_at,
            ) = self.single(code, p, at)?
            else {
                return None;
            };
            (t == ty && self.stable(a, p_at) && self.stable(b, p_at)).then_some((a, b))
        };
        let (w_op, w_at) = self.single(code, w, at)?;
        let ((a, b), acc) = match *w_op {
            COp::Bin { op: BinOp::Mul, .. } => (mul(w, at)?, Acc::Product),
            COp::Neg {
                ty: t,
                src: AVal::Slot(p),
                ..
            } if t == ty => (mul(p, w_at)?, Acc::Negated),
            COp::Bin {
                op: BinOp::Add,
                ty: t,
                a: AVal::Slot(x),
                b: AVal::Slot(y),
                ..
            } if t == ty => [(x, y), (y, x)].into_iter().find_map(|(acc, p)| {
                self.stable(acc, w_at).then_some(())?;
                Some((mul(p, w_at)?, Acc::Add(acc)))
            })?,
            COp::Bin {
                op: BinOp::Sub,
                ty: t,
                a: AVal::Slot(acc),
                b: AVal::Slot(p),
                ..
            } if t == ty && self.stable(acc, w_at) => (mul(p, w_at)?, Acc::Sub(acc)),
            _ => return None,
        };
        Some((a, b, acc))
    }
}

/// Fold the generator's chains into the op that consumes them, then drop
/// every definition a fold left without a use. Three folds, over one
/// def/use census of the code:
///
/// - **Addresses.** Each load's and store's address chain becomes
///   [`Addr::Indexed`] — ptxas' `[reg+imm]` addressing, widened to the
///   generator's whole chain:
///
///   ```text
///   ld.param.u64 base, [p];  add.u32 idx, site, K;  mul.wide.u32 off, idx, W;
///   add.u64 a, base, off;  ld [a+imm]   →   ld [p + ((site +₃₂ K) as u64)·W + imm]
///   ```
///
///   The base is read from the argument array, so the sweep drops the
///   pointer's `ld.param` too. The u32 wrap of `site + K` is kept, so the
///   fold is exact at any volume. Any other address — a `selp` of a remote
///   and a local one, a hand-written `[reg+imm]` — stays [`Addr::Reg`].
/// - **Butterflies** (when `values`). Each `mov.b64 d, {lo, hi}` whose
///   halves are the one-use `shfl.bfly`s, with one lane mask, of the halves
///   of one `mov.b64 {lo, hi}, s` becomes one [`COp::Bfly`] of `s` — the
///   reduction epilogue's 64-bit lane permutation, bit for bit.
/// - **Products** (when `values`). Each `fma(c, d, w)` whose addend `w`
///   is `a·b`, `−(a·b)`, `acc + a·b` or `acc − a·b`, with `w` and the
///   product read by nothing else and every operand a register of the
///   fma's float type, becomes one [`COp::MulAcc`] — the value algebra's
///   complex multiply-accumulate, `mul → neg|add|sub → fma`, as one op.
///   Each lane rounds the same IEEE steps in the same order, so the bits
///   are the same (only NaN payloads are not fixed).
///
/// Only registers defined once, before the instruction that reads them,
/// take part: each folded operand then holds at the consumer the value it
/// held in the chain (the program is straight-line but for exits). Each
/// rewrite moves the census' use counts from the operands it stops reading
/// to those it reads, so the sweep starts from them.
fn fold_chains(code: &mut Vec<COp>, n: usize, values: bool) {
    let mut c = Census {
        defs: vec![0; n],
        def_at: vec![NONE; n],
        uses: vec![0; n],
    };
    for (i, op) in code.iter_mut().enumerate() {
        visit_slots(op, &mut |s, def| {
            let s = *s as usize;
            if def {
                c.defs[s] += 1;
                c.def_at[s] = i as u32;
            } else {
                c.uses[s] += 1;
            }
        });
    }
    // A fold reads only definitions no fold rewrites, and takes a use only
    // from its chain's one reader or onto a register other readers keep,
    // so folding in place decides as on the census.
    let mut accessed = vec![false; n];
    for i in 0..code.len() {
        match code[i] {
            COp::Ld {
                addr: Addr::Reg { slot, offset },
                ..
            }
            | COp::St {
                addr: Addr::Reg { slot, offset },
                ..
            } => {
                let Some(mut folded) = c.address(code, slot, offset, i) else {
                    continue;
                };
                if let Addr::Indexed { site, first, .. } = &mut folded {
                    *first = !std::mem::replace(&mut accessed[*site as usize], true);
                    c.uses[slot as usize] -= 1;
                    c.uses[*site as usize] += 1;
                }
                if let COp::Ld { addr, .. } | COp::St { addr, .. } = &mut code[i] {
                    *addr = folded;
                }
            }
            COp::Pack { dst, lo, hi } if values => {
                let Some((src, lane_mask)) = c.butterfly(code, lo, hi, i) else {
                    continue;
                };
                c.uses[lo as usize] -= 1;
                c.uses[hi as usize] -= 1;
                c.uses[src as usize] += 1;
                code[i] = COp::Bfly {
                    dst,
                    src,
                    lane_mask,
                };
            }
            COp::Fma {
                ty,
                dst,
                a: AVal::Slot(x),
                b: AVal::Slot(y),
                c: AVal::Slot(w),
            } if values => {
                let Some((a, b, acc)) = c.product(code, ty, w, i) else {
                    continue;
                };
                c.uses[w as usize] -= 1;
                for s in [Some(a), Some(b), acc.slot()].into_iter().flatten() {
                    c.uses[s as usize] += 1;
                }
                code[i] = COp::MulAcc {
                    ty,
                    dst,
                    a,
                    b,
                    acc,
                    c: x,
                    d: y,
                };
            }
            _ => {}
        }
    }
    let Census { mut uses, .. } = c;

    // Dead-code sweep, last instruction first, so a chain dies link by link.
    let mut keep = vec![true; code.len()];
    for (i, op) in code.iter_mut().enumerate().rev() {
        if matches!(op, COp::Ld { .. } | COp::St { .. } | COp::Bra { .. } | COp::Ret) {
            continue;
        }
        // Dead when it defines something and nothing reads any of it (an
        // unpack defines two halves).
        let (mut defs, mut read) = (false, false);
        visit_slots(op, &mut |s, def| {
            defs |= def;
            read |= def && uses[*s as usize] > 0;
        });
        if defs && !read {
            keep[i] = false;
            visit_slots(op, &mut |s, def| uses[*s as usize] -= u32::from(!def));
        }
    }
    // Exit targets (always a kept `ret`) move down by the ops dropped before them.
    let new_index: Vec<u32> = keep
        .iter()
        .scan(0u32, |kept, &k| {
            let at = *kept;
            *kept += u32::from(k);
            Some(at)
        })
        .collect();
    let mut kept = keep.into_iter();
    code.retain_mut(|op| {
        if let COp::Bra { target, .. } = op {
            *target = new_index[*target as usize];
        }
        kept.next() == Some(true)
    });
}

/// A kernel's register columns.
struct Registers {
    /// Columns the program's slots were rewritten to.
    cols: u32,
    /// Leading columns read before any write.
    zeroed: u32,
}

/// Allocate `n` slots to columns by live range, approximated as first to
/// last mention: a column per register, free again after its last
/// mention. A register read before any write keeps a column of its own
/// among the leading zeroed ones, so the read sees 0 as in a fresh register
/// file.
fn allocate_registers(code: &mut [COp], n: usize) -> Registers {
    let (_, mut last, zeroed) = live_ranges(code, n);
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
        cols: n_cols,
        zeroed: n_zeroed,
    }
}

/// The "driver JIT" entry point used by [`crate::cache::KernelCache`]:
/// parse PTX text and lower every kernel (Fig. 2), which validates it
/// first. The text is lowered as written — the code generator prints its
/// final program, so nothing here rewrites it.
pub fn compile_ptx(text: &str) -> Result<Vec<CompiledKernel>, JitError> {
    let module = qdp_ptx::parse::parse_module(text)?;
    module.kernels.iter().map(lower_kernel).collect()
}

/// The code generator's golden kernels, pinned by `qdp-core`'s snapshot
/// tests — the lowering and executor tests run them.
#[cfg(test)]
pub(crate) const GOLDEN_PTX: [(&str, &str); 8] = [
    (
        "axpy_fermion_dp",
        include_str!("../../core/tests/snapshots/axpy_fermion_dp.ptx"),
    ),
    (
        "fused_axpy_norm2_dp",
        include_str!("../../core/tests/snapshots/fused_axpy_norm2_dp.ptx"),
    ),
    (
        "fused_force_accum_dp",
        include_str!("../../core/tests/snapshots/fused_force_accum_dp.ptx"),
    ),
    (
        "shift_cm_even_dp",
        include_str!("../../core/tests/snapshots/shift_cm_even_dp.ptx"),
    ),
    (
        "su3_mul_dp",
        include_str!("../../core/tests/snapshots/su3_mul_dp.ptx"),
    ),
    (
        "wilson_dslash_dp",
        include_str!("../../core/tests/snapshots/wilson_dslash_dp.ptx"),
    ),
    (
        "wilson_dslash_sp",
        include_str!("../../core/tests/snapshots/wilson_dslash_sp.ptx"),
    ),
    (
        "inner_product_sp",
        include_str!("../../core/tests/snapshots/inner_product_sp.ptx"),
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_ptx::emit::emit_module;
    use qdp_ptx::module::{KernelBuilder, Module};
    use std::collections::HashSet;

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
        // Unlaunched, both hold an empty tuning record: their Debug forms
        // compare every field.
        let direct = lower_kernel(&module.kernels[0]).unwrap();
        assert_eq!(format!("{:?}", compiled[0]), format!("{direct:?}"));
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

    /// Checked against the registers' live ranges in the PTX itself. The
    /// unfolded lowering mentions exactly the registers each PTX instruction
    /// reads and writes; each folded access is the address its PTX chain
    /// computes, and it reads the chain's site register instead of the
    /// address register; each product fold is the `fma` of its PTX chain,
    /// and it reads the chain's product and accumulator registers instead
    /// of the addend. Over those PTX-derived ranges of the folded program,
    /// every register keeps one column and a column's registers never
    /// overlap; each butterfly fold is the unpack → shuffles → pack chain
    /// of its PTX, and it reads the unpacked `f64` instead of the shuffled
    /// halves. No golden `selp` picks an address, so a halo-shaped kernel
    /// whose selected address stays `[reg+imm]` joins them.
    #[test]
    fn live_registers_never_share_a_column() {
        for (name, text) in GOLDEN_PTX {
            columns_follow_the_ptx(name, &parse_golden(text));
        }
        let select = build_select();
        columns_follow_the_ptx("select", &select);
        let folded: Vec<bool> = (lower_kernel(&select).unwrap().code.iter())
            .filter_map(|op| match op {
                COp::Ld { addr, .. } | COp::St { addr, .. } => {
                    Some(matches!(addr, Addr::Indexed { .. }))
                }
                _ => None,
            })
            .collect();
        assert_eq!(folded, [false, true], "select: the load keeps its register");
    }

    /// A `selp` picks one of two addresses, as a halo kernel picks a
    /// receive buffer or the local field: its predicate is live across
    /// other definitions, the selected load keeps `[reg+imm]`, and the
    /// store folds.
    fn build_select() -> Kernel {
        let mut b = KernelBuilder::new("select");
        let [p_out, p_in] = ["out", "in"].map(|p| b.param(p, PtxType::U64));
        let tid = b.global_tid();
        let local = b.fresh(RegClass::Pred);
        b.push(Inst::Setp {
            cmp: CmpOp::Ne,
            ty: PtxType::U32,
            dst: local,
            a: tid.into(),
            b: Operand::ImmI(0),
        });
        let off = b.fresh(RegClass::B64);
        b.push(Inst::MulWide {
            dst: off,
            a: tid,
            b: Operand::ImmI(8),
        });
        let [a_in, a_out] = [p_in, p_out].map(|p| {
            let base = b.ld_param(&p, PtxType::U64);
            b.bin(BinOp::Add, PtxType::U64, base.into(), off.into())
        });
        let a = b.fresh(RegClass::B64);
        b.push(Inst::Selp {
            ty: PtxType::U64,
            dst: a,
            a: a_in.into(),
            b: a_out.into(),
            pred: local,
        });
        let v = b.fresh(RegClass::F64);
        b.push(Inst::LdGlobal {
            ty: PtxType::F64,
            dst: v,
            addr: a,
            offset: 0,
        });
        b.push(Inst::StGlobal {
            ty: PtxType::F64,
            addr: a_out,
            offset: 0,
            src: v.into(),
        });
        b.finish()
    }

    fn columns_follow_the_ptx(name: &str, kernel: &Kernel) {
        let body: Vec<&Inst> = kernel
            .body
            .iter()
            .filter(|i| !matches!(i, Inst::Label { .. }))
            .collect();
        let slot = |r: &Reg| {
            let bank = RegClass::all().iter().position(|c| *c == r.class).unwrap();
            kernel.reg_counts[..bank].iter().sum::<u32>() + r.id
        };
        let mentions = |op: &COp| {
            let mut slots = Vec::new();
            visit_slots(&mut op.clone(), &mut |s, def| slots.push((*s, def)));
            slots
        };
        let t = translate(kernel).unwrap();
        assert_eq!(body.len(), t.code.len(), "{name}");
        let mut defs: HashMap<Reg, &Inst> = HashMap::new();
        for (inst, op) in body.iter().zip(&t.code) {
            let mut uses = Vec::new();
            inst.use_regs(&mut uses);
            let mut uses: Vec<u32> = uses.iter().map(slot).collect();
            uses.sort_unstable();
            let def: Vec<Reg> = inst.def_regs().collect();
            let got = mentions(op);
            let got_def: Vec<u32> = got.iter().filter(|(_, d)| *d).map(|(s, _)| *s).collect();
            let mut got: Vec<u32> = got.iter().filter(|(_, d)| !d).map(|(s, _)| *s).collect();
            got.sort_unstable();
            let def_slots: Vec<u32> = def.iter().map(slot).collect();
            assert_eq!((got, got_def), (uses, def_slots), "{name}: {inst:?}");
            defs.extend(def.into_iter().map(|r| (r, *inst)));
        }

        // What the PTX chain behind address register `a` computes, as
        // the folded form and the register the chain starts from.
        let chain = |a: Reg, offset: i64| -> (Addr, Reg) {
            let Inst::Binary {
                op: BinOp::Add,
                ty: PtxType::U64,
                a: Operand::Reg(x),
                b: Operand::Reg(y),
                ..
            } = defs[&a]
            else {
                panic!("{name}: {a} is not an add.u64")
            };
            let (base, off) = if matches!(defs[x], Inst::LdParam { .. }) { (x, y) } else { (y, x) };
            let (Inst::LdParam { param, .. }, Inst::MulWide { a: idx, b: Operand::ImmI(w), .. }) =
                (defs[base], defs[off])
            else {
                panic!("{name}: {a} is not a pointer plus a scaled index")
            };
            let (site, k) = match defs.get(idx) {
                Some(Inst::Binary {
                    op: BinOp::Add,
                    ty: PtxType::U32,
                    a: Operand::Reg(site),
                    b: Operand::ImmI(k),
                    ..
                }) => (*site, *k as u32),
                _ => (*idx, 0),
            };
            let arg = kernel.params.iter().position(|p| p.name == *param).unwrap();
            let addr = Addr::Indexed {
                arg: arg as u32,
                site: slot(&site),
                k,
                scale: *w as u32,
                offset,
                first: false,
            };
            (addr, site)
        };

        // What the PTX chain behind the addend `w` of `fma(c, d, w)` makes
        // of it, as the folded form and the registers the form reads
        // instead of `w`: the product `a·b` is read by a `mul`, negated by
        // a `neg`, or the second operand of a `sub` or (first) of an `add`.
        let product_chain = |inst: &Inst| -> (COp, Vec<Reg>) {
            let &Inst::Fma {
                ty,
                dst,
                a: Operand::Reg(c),
                b: Operand::Reg(d),
                c: Operand::Reg(w),
            } = inst
            else {
                panic!("{name}: {inst:?} is not an fma of registers")
            };
            let mul = |p: &Reg| match defs[p] {
                Inst::Binary {
                    op: BinOp::Mul,
                    a: Operand::Reg(a),
                    b: Operand::Reg(b),
                    ..
                } => Some((*a, *b)),
                _ => None,
            };
            let ((a, b), acc) = match defs[&w] {
                Inst::Binary { op: BinOp::Mul, .. } => (mul(&w).unwrap(), None),
                Inst::Neg {
                    src: Operand::Reg(p),
                    ..
                } => (mul(p).unwrap(), None),
                Inst::Binary {
                    op: op @ (BinOp::Add | BinOp::Sub),
                    a: Operand::Reg(x),
                    b: Operand::Reg(y),
                    ..
                } => match mul(y) {
                    Some(ab) => (ab, Some((*op, *x))),
                    None => (mul(x).unwrap(), Some((*op, *y))),
                },
                other => panic!("{name}: the addend of {inst:?} is {other:?}"),
            };
            let form = match (defs[&w], acc) {
                (Inst::Neg { .. }, _) => Acc::Negated,
                (_, None) => Acc::Product,
                (_, Some((BinOp::Add, e))) => Acc::Add(slot(&e)),
                (_, Some((_, e))) => Acc::Sub(slot(&e)),
            };
            let op = COp::MulAcc {
                ty,
                dst: slot(&dst),
                a: slot(&a),
                b: slot(&b),
                acc: form,
                c: slot(&c),
                d: slot(&d),
            };
            (op, [a, b].into_iter().chain(acc.map(|(_, e)| e)).collect())
        };

        // What the PTX chain behind `mov.b64 d, {lo, hi}` makes of it: the
        // butterfly of the `f64` both halves were unpacked from, which the
        // folded form reads instead of the shuffled halves.
        let butterfly_chain = |inst: &Inst| -> (COp, Reg, [Reg; 2]) {
            let &Inst::Pack { dst, lo, hi } = inst else {
                panic!("{name}: {inst:?} is not a pack")
            };
            let (
                &Inst::Shfl {
                    src: a, lane_mask, ..
                },
                &Inst::Shfl {
                    src: b,
                    lane_mask: mask_b,
                    ..
                },
            ) = (defs[&lo], defs[&hi])
            else {
                panic!("{name}: {inst:?} does not pack two shuffles")
            };
            let &Inst::Unpack {
                lo: ulo,
                hi: uhi,
                src,
            } = defs[&a]
            else {
                panic!("{name}: {a} is not an unpacked half")
            };
            assert_eq!((ulo, uhi, lane_mask), (a, b, mask_b), "{name}: {inst:?}");
            let op = COp::Bfly {
                dst: slot(&dst),
                src: slot(&src),
                lane_mask,
            };
            (op, src, [lo, hi])
        };

        let mut folded = t.code.clone();
        fold_chains(&mut folded, t.widths.len(), true);
        let mut code = folded.clone();
        let regs = allocate_registers(&mut code, t.widths.len());
        assert_eq!(code, lower_kernel(kernel).unwrap().code, "{name}");
        assert_eq!(regs.zeroed, 0, "{name}: generated code writes before it reads");

        // The fold keeps each op it does not drop, in order; only an
        // access's address, an exit's target and an fma's addend change.
        let plain = |op: &COp| {
            let mut op = op.clone();
            match &mut op {
                COp::Ld { addr, .. } | COp::St { addr, .. } => {
                    *addr = Addr::Reg { slot: 0, offset: 0 }
                }
                COp::Bra { target, .. } => *target = 0,
                _ => {}
            }
            op
        };
        let keeps = |unfolded: &COp, op: &COp| match (unfolded, op) {
            (
                &COp::Fma { ty, dst, a, b, .. },
                &COp::MulAcc {
                    ty: t,
                    dst: s,
                    c,
                    d,
                    ..
                },
            ) => (ty, dst, a, b) == (t, s, AVal::Slot(c), AVal::Slot(d)),
            (&COp::Pack { dst, .. }, &COp::Bfly { dst: d, .. }) => dst == d,
            _ => plain(unfolded) == plain(op),
        };
        let mut at = 0;
        let mut ranges: HashMap<Reg, (usize, usize)> = HashMap::new();
        let mut accessed: HashSet<Reg> = HashSet::new();
        for (j, op) in folded.iter().enumerate() {
            while !keeps(&t.code[at], op) {
                at += 1;
                assert!(at < t.code.len(), "{name}: op {j} is not in the unfolded program");
            }
            let inst = body[at];
            at += 1;
            let mut regs = Vec::new();
            inst.use_regs(&mut regs);
            regs.extend(inst.def_regs());
            if let COp::Ld { addr: addr @ Addr::Indexed { .. }, .. }
            | COp::St { addr: addr @ Addr::Indexed { .. }, .. } = op
            {
                let (Inst::LdGlobal { addr: a, offset, .. } | Inst::StGlobal { addr: a, offset, .. }) =
                    inst
                else {
                    panic!("{name}: op {j} folds {inst:?}")
                };
                let (mut want, site) = chain(*a, *offset);
                if let Addr::Indexed { first, .. } = &mut want {
                    *first = accessed.insert(site);
                }
                assert_eq!(*addr, want, "{name}: op {j}");
                regs.retain(|r| r != a);
                regs.push(site);
            }
            if let COp::MulAcc { .. } = op {
                let (want, read) = product_chain(inst);
                assert_eq!(*op, want, "{name}: op {j}");
                let Inst::Fma {
                    c: Operand::Reg(w), ..
                } = inst
                else {
                    unreachable!()
                };
                regs.retain(|r| r != w);
                regs.extend(read);
            }
            if let COp::Bfly { .. } = op {
                let (want, src, halves) = butterfly_chain(inst);
                assert_eq!(*op, want, "{name}: op {j}");
                regs.retain(|r| !halves.contains(r));
                regs.push(src);
            }
            for r in regs {
                ranges.entry(r).or_insert((j, j)).1 = j;
            }
        }

        let mut cols: HashMap<u32, u32> = HashMap::new();
        for (before, after) in folded.iter().zip(&code) {
            for ((s, _), (c, _)) in mentions(before).into_iter().zip(mentions(after)) {
                assert_eq!(*cols.entry(s).or_insert(c), c, "{name}: slot {s} moved");
            }
        }
        let mut by_col: HashMap<u32, Vec<(usize, usize)>> = HashMap::new();
        for (r, range) in &ranges {
            let col = cols.get(&slot(r));
            let col = col.unwrap_or_else(|| panic!("{name}: {r} is live but has no column"));
            by_col.entry(*col).or_default().push(*range);
        }
        assert_eq!(by_col.len() as u32, regs.cols, "{name}");
        for (col, mut rs) in by_col {
            rs.sort_unstable();
            for w in rs.windows(2) {
                assert!(w[0].1 < w[1].0, "{name}: column {col} holds {w:?} at once");
            }
        }
    }

    #[test]
    fn dslash_compacts_to_a_few_dozen_columns() {
        for ((name, text), (want_declared, want_cols)) in GOLDEN_PTX
            .iter()
            .filter(|(n, _)| n.starts_with("wilson_dslash"))
            .zip([(2278, 68), (2277, 68)])
        {
            let kernel = parse_golden(text);
            let declared: u32 = kernel.reg_counts.iter().sum();
            let c = lower_kernel(&kernel).unwrap();
            assert_eq!(declared, want_declared, "{name}");
            assert_eq!(c.n_cols, want_cols, "{name}: columns of {declared} declared");
        }
    }

    /// Printing inverts parsing on the golden kernels, and each golden —
    /// the program that runs — is pinned byte for byte by the FNV digest
    /// of its text, so any change to what the generator produces fails
    /// here, not only in a conformance sweep. (That the sweep leaves the
    /// goldens as they are is `qdp-conformance`'s `generator_final`.)
    #[test]
    fn golden_kernels_reprint_and_optimize_to_pinned_bytes() {
        let pinned = [
            "30080e8062858004",
            "0b8c1bfe8d2d3435",
            "86fbc370a06edb51",
            "71f596d956c9e4b3",
            "f74ca32216821b98",
            "c1db953840ff162b",
            "971b6acd4e12fc17",
            "95b1a3c4377213a4",
        ];
        for ((name, text), o1) in GOLDEN_PTX.iter().zip(pinned) {
            let module = qdp_ptx::parse::parse_module(text).unwrap();
            assert!(
                emit_module(&module) == *text,
                "{name}: reprinted text differs"
            );
            let got = qdp_ptx::hash::stable_text_digest(text);
            assert_eq!(got, o1, "{name} at o1");
        }
    }

    /// The occupancy input (and so the simulated clock) of each golden —
    /// the program production lowers — is what it was when every declared
    /// register had its own slot.
    #[test]
    fn regs_per_thread_is_pinned() {
        let pinned = [150, 156, 122, 43, 122, 193, 135, 81];
        for ((name, text), want) in GOLDEN_PTX.iter().zip(pinned) {
            let c = lower_kernel(&parse_golden(text)).unwrap();
            assert_eq!(c.regs_per_thread, want, "{name}");
        }
    }

    /// Lowered ops per golden after the folds: every address chain folds
    /// into its load or store, the pointer-parameter loads go, each
    /// complex multiply-accumulate of `su3_mul` and the dslashes becomes one
    /// op (the streaming goldens hold none), and each step of a reduction's
    /// butterfly becomes one 64-bit lane permutation.
    #[test]
    fn lowered_op_count_is_pinned() {
        let pinned = [129, 197, 190, 46, 116, 970, 970, 113];
        let got: Vec<usize> = GOLDEN_PTX
            .iter()
            .map(|(_, text)| lower_kernel(&parse_golden(text)).unwrap().code.len())
            .collect();
        assert_eq!(got, pinned);
        for (name, text) in GOLDEN_PTX {
            let c = lower_kernel(&parse_golden(text)).unwrap();
            let left = c.code.iter().filter(|op| {
                matches!(op, COp::MulWide { .. } | COp::LdArg { ty: PtxType::U64, .. })
                    || matches!(op, COp::Bin { ty: PtxType::U64, .. })
            });
            assert_eq!(left.count(), 0, "{name}: address arithmetic left after the fold");
            let halves = c.code.iter().filter(|op| {
                matches!(op, COp::Unpack { .. } | COp::Shfl { .. } | COp::Pack { .. })
            });
            assert_eq!(halves.count(), 0, "{name}: a butterfly step left unfolded");
        }
    }

    /// Forms outside the generator's dialect are errors, never a kernel for
    /// the executor to trip over: well-formed ones parse and fail
    /// validation, and removed spellings no longer parse.
    #[test]
    fn forms_outside_the_dialect_are_errors() {
        let module = |directive: &str, line: &str| {
            format!(
                ".version 3.1\n.target sm_35\n{directive}\n\
                 .visible .entry k(\n\t.param .u64 p\n)\n{{\n\
                 \t.reg .f32 %f<2>;\n\t.reg .f64 %fd<2>;\n\t.reg .b32 %r<2>;\n\
                 \t.reg .b64 %rd<2>;\n\t.reg .pred %p<1>;\n\
                 \tld.param.u64 %rd0, [p];\n\tld.global.f64 %fd0, [%rd0];\n\
                 \tld.global.u32 %r0, [%rd0];\n\t{line}\n\tret;\n}}\n"
            )
        };
        assert!(compile_ptx(&module("", "")).is_ok());
        let invalid = [
            "and.f64 %fd1, %fd0, %fd0;",
            "shr.u64 %rd1, %rd0, 1;",
            "shfl.bfly.b32 %r1, %r0, 32, 0x1f;",
            "mov.b64 {%r0, %r1}, %rd0;",
            "mov.b64 %rd1, {%r0, %r1};",
            "neg.u32 %r1, %r0;",
            "sub.u32 %r1, %r0, %r0;",
            "cvt.u32.f64 %r1, %fd0;",
            "setp.ge.f64 %p0, %fd0, %fd0;",
            "ld.param.pred %p0, [p];",
            // In the dialect, but into a register of the wrong class.
            "mul.wide.u32 %r1, %r0, 8;",
        ];
        let unparsed = [
            "cvt.rzi.u32.f64 %r1, %fd0;",
            "setp.lt.f64 %p0, %fd0, %fd0;",
            "rem.f64 %fd1, %fd0, %fd0;",
            "not.f32 %f1, %f0;",
            "sqrt.rn.u32 %r1, %r0;",
            "shl.f64 %fd1, %fd0, 1;",
            "shl.b32 %r1, %r0, 1;",
            "shfl.down.b32 %r1, %r0, 1, 0x1f;",
            "shfl.idx.b32 %r1, %r0, 1, 0x1f;",
            "mul.wide.s32 %rd1, %r0, 8;",
            // Spelled in pieces, like the ci.sh guard that keeps them out.
            concat!("call", ".uni (%fd1), qdpjit_sin_f64, (%fd0);"),
        ];
        let extern_decl = concat!(
            ".extern",
            " .func (.param .f64 ret) qdpjit_sin_f64 (.param .f64 x0);"
        );
        let mut cases: Vec<_> = invalid.iter().map(|l| (module("", l), true)).collect();
        cases.extend(unparsed.iter().map(|l| (module("", l), false)));
        cases.push((module(extern_decl, ""), false));
        for (text, parses) in cases {
            match compile_ptx(&text) {
                Err(JitError::Ptx(PtxError::Invalid(_))) if parses => {}
                Err(JitError::Ptx(PtxError::Parse { .. })) if !parses => {}
                other => panic!("{text}\n{:?}", other.map(|_| ())),
            }
        }
    }

    /// A kernel that shuffles exits whole warps or fails validation: an
    /// exit on `tid ≥ n` would strand the partners of the lanes it takes,
    /// and is never run lane by lane instead.
    #[test]
    fn a_per_lane_exit_before_a_shuffle_is_rejected() {
        let build = |whole_warps: bool| {
            let mut b = KernelBuilder::new("bfly");
            let p_n = b.param("n", PtxType::U32);
            let tid = b.global_tid();
            let n = b.ld_param(&p_n, PtxType::U32);
            let exit = if whole_warps {
                b.warp_guard(tid, n)
            } else {
                b.guard(tid, n)
            };
            let v = b.mov(PtxType::F64, Operand::ImmF(1.0));
            b.bfly_f64(v, 1);
            b.bind_label(&exit);
            emit_module(&Module::with_kernel(b.finish()))
        };
        assert!(compile_ptx(&build(true)).is_ok());
        match compile_ptx(&build(false)) {
            Err(JitError::Ptx(PtxError::Invalid(m))) => {
                assert!(m.contains("part of a warp"), "{m}")
            }
            other => panic!("{:?}", other.map(|_| ())),
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
                cmp: CmpOp::Ne,
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
