//! PTX kernels, modules and the builder used by the expression unparser.

use crate::emit::inst_text;
use crate::inst::{BinOp, CmpOp, Inst, Operand, SpecialReg};
use crate::types::{PtxType, Reg, RegClass};
use crate::PtxError;
use std::collections::HashSet;

/// Upper bound on `.reg` declaration counts per class. Generated kernels
/// stay in the hundreds; anything past this is a malformed module, and
/// capping it keeps the lowering pass's per-register tables (slot maps,
/// pressure vectors) from attempting multi-gigabyte allocations.
pub const MAX_REGS_PER_CLASS: u32 = 1 << 16;

/// Flat numbering of a kernel's registers — class offset + id over the
/// declared `.reg` counts — so every per-register table is a `Vec`.
pub(crate) struct RegIndex {
    base: [usize; 5],
    counts: [u32; 5],
    /// Registers declared over all classes: the length of a table.
    pub(crate) len: usize,
}

impl RegIndex {
    /// `None` when a count exceeds [`MAX_REGS_PER_CLASS`] (the tables would
    /// be unboundedly large; such a kernel does not validate anyway).
    pub(crate) fn new(counts: [u32; 5]) -> Option<RegIndex> {
        let mut base = [0; 5];
        let mut len = 0;
        for (b, &n) in base.iter_mut().zip(&counts) {
            if n > MAX_REGS_PER_CLASS {
                return None;
            }
            *b = len;
            len += n as usize;
        }
        Some(RegIndex { base, counts, len })
    }

    /// Does every register `kernel` mentions lie within its class's
    /// declared count?
    pub(crate) fn covers(&self, kernel: &Kernel) -> bool {
        let mut regs = Vec::new();
        for inst in &kernel.body {
            regs.clear();
            inst.use_regs(&mut regs);
            regs.extend(inst.def_regs());
            if regs.iter().any(|r| r.id >= self.counts[r.class.index()]) {
                return false;
            }
        }
        true
    }

    /// Slot of a register [`RegIndex::covers`] (or [`Kernel::validate`])
    /// has checked.
    pub(crate) fn at(&self, r: Reg) -> usize {
        self.base[r.class.index()] + r.id as usize
    }
}

/// A kernel parameter (`.param` space).
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type (pointers are `.u64`).
    pub ty: PtxType,
}

/// One `.entry` kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (also the cache key prefix).
    pub name: String,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Instruction sequence.
    pub body: Vec<Inst>,
    /// Number of virtual registers in each class (in [`RegClass::all`]
    /// order) — the `.reg` declarations and the JIT resource model input.
    pub reg_counts: [u32; 5],
}

impl Kernel {
    /// Registers per thread as seen by the occupancy model: 32-bit register
    /// equivalents across all banks (f64/b64 count double, predicates one
    /// each — matching how the real architecture allocates).
    pub fn regs_per_thread(&self) -> u32 {
        let classes = RegClass::all();
        let mut total = 0u32;
        for (i, c) in classes.iter().enumerate() {
            let w = match c.width_bytes() {
                8 => 2,
                _ => 1,
            };
            total += self.reg_counts[i] * w;
        }
        total
    }

    /// Total global-memory traffic of one thread in bytes `(reads, writes)`.
    pub fn thread_bytes(&self) -> (usize, usize) {
        let mut r = 0;
        let mut w = 0;
        for inst in &self.body {
            if let Some((is_load, b)) = inst.global_bytes() {
                if is_load {
                    r += b;
                } else {
                    w += b;
                }
            }
        }
        (r, w)
    }

    /// Floating-point operations of one thread.
    pub fn thread_flops(&self) -> usize {
        self.body.iter().map(|i| i.flops()).sum()
    }

    /// Validate internal consistency: parameters unique, labels resolve,
    /// registers within declared counts, every instruction in the
    /// generator's dialect (`in_dialect`), every destination register of
    /// the class its instruction writes, and, in a kernel that shuffles,
    /// only exits that take whole warps.
    pub fn validate(&self) -> Result<(), PtxError> {
        let mut names = HashSet::new();
        for p in &self.params {
            if !names.insert(p.name.as_str()) {
                return Err(PtxError::Invalid(format!("duplicate param {}", p.name)));
            }
        }
        let labels: HashSet<&str> = self
            .body
            .iter()
            .filter_map(|i| match i {
                Inst::Label { name } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        let classes = RegClass::all();
        for (i, c) in classes.iter().enumerate() {
            if self.reg_counts[i] > MAX_REGS_PER_CLASS {
                return Err(PtxError::Invalid(format!(
                    "kernel {} declares {} {} registers (max {})",
                    self.name,
                    self.reg_counts[i],
                    c.decl_type(),
                    MAX_REGS_PER_CLASS
                )));
            }
        }
        let check_reg = |r: &Reg| -> Result<(), PtxError> {
            let idx = classes.iter().position(|c| *c == r.class).unwrap();
            if r.id >= self.reg_counts[idx] {
                return Err(PtxError::Invalid(format!(
                    "register {} out of declared range {}",
                    r, self.reg_counts[idx]
                )));
            }
            Ok(())
        };
        let mut uses = Vec::new();
        for inst in &self.body {
            if !in_dialect(inst) {
                return Err(PtxError::Invalid(format!(
                    "`{}` is outside the generator's dialect",
                    inst_text(inst)
                )));
            }
            for d in inst.def_regs() {
                check_reg(&d)?;
                let class = def_class(inst);
                if Some(d.class) != class {
                    return Err(PtxError::Invalid(format!(
                        "register {d} cannot hold {}",
                        class.map_or("a value", |c| &c.decl_type()[1..])
                    )));
                }
            }
            if let Inst::Unpack { src, .. } = inst {
                if src.class != RegClass::F64 {
                    return Err(PtxError::Invalid(format!("{src} is not an f64 to split")));
                }
            }
            uses.clear();
            inst.use_regs(&mut uses);
            for u in &uses {
                check_reg(u)?;
            }
            match inst {
                Inst::Bra { target, .. } => {
                    if !labels.contains(target.as_str()) {
                        return Err(PtxError::Invalid(format!("undefined label {target}")));
                    }
                }
                Inst::LdParam { param, .. } => {
                    if !self.params.iter().any(|p| &p.name == param) {
                        return Err(PtxError::Invalid(format!("undefined param {param}")));
                    }
                }
                _ => {}
            }
        }
        self.check_warp_uniform_exits()
    }

    /// A kernel that shuffles may exit only whole warps: a lane that left
    /// early would leave its partners reading nothing, and the executor
    /// could no longer run the warp's lanes in lockstep. So each of its
    /// conditional exits tests a warp base against a bound every lane
    /// shares — `setp.ge.u32 p, w, n` with `w = and.b32 x, -32` and `n`
    /// a parameter or an immediate, each register defined once.
    fn check_warp_uniform_exits(&self) -> Result<(), PtxError> {
        if !self.body.iter().any(|i| matches!(i, Inst::Shfl { .. })) {
            return Ok(());
        }
        // `validate` has checked every register against its class's count.
        let regs = RegIndex::new(self.reg_counts).expect("validated register counts");
        // Per register: `None` never defined, `Some(None)` defined twice or
        // more, `Some(Some(inst))` defined once, by `inst`.
        let mut defs: Vec<Option<Option<&Inst>>> = vec![None; regs.len];
        for inst in &self.body {
            for d in inst.def_regs() {
                let e = &mut defs[regs.at(d)];
                *e = Some(if e.is_none() { Some(inst) } else { None });
            }
        }
        let def = |r: &Reg| defs[regs.at(*r)].flatten();
        let warp_base = |o: &Operand| match o {
            Operand::Reg(w) => matches!(
                def(w),
                Some(Inst::Binary { op: BinOp::And, b: Operand::ImmI(m), .. })
                    if *m as u32 == !31u32
            ),
            _ => false,
        };
        let shared = |o: &Operand| match o {
            Operand::Reg(n) => matches!(def(n), Some(Inst::LdParam { .. })),
            Operand::ImmI(_) => true,
            Operand::ImmF(_) => false,
        };
        for inst in &self.body {
            let Inst::Bra {
                pred: Some((p, _)),
                target,
            } = inst
            else {
                continue;
            };
            let uniform = matches!(
                def(p),
                Some(Inst::Setp { cmp: CmpOp::Ge, a, b, .. }) if warp_base(a) && shared(b)
            );
            if !uniform {
                return Err(PtxError::Invalid(format!(
                    "kernel {} shuffles, but its branch to {target} may exit part of a warp",
                    self.name
                )));
            }
        }
        Ok(())
    }
}

/// Is `inst` one of the forms the code generator emits? The dialect:
///
/// * `ld.param`, `ld.global` and `st.global` of `f32`/`f64`/`u32`/`u64`
///   (bit moves of either width); `mov` of any type, and `mov.u32` from a
///   special register;
/// * `cvt` between `f32` and `f64`;
/// * `add` on `f32`/`f64`/`u32`/`u64`; `sub`, `mul`, `neg` and `fma.rn` on
///   `f32`/`f64`;
/// * `and.b32`, `shr.u32`, `mul.wide.u32`, `mad.lo.u32`;
/// * `setp.{ge,ne}.u32`, `selp`, `bra`, `ret`;
/// * the warp butterfly: `shfl.bfly.b32` with a lane mask below 32, and
///   `mov.b64` between an `f64` and its `{lo, hi}` halves.
///
/// The parser handles syntax only, so this is the one place a form outside
/// the dialect — say `and.f64` in a hand-written kernel — is turned away,
/// before the sweep, lowering or executor sees it.
fn in_dialect(inst: &Inst) -> bool {
    match inst {
        Inst::LdParam { ty, .. } | Inst::LdGlobal { ty, .. } | Inst::StGlobal { ty, .. } => {
            *ty != PtxType::Pred
        }
        Inst::Cvt { dst_ty, src_ty, .. } => {
            dst_ty.is_float() && src_ty.is_float() && dst_ty != src_ty
        }
        Inst::Neg { ty, .. } | Inst::Fma { ty, .. } => ty.is_float(),
        Inst::Binary { op, ty, .. } => match op {
            BinOp::Add => *ty != PtxType::Pred,
            BinOp::Sub | BinOp::Mul => ty.is_float(),
            BinOp::And | BinOp::Shr => *ty == PtxType::U32,
        },
        Inst::Setp { ty, .. } => *ty == PtxType::U32,
        Inst::Shfl { lane_mask, .. } => *lane_mask < 32,
        Inst::Mov { .. }
        | Inst::MovSpecial { .. }
        | Inst::MulWide { .. }
        | Inst::MadLo { .. }
        | Inst::Selp { .. }
        | Inst::Unpack { .. }
        | Inst::Pack { .. }
        | Inst::Bra { .. }
        | Inst::Label { .. }
        | Inst::Ret => true,
    }
}

/// The register class every register an instruction writes must have:
/// what its type puts there.
fn def_class(inst: &Inst) -> Option<RegClass> {
    Some(match *inst {
        Inst::LdParam { ty, .. }
        | Inst::LdGlobal { ty, .. }
        | Inst::Mov { ty, .. }
        | Inst::Neg { ty, .. }
        | Inst::Binary { ty, .. }
        | Inst::Fma { ty, .. }
        | Inst::Selp { ty, .. } => ty.reg_class(),
        Inst::Cvt { dst_ty, .. } => dst_ty.reg_class(),
        Inst::MovSpecial { .. } | Inst::MadLo { .. } | Inst::Shfl { .. } | Inst::Unpack { .. } => {
            RegClass::B32
        }
        Inst::MulWide { .. } => RegClass::B64,
        Inst::Setp { .. } => RegClass::Pred,
        Inst::Pack { .. } => RegClass::F64,
        Inst::StGlobal { .. } | Inst::Bra { .. } | Inst::Label { .. } | Inst::Ret => return None,
    })
}

/// A PTX module: version/target directives plus kernels (paper Fig. 2's
/// "PTX" stage).
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// PTX ISA version (the paper targets 3.1).
    pub version: (u32, u32),
    /// Target architecture string.
    pub target: String,
    /// Kernels in the module (the generator emits one per expression).
    pub kernels: Vec<Kernel>,
}

impl Module {
    /// A module with the paper's directives (`.version 3.1`,
    /// `.target sm_35` — K20x is GK110/sm_35).
    pub fn new() -> Module {
        Module {
            version: (3, 1),
            target: "sm_35".to_string(),
            kernels: Vec::new(),
        }
    }

    /// Build a single-kernel module.
    pub fn with_kernel(kernel: Kernel) -> Module {
        let mut m = Module::new();
        m.kernels.push(kernel);
        m
    }

    /// Validate all kernels.
    pub fn validate(&self) -> Result<(), PtxError> {
        for k in &self.kernels {
            k.validate()?;
        }
        Ok(())
    }
}

impl Default for Module {
    fn default() -> Self {
        Module::new()
    }
}

/// Incremental kernel builder used by the expression unparser: hands out
/// virtual registers ("JIT values", §III-A) and appends instructions.
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    params: Vec<Param>,
    body: Vec<Inst>,
    next_reg: [u32; 5],
    next_label: u32,
}

impl KernelBuilder {
    /// Start a kernel.
    pub fn new(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            name: name.into(),
            params: Vec::new(),
            body: Vec::new(),
            next_reg: [0; 5],
            next_label: 0,
        }
    }

    /// Declare a parameter; returns its name for `ld.param`.
    pub fn param(&mut self, name: impl Into<String>, ty: PtxType) -> String {
        let name = name.into();
        debug_assert!(
            !self.params.iter().any(|p| p.name == name),
            "duplicate param {name}"
        );
        self.params.push(Param {
            name: name.clone(),
            ty,
        });
        name
    }

    /// Allocate a fresh virtual register of the given class.
    pub fn fresh(&mut self, class: RegClass) -> Reg {
        let idx = RegClass::all().iter().position(|c| *c == class).unwrap();
        let id = self.next_reg[idx];
        self.next_reg[idx] += 1;
        Reg::new(class, id)
    }

    /// Allocate a register that can hold a value of `ty`.
    pub fn fresh_for(&mut self, ty: PtxType) -> Reg {
        self.fresh(ty.reg_class())
    }

    /// Append an instruction.
    pub fn push(&mut self, inst: Inst) {
        self.body.push(inst);
    }

    /// Generate a unique label with the given stem.
    pub fn label(&mut self, stem: &str) -> String {
        let l = format!("${stem}_{}", self.next_label);
        self.next_label += 1;
        l
    }

    /// Place a label here.
    pub fn bind_label(&mut self, name: &str) {
        self.body.push(Inst::Label {
            name: name.to_string(),
        });
    }

    // --- convenience emitters used heavily by codegen -----------------------

    /// `ld.param` into a fresh register.
    pub fn ld_param(&mut self, param: &str, ty: PtxType) -> Reg {
        let dst = self.fresh_for(ty);
        self.push(Inst::LdParam {
            ty,
            dst,
            param: param.to_string(),
        });
        dst
    }

    /// Read a special register into a fresh 32-bit register.
    pub fn special(&mut self, sreg: SpecialReg) -> Reg {
        let dst = self.fresh(RegClass::B32);
        self.push(Inst::MovSpecial { dst, sreg });
        dst
    }

    /// Binary op into a fresh register.
    pub fn bin(&mut self, op: BinOp, ty: PtxType, a: Operand, b: Operand) -> Reg {
        let dst = self.fresh_for(ty);
        self.push(Inst::Binary { op, ty, dst, a, b });
        dst
    }

    /// `fma.rn` into a fresh register.
    pub fn fma(&mut self, ty: PtxType, a: Operand, b: Operand, c: Operand) -> Reg {
        let dst = self.fresh_for(ty);
        self.push(Inst::Fma { ty, dst, a, b, c });
        dst
    }

    /// `mov` an operand into a fresh register.
    pub fn mov(&mut self, ty: PtxType, src: Operand) -> Reg {
        let dst = self.fresh_for(ty);
        self.push(Inst::Mov { ty, dst, src });
        dst
    }

    /// `cvt` from one type to another (fresh destination). Implements the
    /// implicit type promotion of §III-D.
    pub fn cvt(&mut self, dst_ty: PtxType, src_ty: PtxType, src: Reg) -> Reg {
        let dst = self.fresh_for(dst_ty);
        self.push(Inst::Cvt {
            dst_ty,
            src_ty,
            dst,
            src,
        });
        dst
    }

    /// Compute the global thread index `ctaid.x * ntid.x + tid.x`, the
    /// paper's site index `iV` ("the loop over the site index is implemented
    /// by CUDA thread parallelisation", §III-C).
    pub fn global_tid(&mut self) -> Reg {
        let ctaid = self.special(SpecialReg::CtaidX);
        let ntid = self.special(SpecialReg::NtidX);
        let tid = self.special(SpecialReg::TidX);
        let dst = self.fresh(RegClass::B32);
        self.push(Inst::MadLo {
            dst,
            a: ctaid.into(),
            b: ntid.into(),
            c: tid.into(),
        });
        dst
    }

    /// Emit the bounds guard: threads with `tid >= n` jump to the exit
    /// label (which the caller must bind before `ret`). Returns the label.
    pub fn guard(&mut self, tid: Reg, n: Reg) -> String {
        let exit = self.label("exit");
        let p = self.fresh(RegClass::Pred);
        self.push(Inst::Setp {
            cmp: CmpOp::Ge,
            ty: PtxType::U32,
            dst: p,
            a: tid.into(),
            b: n.into(),
        });
        self.push(Inst::Bra {
            target: exit.clone(),
            pred: Some((p, false)),
        });
        exit
    }

    /// Emit the warp guard of a kernel that shuffles: a warp whose first
    /// thread `tid & !31` is at or past `n` jumps to the exit label, so
    /// every warp runs whole or not at all. Returns the label.
    pub fn warp_guard(&mut self, tid: Reg, n: Reg) -> String {
        let base = self.bin(BinOp::And, PtxType::U32, tid.into(), Operand::ImmI(-32));
        self.guard(base, n)
    }

    /// One butterfly step on an `f64`: its halves shuffled across lanes
    /// `l` and `l ^ lane_mask` and joined again — the partner's value.
    pub fn bfly_f64(&mut self, v: Reg, lane_mask: u32) -> Reg {
        let [lo, hi] = [(); 2].map(|_| self.fresh(RegClass::B32));
        self.push(Inst::Unpack { lo, hi, src: v });
        let [slo, shi] = [lo, hi].map(|src| {
            let dst = self.fresh(RegClass::B32);
            self.push(Inst::Shfl {
                dst,
                src,
                lane_mask,
            });
            dst
        });
        let dst = self.fresh(RegClass::F64);
        self.push(Inst::Pack {
            dst,
            lo: slo,
            hi: shi,
        });
        dst
    }

    /// Finish: bind nothing further, seal the register counts.
    pub fn finish(mut self) -> Kernel {
        if !matches!(self.body.last(), Some(Inst::Ret)) {
            self.body.push(Inst::Ret);
        }
        Kernel {
            name: self.name,
            params: self.params,
            body: self.body,
            reg_counts: self.next_reg,
        }
    }

    /// Current instruction count (codegen statistics).
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Is the body empty so far?
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_kernel() -> Kernel {
        // out[i] = a[i] + b[i] over n f32 elements
        let mut b = KernelBuilder::new("vadd_f32");
        let p_out = b.param("out", PtxType::U64);
        let p_a = b.param("a", PtxType::U64);
        let p_b = b.param("b", PtxType::U64);
        let p_n = b.param("n", PtxType::U32);

        let tid = b.global_tid();
        let n = b.ld_param(&p_n, PtxType::U32);
        let exit = b.guard(tid, n);

        let byte_off = b.fresh(RegClass::B64);
        b.push(Inst::MulWide {
            dst: byte_off,
            a: tid,
            b: Operand::ImmI(4),
        });

        let base_a = b.ld_param(&p_a, PtxType::U64);
        let addr_a = b.bin(BinOp::Add, PtxType::U64, base_a.into(), byte_off.into());
        let va = b.fresh(RegClass::F32);
        b.push(Inst::LdGlobal {
            ty: PtxType::F32,
            dst: va,
            addr: addr_a,
            offset: 0,
        });

        let base_b = b.ld_param(&p_b, PtxType::U64);
        let addr_b = b.bin(BinOp::Add, PtxType::U64, base_b.into(), byte_off.into());
        let vb = b.fresh(RegClass::F32);
        b.push(Inst::LdGlobal {
            ty: PtxType::F32,
            dst: vb,
            addr: addr_b,
            offset: 0,
        });

        let sum = b.bin(BinOp::Add, PtxType::F32, va.into(), vb.into());

        let base_o = b.ld_param(&p_out, PtxType::U64);
        let addr_o = b.bin(BinOp::Add, PtxType::U64, base_o.into(), byte_off.into());
        b.push(Inst::StGlobal {
            ty: PtxType::F32,
            addr: addr_o,
            offset: 0,
            src: sum.into(),
        });

        b.bind_label(&exit);
        b.finish()
    }

    #[test]
    fn builder_produces_valid_kernel() {
        let k = simple_kernel();
        k.validate().unwrap();
        assert_eq!(k.params.len(), 4);
        assert!(matches!(k.body.last(), Some(Inst::Ret)));
    }

    #[test]
    fn traffic_accounting() {
        let k = simple_kernel();
        let (r, w) = k.thread_bytes();
        assert_eq!(r, 8); // two f32 loads
        assert_eq!(w, 4); // one f32 store
        assert_eq!(k.thread_flops(), 1);
    }

    #[test]
    fn register_counting() {
        let k = simple_kernel();
        assert!(k.regs_per_thread() > 0);
        // three f32 registers were allocated
        assert_eq!(k.reg_counts[0], 3);
    }

    #[test]
    fn a_warp_exit_tests_registers_defined_once() {
        // A shuffling kernel exits whole warps only through a warp base and
        // a bound each defined once; a second def of either is rejected.
        let build = |redefine: Option<bool>| {
            let mut b = KernelBuilder::new("bfly");
            let p_n = b.param("n", PtxType::U32);
            let tid = b.global_tid();
            let n = b.ld_param(&p_n, PtxType::U32);
            let exit = b.warp_guard(tid, n);
            let v = b.mov(PtxType::F64, Operand::ImmF(1.0));
            b.bfly_f64(v, 1);
            b.bind_label(&exit);
            let mut k = b.finish();
            if let Some(base) = redefine {
                let at = k.body.iter().position(|i| matches!(i, Inst::Setp { .. })).unwrap();
                let Inst::Setp { a: Operand::Reg(w), .. } = k.body[at] else {
                    unreachable!("the guard tests a register")
                };
                let dst = if base { w } else { n };
                // Before the def the check would see, so a table that kept
                // the last def of a register would still accept it.
                let def = k.body.iter().position(|i| i.def_regs().any(|d| d == dst)).unwrap();
                let src = Operand::Reg(tid);
                k.body.insert(def, Inst::Mov { ty: PtxType::U32, dst, src });
            }
            k
        };
        build(None).validate().unwrap();
        for base in [true, false] {
            match build(Some(base)).validate() {
                Err(PtxError::Invalid(m)) => assert!(m.contains("part of a warp"), "{m}"),
                other => panic!("redefined {}: {other:?}", if base { "base" } else { "bound" }),
            }
        }
    }

    #[test]
    fn validation_catches_bad_label() {
        let mut b = KernelBuilder::new("bad");
        b.push(Inst::Bra {
            target: "$nowhere".into(),
            pred: None,
        });
        let k = b.finish();
        assert!(k.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_param() {
        let mut b = KernelBuilder::new("bad");
        let r = b.fresh(RegClass::B64);
        b.push(Inst::LdParam {
            ty: PtxType::U64,
            dst: r,
            param: "missing".into(),
        });
        let k = b.finish();
        assert!(k.validate().is_err());
    }

    #[test]
    fn validation_catches_class_mismatch() {
        let mut b = KernelBuilder::new("bad");
        let r = b.fresh(RegClass::F32);
        b.push(Inst::Mov {
            ty: PtxType::F64,
            dst: r,
            src: Operand::ImmF(1.0),
        });
        let k = b.finish();
        assert!(k.validate().is_err());
    }

    /// A kernel that shuffles validates with a warp guard and fails with
    /// a per-lane one, or with an exit whose bound a lane could compute
    /// for itself.
    #[test]
    fn a_shuffling_kernel_exits_whole_warps() {
        let build = |guard: &str| {
            let mut b = KernelBuilder::new("k");
            let p_n = b.param("n", PtxType::U32);
            let tid = b.global_tid();
            let n = b.ld_param(&p_n, PtxType::U32);
            let exit = match guard {
                "warp" => b.warp_guard(tid, n),
                "lane" => b.guard(tid, n),
                _ => b.warp_guard(tid, tid),
            };
            let v = b.mov(PtxType::F64, Operand::ImmF(2.0));
            b.bfly_f64(v, 16);
            b.bind_label(&exit);
            b.finish()
        };
        build("warp").validate().unwrap();
        for guard in ["lane", "own bound"] {
            assert!(build(guard).validate().is_err(), "{guard}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut b = KernelBuilder::new("k");
        let l1 = b.label("x");
        let l2 = b.label("x");
        assert_ne!(l1, l2);
    }
}
