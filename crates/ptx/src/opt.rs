//! PTX-level peephole optimizer.
//!
//! The code generator emits naive straight-line PTX — one instruction
//! sequence per expression-tree node, with repeated address arithmetic and
//! repeated gauge-link component loads. This module cleans that up after
//! parsing and before lowering, the same slot the driver JIT occupies in
//! the paper's pipeline (§III, Fig. 2). Pass order:
//!
//! 1. **Local value numbering** over each basic block: pure computations
//!    (arithmetic, conversions, parameter/special-register reads, predicate
//!    setes, selects) with identical opcodes and already-numbered operands
//!    collapse to the first occurrence. The availability table is cleared at
//!    every label (join points may be reached along multiple paths).
//! 2. **Redundant `ld.global` elimination**, folded into the same walk: a
//!    load from `[addr+offset]` whose value is already in a register is
//!    replaced by that register. The load table is additionally invalidated
//!    by any `st.global` (the target field may alias an operand field, as
//!    in `psi = a*psi + chi`).
//! 3. **Copy propagation** on register-to-register `mov`: uses of the copy
//!    are rewritten to the source and the `mov` dropped.
//! 4. **Dead-code elimination** in one pass: any instruction defining a
//!    register with no remaining uses is removed (stores, branches, labels
//!    and `ret` are always kept). Uses are counted once; removing a def
//!    decrements its operands' counts, and a count reaching zero queues
//!    that register's def — so a dead chain of any depth goes in one walk.
//! 5. **Register re-tightening**: surviving registers are renumbered
//!    densely per class and the `.reg` declaration counts shrink to match,
//!    which feeds straight into the occupancy model's registers-per-thread
//!    input.
//!
//! Every pass preserves values bit for bit: an optimized kernel stores the
//! same bytes as the unoptimized one, and so as the CPU reference path.
//!
//! Every pass is linear in the kernel's length: per-register tables are
//! flat vectors indexed by class offset + id (`RegIndex`), and the two
//! value-numbering tables hash with a multiply-rotate word hasher
//! (`FxHasher`).
//!
//! Correctness precondition: the passes assume each register is defined at
//! most once (SSA, which the in-tree generator guarantees), that all
//! branches are forward, and that every register lies within its class's
//! declared count. Kernels violating any of these — e.g. arbitrary parsed
//! PTX from the mutation fuzzer — are left untouched and counted in
//! [`OptStats::skipped`]. As defense in depth, an optimized kernel that no
//! longer validates is reverted to its original body and counted in
//! [`OptStats::bailed`]; `optimize_module` therefore never turns a valid
//! module into an invalid one.

use crate::inst::{BinOp, CmpOp, Inst, Operand, SpecialReg};
use crate::module::{Kernel, Module, MAX_REGS_PER_CLASS};
use crate::types::{PtxType, Reg, RegClass};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Optimizer configuration (the `QDP_OPT` knob of `QdpConfig::from_env`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// `QDP_OPT=0` — the optimizer is bypassed entirely (both the DAG-level
    /// CSE in codegen and the PTX passes here).
    None,
    /// Default — every pass: DAG CSE, load elimination, local value
    /// numbering, copy propagation, DCE, register re-tightening. Results
    /// are bit-identical to unoptimized kernels.
    Default,
}

impl OptLevel {
    /// Short tag for cache keys and kernel-name salts.
    pub fn tag(self) -> &'static str {
        match self {
            OptLevel::None => "o0",
            OptLevel::Default => "o1",
        }
    }
}

/// Per-pass counters, summed over the kernels of a module. Reported through
/// telemetry as `opt.*` counters by the JIT cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Redundant `ld.global` instructions removed.
    pub loads_eliminated: u32,
    /// Pure computations collapsed by local value numbering.
    pub values_reused: u32,
    /// Register-to-register `mov`s propagated away.
    pub copies_propagated: u32,
    /// Dead instructions removed (includes the defs orphaned by the
    /// passes above).
    pub dead_removed: u32,
    /// Raw registers freed by re-tightening, summed over classes.
    pub regs_freed: u32,
    /// Kernels skipped because they violate the SSA / forward-branch
    /// precondition.
    pub skipped: u32,
    /// Kernels reverted because the optimized body failed re-validation
    /// (should never fire; counted rather than trusted).
    pub bailed: u32,
}

impl OptStats {
    fn absorb(&mut self, o: OptStats) {
        self.loads_eliminated += o.loads_eliminated;
        self.values_reused += o.values_reused;
        self.copies_propagated += o.copies_propagated;
        self.dead_removed += o.dead_removed;
        self.regs_freed += o.regs_freed;
        self.skipped += o.skipped;
        self.bailed += o.bailed;
    }
}

/// Optimize every kernel of a (validated) module in place.
pub fn optimize_module(module: &mut Module, level: OptLevel) -> OptStats {
    let mut stats = OptStats::default();
    for k in &mut module.kernels {
        stats.absorb(optimize_kernel(k, level));
    }
    stats
}

/// Optimize one (validated) kernel in place. Invalid or precondition-
/// violating kernels are left untouched (see module docs).
pub fn optimize_kernel(kernel: &mut Kernel, level: OptLevel) -> OptStats {
    let mut stats = OptStats::default();
    if level == OptLevel::None {
        return stats;
    }
    let Some(regs) = RegIndex::new(kernel.reg_counts).filter(|r| is_ssa_forward(kernel, r)) else {
        stats.skipped = 1;
        return stats;
    };
    let original = kernel.clone();
    lvn(kernel, &regs, &mut stats);
    dce(kernel, &regs, &mut stats);
    retighten(kernel, &regs, &mut stats);
    if kernel.validate().is_err() {
        *kernel = original;
        return OptStats {
            bailed: 1,
            ..OptStats::default()
        };
    }
    stats
}

/// Sentinel for "no entry" in the `u32` tables below.
const NONE: u32 = u32::MAX;

/// Flat numbering of a kernel's registers — class offset + id over the
/// declared `.reg` counts — so every per-register table is a `Vec`.
struct RegIndex {
    base: [usize; 5],
    counts: [u32; 5],
    len: usize,
}

impl RegIndex {
    /// `None` when a count exceeds [`MAX_REGS_PER_CLASS`] (the tables would
    /// be unboundedly large; such a kernel does not validate anyway).
    fn new(counts: [u32; 5]) -> Option<RegIndex> {
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

    /// Slot of `r`, or `None` if its id is past its class's declared count.
    fn get(&self, r: Reg) -> Option<usize> {
        let c = r.class.index();
        (r.id < self.counts[c]).then(|| self.base[c] + r.id as usize)
    }

    /// Slot of a register the precondition has checked.
    fn at(&self, r: Reg) -> usize {
        self.base[r.class.index()] + r.id as usize
    }
}

/// FxHash's multiply-rotate word hasher, for the value-numbering tables:
/// their keys are a few small integers, where SipHash's setup cost
/// dominates. The keys come from the kernel being optimized, so a kernel
/// crafted to collide them can only slow its own compile.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The soundness precondition: every register declared and defined at most
/// once, every branch targeting a unique label that appears strictly later.
fn is_ssa_forward(kernel: &Kernel, regs: &RegIndex) -> bool {
    let mut defined = vec![false; regs.len];
    let mut label_pos: HashMap<&str, usize> = HashMap::new();
    let mut uses = Vec::new();
    for (i, inst) in kernel.body.iter().enumerate() {
        if let Some(d) = inst.def_reg() {
            match regs.get(d) {
                Some(s) if !defined[s] => defined[s] = true,
                _ => return false, // redefined, or past the declared count
            }
        }
        uses.clear();
        inst.use_regs(&mut uses);
        if uses.iter().any(|&u| regs.get(u).is_none()) {
            return false;
        }
        if let Inst::Label { name } = inst {
            if label_pos.insert(name.as_str(), i).is_some() {
                return false; // duplicate label: branch targets ambiguous
            }
        }
    }
    for (i, inst) in kernel.body.iter().enumerate() {
        if let Inst::Bra { target, .. } = inst {
            match label_pos.get(target.as_str()) {
                Some(&p) if p > i => {}
                _ => return false,
            }
        }
    }
    true
}

/// An operand in a value-numbering key. Immediates key on their bits so
/// `-0.0` and `0.0` stay distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OKey {
    R(RegClass, u32),
    F(u64),
    I(i64),
}

fn okey(o: &Operand) -> OKey {
    match o {
        Operand::Reg(r) => OKey::R(r.class, r.id),
        Operand::ImmF(v) => OKey::F(v.to_bits()),
        Operand::ImmI(v) => OKey::I(*v),
    }
}

/// Value-numbering key for a pure computation. The defining register's
/// class is keyed alongside (`optimize_kernel` may be handed a kernel that
/// never passed validation, whose destination classes are unchecked;
/// reusing a register of another class would change which register file a
/// use reads).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum VKey {
    MovImm(PtxType, OKey),
    Special(SpecialReg),
    Param(PtxType, String),
    Neg(PtxType, OKey),
    Bin(BinOp, PtxType, OKey, OKey),
    MulWide(OKey, OKey),
    MadLo(OKey, OKey, OKey),
    Fma(PtxType, OKey, OKey, OKey),
    Setp(CmpOp, PtxType, OKey, OKey),
    Selp(PtxType, OKey, OKey, OKey),
    Cvt(PtxType, PtxType, OKey),
}

/// Key of a pure instruction, if it is one.
fn vkey(inst: &Inst) -> Option<VKey> {
    Some(match inst {
        Inst::Mov {
            ty,
            src: src @ (Operand::ImmF(_) | Operand::ImmI(_)),
            ..
        } => VKey::MovImm(*ty, okey(src)),
        Inst::MovSpecial { sreg, .. } => VKey::Special(*sreg),
        Inst::LdParam { ty, param, .. } => VKey::Param(*ty, param.clone()),
        Inst::Neg { ty, src, .. } => VKey::Neg(*ty, okey(src)),
        Inst::Binary { op, ty, a, b, .. } => VKey::Bin(*op, *ty, okey(a), okey(b)),
        Inst::MulWide { a, b, .. } => VKey::MulWide(OKey::R(a.class, a.id), okey(b)),
        Inst::MadLo { a, b, c, .. } => VKey::MadLo(okey(a), okey(b), okey(c)),
        Inst::Fma { ty, a, b, c, .. } => VKey::Fma(*ty, okey(a), okey(b), okey(c)),
        Inst::Setp { cmp, ty, a, b, .. } => VKey::Setp(*cmp, *ty, okey(a), okey(b)),
        Inst::Selp { ty, a, b, pred, .. } => VKey::Selp(
            *ty,
            okey(a),
            okey(b),
            OKey::R(pred.class, pred.id),
        ),
        Inst::Cvt {
            dst_ty,
            src_ty,
            src,
            ..
        } => VKey::Cvt(*dst_ty, *src_ty, OKey::R(src.class, src.id)),
        _ => return None,
    })
}

/// One walk performing local value numbering, redundant-load elimination
/// and copy propagation.
///
/// `subst` is global: under the SSA + forward-branch precondition, any
/// well-defined use of a removed definition must lie on a path that also
/// executed the surviving equivalent definition (both sit in the same basic
/// block), so substituting across block boundaries is sound. Only the
/// *availability* tables are block-local: they are cleared at every label,
/// because a join point may be reached without executing the block that
/// made the value available.
fn lvn(kernel: &mut Kernel, regs: &RegIndex, stats: &mut OptStats) {
    // Removed register → its surviving equivalent. An entry is only made
    // for a register with none yet, pointing at one with none at the time,
    // so chains are acyclic.
    let mut subst: Vec<Option<Reg>> = vec![None; regs.len];
    // Sized for the whole body: a generated kernel is one block up to its
    // exit label, and growing the table rehashes every entry.
    let mut avail: FxMap<(VKey, RegClass), Reg> =
        FxMap::with_capacity_and_hasher(kernel.body.len(), Default::default());
    let mut loads: FxMap<(Reg, i64, PtxType), Reg> = FxMap::default();
    let mut out = Vec::with_capacity(kernel.body.len());
    for mut inst in kernel.body.drain(..) {
        inst.map_regs(&mut |r| {
            while let Some(s) = subst[regs.at(*r)] {
                *r = s;
            }
        });
        match &inst {
            Inst::Label { .. } => {
                avail.clear();
                loads.clear();
                out.push(inst);
            }
            Inst::StGlobal { .. } => {
                // The stored-to field may alias a loaded field.
                loads.clear();
                out.push(inst);
            }
            Inst::Mov {
                dst,
                src: Operand::Reg(s),
                ..
            } if s.class == dst.class => {
                // Copy propagation. The class guard matters: `mov` does not
                // validate its source class, and rewriting a use to a
                // register of another class would change which register
                // file it reads. A self-copy (`mov %r, %r`) is a plain
                // no-op: dropping it is enough, and a dst→dst entry would
                // cycle the substitution resolution above.
                if s != dst {
                    subst[regs.at(*dst)] = Some(*s);
                }
                stats.copies_propagated += 1;
            }
            Inst::LdGlobal {
                ty, dst, addr, offset,
            } => match loads.entry((*addr, *offset, *ty)) {
                Entry::Occupied(prev) => {
                    subst[regs.at(*dst)] = Some(*prev.get());
                    stats.loads_eliminated += 1;
                }
                Entry::Vacant(slot) => {
                    slot.insert(*dst);
                    out.push(inst);
                }
            },
            _ => match (vkey(&inst), inst.def_reg()) {
                (Some(key), Some(dst)) => match avail.entry((key, dst.class)) {
                    Entry::Occupied(prev) => {
                        subst[regs.at(dst)] = Some(*prev.get());
                        stats.values_reused += 1;
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(dst);
                        out.push(inst);
                    }
                },
                _ => out.push(inst),
            },
        }
    }
    kernel.body = out;
}

/// Remove instructions whose defined register is never used, in one pass.
/// Every def in this IR is pure (stores, branches, labels and `ret` define
/// nothing), so an unused def is always removable, and removal is
/// confluent: the worklist removes exactly what repeating "drop every
/// unused def" until nothing changes would. Uses are counted over the whole
/// body, so a use textually before its def still counts, and a def that
/// feeds itself (directly or round a cycle) is never queued.
fn dce(kernel: &mut Kernel, regs: &RegIndex, stats: &mut OptStats) {
    let body = &kernel.body;
    let mut count = vec![0u32; regs.len];
    let mut uses = Vec::new();
    for inst in body {
        uses.clear();
        inst.use_regs(&mut uses);
        for &u in &uses {
            count[regs.at(u)] += 1;
        }
    }
    let mut def_at = vec![NONE; regs.len];
    let mut work = Vec::new();
    for (i, inst) in body.iter().enumerate() {
        if let Some(d) = inst.def_reg() {
            def_at[regs.at(d)] = i as u32;
            if count[regs.at(d)] == 0 {
                work.push(i);
            }
        }
    }
    // A def is queued only when its count reaches zero, which happens once.
    let mut dead = vec![false; body.len()];
    while let Some(i) = work.pop() {
        dead[i] = true;
        uses.clear();
        body[i].use_regs(&mut uses);
        for &u in &uses {
            let s = regs.at(u);
            count[s] -= 1;
            if count[s] == 0 && def_at[s] != NONE {
                work.push(def_at[s] as usize);
            }
        }
    }
    let before = kernel.body.len();
    let mut i = 0;
    kernel.body.retain(|_| {
        i += 1;
        !dead[i - 1]
    });
    stats.dead_removed += (before - kernel.body.len()) as u32;
}

/// Renumber surviving registers densely per class, in order of first
/// appearance, and shrink the `.reg` declaration counts to match.
fn retighten(kernel: &mut Kernel, regs: &RegIndex, stats: &mut OptStats) {
    let mut renamed = vec![NONE; regs.len];
    let mut next = [0u32; 5];
    for inst in &mut kernel.body {
        inst.map_regs(&mut |r| {
            let new = &mut renamed[regs.at(*r)];
            if *new == NONE {
                *new = next[r.class.index()];
                next[r.class.index()] += 1;
            }
            r.id = *new;
        });
    }
    for (i, new) in next.into_iter().enumerate() {
        stats.regs_freed += kernel.reg_counts[i].saturating_sub(new);
        kernel.reg_counts[i] = new;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::KernelBuilder;

    fn ld(kb: &mut KernelBuilder, addr: Reg, offset: i64) -> Reg {
        let dst = kb.fresh(RegClass::F64);
        kb.push(Inst::LdGlobal {
            ty: PtxType::F64,
            dst,
            addr,
            offset,
        });
        dst
    }

    fn st(kb: &mut KernelBuilder, addr: Reg, offset: i64, src: Operand) {
        kb.push(Inst::StGlobal {
            ty: PtxType::F64,
            addr,
            offset,
            src,
        });
    }

    /// A valid kernel: load twice from the same address, add, store.
    fn redundant_load_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("k");
        kb.param("p", PtxType::U64);
        let addr = kb.ld_param("p", PtxType::U64);
        let a = ld(&mut kb, addr, 0);
        let b = ld(&mut kb, addr, 0);
        let s = kb.bin(BinOp::Add, PtxType::F64, a.into(), b.into());
        st(&mut kb, addr, 8, s.into());
        kb.finish()
    }

    fn count_loads(k: &Kernel) -> usize {
        k.body
            .iter()
            .filter(|i| matches!(i, Inst::LdGlobal { .. }))
            .count()
    }

    #[test]
    fn redundant_load_is_eliminated() {
        let mut k = redundant_load_kernel();
        k.validate().unwrap();
        let stats = optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(stats.loads_eliminated, 1);
        assert_eq!(count_loads(&k), 1);
        k.validate().unwrap();
        // The add now consumes the surviving load's register twice.
        let add = k
            .body
            .iter()
            .find_map(|i| match i {
                Inst::Binary { a, b, .. } => Some((*a, *b)),
                _ => None,
            })
            .unwrap();
        assert_eq!(add.0, add.1);
    }

    #[test]
    fn store_invalidates_load_table() {
        let mut kb = KernelBuilder::new("k");
        kb.param("p", PtxType::U64);
        let addr = kb.ld_param("p", PtxType::U64);
        let a = ld(&mut kb, addr, 0);
        st(&mut kb, addr, 0, Operand::ImmF(0.0));
        let b = ld(&mut kb, addr, 0);
        st(&mut kb, addr, 8, b.into());
        // Keep `a` live so only load-elim could merge the loads.
        st(&mut kb, addr, 16, a.into());
        let mut k = kb.finish();
        k.validate().unwrap();
        let stats = optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(stats.loads_eliminated, 0, "store must kill the load table");
        assert_eq!(count_loads(&k), 2);
    }

    #[test]
    fn pure_cse_collapses_duplicate_computation() {
        let mut kb = KernelBuilder::new("k");
        kb.param("p", PtxType::U64);
        let addr = kb.ld_param("p", PtxType::U64);
        let x = ld(&mut kb, addr, 0);
        let s1 = kb.bin(BinOp::Mul, PtxType::F64, x.into(), x.into());
        let s2 = kb.bin(BinOp::Mul, PtxType::F64, x.into(), x.into());
        let t = kb.bin(BinOp::Add, PtxType::F64, s1.into(), s2.into());
        st(&mut kb, addr, 0, t.into());
        let mut k = kb.finish();
        k.validate().unwrap();
        let stats = optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(stats.values_reused, 1);
        let muls = k
            .body
            .iter()
            .filter(|i| matches!(i, Inst::Binary { op: BinOp::Mul, .. }))
            .count();
        assert_eq!(muls, 1);
        k.validate().unwrap();
    }

    #[test]
    fn copy_propagation_drops_mov() {
        let mut kb = KernelBuilder::new("k");
        kb.param("p", PtxType::U64);
        let addr = kb.ld_param("p", PtxType::U64);
        let x = ld(&mut kb, addr, 0);
        let y = kb.mov(PtxType::F64, x.into());
        st(&mut kb, addr, 8, y.into());
        let mut k = kb.finish();
        k.validate().unwrap();
        let stats = optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(stats.copies_propagated, 1);
        assert!(!k.body.iter().any(|i| matches!(i, Inst::Mov { .. })));
        // The store now reads the (renumbered) load register directly.
        let ld_dst = k
            .body
            .iter()
            .find_map(|i| match i {
                Inst::LdGlobal { dst, .. } => Some(*dst),
                _ => None,
            })
            .unwrap();
        let st_src = k
            .body
            .iter()
            .find_map(|i| match i {
                Inst::StGlobal { src, .. } => Some(*src),
                _ => None,
            })
            .unwrap();
        assert_eq!(st_src, Operand::Reg(ld_dst));
        k.validate().unwrap();
    }

    #[test]
    fn dce_removes_unused_chain_and_retightens_regs() {
        let mut kb = KernelBuilder::new("k");
        kb.param("p", PtxType::U64);
        let addr = kb.ld_param("p", PtxType::U64);
        let x = ld(&mut kb, addr, 0);
        // Dead chain: d1 feeds d2, nothing uses d2.
        let d1 = kb.bin(BinOp::Add, PtxType::F64, x.into(), Operand::ImmF(1.0));
        let _d2 = kb.bin(BinOp::Mul, PtxType::F64, d1.into(), d1.into());
        st(&mut kb, addr, 8, x.into());
        let mut k = kb.finish();
        k.validate().unwrap();
        let before_f64 = k.reg_counts[1];
        let stats = optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(stats.dead_removed, 2, "whole dead chain removed");
        assert!(stats.regs_freed >= 2);
        assert_eq!(k.reg_counts[1], before_f64 - 2);
        k.validate().unwrap();
        assert_eq!(count_loads(&k), 1);
    }

    /// `x = ld; d1 = x + 1; d2 = d1 + 1; …` for `depth` links; returns the
    /// builder, the address register, `x` and the chain's last register.
    fn chain_kernel(depth: usize) -> (KernelBuilder, Reg, Reg, Reg) {
        let mut kb = KernelBuilder::new("k");
        kb.param("p", PtxType::U64);
        let addr = kb.ld_param("p", PtxType::U64);
        let x = ld(&mut kb, addr, 0);
        let mut last = x;
        for _ in 0..depth {
            last = kb.bin(BinOp::Add, PtxType::F64, last.into(), Operand::ImmF(1.0));
        }
        (kb, addr, x, last)
    }

    fn count_adds(k: &Kernel) -> usize {
        k.body
            .iter()
            .filter(|i| matches!(i, Inst::Binary { op: BinOp::Add, .. }))
            .count()
    }

    #[test]
    fn deep_dead_chain_goes_in_one_call() {
        let (mut kb, addr, x, _) = chain_kernel(10_000);
        st(&mut kb, addr, 8, x.into());
        let mut k = kb.finish();
        k.validate().unwrap();
        let stats = optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(stats.dead_removed, 10_000);
        assert_eq!(count_adds(&k), 0);
        assert_eq!(k.reg_counts[RegClass::F64.index()], 1);
        k.validate().unwrap();
    }

    #[test]
    fn chain_feeding_a_store_survives() {
        let (mut kb, addr, _, last) = chain_kernel(100);
        st(&mut kb, addr, 8, last.into());
        let mut k = kb.finish();
        let stats = optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(stats.dead_removed, 0);
        assert_eq!(count_adds(&k), 100);
    }

    /// Hand-placed defs that the generator never emits: each must keep its
    /// instruction, as repeating "drop unused defs" to a fixpoint did.
    #[test]
    fn uses_before_defs_self_uses_and_cycles_are_kept() {
        let add = |dst, a: Reg| Inst::Binary {
            op: BinOp::Add,
            ty: PtxType::F64,
            dst,
            a: a.into(),
            b: Operand::ImmF(1.0),
        };
        let mut kb = KernelBuilder::new("k");
        kb.param("p", PtxType::U64);
        let addr = kb.ld_param("p", PtxType::U64);
        let x = ld(&mut kb, addr, 0);
        let [early, own, c1, c2] = [(); 4].map(|_| kb.fresh(RegClass::F64));
        // `early` is stored before the add that defines it.
        st(&mut kb, addr, 8, early.into());
        kb.push(add(early, x));
        // `own` feeds only itself.
        kb.push(add(own, own));
        // `c1` and `c2` feed only each other.
        kb.push(add(c1, c2));
        kb.push(add(c2, c1));
        let mut k = kb.finish();
        k.validate().unwrap();
        let stats = optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!((stats.skipped, stats.dead_removed), (0, 0));
        assert_eq!(count_adds(&k), 4);
        k.validate().unwrap();
    }

    #[test]
    fn undeclared_register_is_skipped() {
        // A use past `%fd<1>`, and one in a class with no registers.
        for undeclared in [Reg::new(RegClass::F64, 5), Reg::new(RegClass::F32, 0)] {
            let mut kb = KernelBuilder::new("k");
            kb.param("p", PtxType::U64);
            let addr = kb.ld_param("p", PtxType::U64);
            let x = ld(&mut kb, addr, 0);
            st(&mut kb, addr, 8, x.into());
            st(&mut kb, addr, 16, undeclared.into());
            let mut k = kb.finish();
            assert!(k.validate().is_err());
            let before = k.clone();
            let stats = optimize_kernel(&mut k, OptLevel::Default);
            assert_eq!(stats.skipped, 1, "{undeclared}");
            assert_eq!(k, before);
        }
        // An undeclared def, and a count too large to index.
        let (kb, _, _, _) = chain_kernel(3);
        let mut k = kb.finish();
        k.reg_counts[RegClass::F64.index()] = 2;
        assert_eq!(optimize_kernel(&mut k, OptLevel::Default).skipped, 1);
        k.reg_counts[RegClass::F64.index()] = u32::MAX;
        assert_eq!(optimize_kernel(&mut k, OptLevel::Default).skipped, 1);
    }

    #[test]
    fn avail_table_is_cleared_at_labels() {
        // x+1 computed before the label and again after it: a join point
        // may be reached without executing the first block, so LVN must
        // not merge across the label (loads likewise).
        let mut kb = KernelBuilder::new("k");
        kb.param("p", PtxType::U64);
        let addr = kb.ld_param("p", PtxType::U64);
        let x = ld(&mut kb, addr, 0);
        let a = kb.bin(BinOp::Add, PtxType::F64, x.into(), Operand::ImmF(1.0));
        st(&mut kb, addr, 8, a.into());
        let join = kb.label("join");
        kb.push(Inst::Bra {
            target: join.clone(),
            pred: None,
        });
        kb.bind_label(&join);
        let b = kb.bin(BinOp::Add, PtxType::F64, x.into(), Operand::ImmF(1.0));
        st(&mut kb, addr, 16, b.into());
        let mut k = kb.finish();
        k.validate().unwrap();
        let stats = optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(stats.values_reused, 0, "no CSE across a label");
        let adds = k
            .body
            .iter()
            .filter(|i| matches!(i, Inst::Binary { op: BinOp::Add, .. }))
            .count();
        assert_eq!(adds, 2);
        k.validate().unwrap();
    }

    #[test]
    fn non_ssa_kernel_is_skipped() {
        let mut kb = KernelBuilder::new("k");
        kb.param("p", PtxType::U64);
        let addr = kb.ld_param("p", PtxType::U64);
        let x = ld(&mut kb, addr, 0);
        // Redefine x — not SSA.
        kb.push(Inst::LdGlobal {
            ty: PtxType::F64,
            dst: x,
            addr,
            offset: 0,
        });
        st(&mut kb, addr, 8, x.into());
        let mut k = kb.finish();
        k.validate().unwrap();
        let before = k.clone();
        let stats = optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(stats.skipped, 1);
        assert_eq!(k, before, "precondition violation leaves kernel untouched");
    }

    #[test]
    fn backward_branch_is_skipped() {
        let mut kb = KernelBuilder::new("k");
        kb.param("p", PtxType::U64);
        let addr = kb.ld_param("p", PtxType::U64);
        let top = kb.label("top");
        kb.bind_label(&top);
        let x = ld(&mut kb, addr, 0);
        st(&mut kb, addr, 8, x.into());
        kb.push(Inst::Bra {
            target: top,
            pred: None,
        });
        let mut k = kb.finish();
        k.validate().unwrap();
        let stats = optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(stats.skipped, 1);
    }

    #[test]
    fn level_none_is_identity() {
        let mut k = redundant_load_kernel();
        let before = k.clone();
        let stats = optimize_kernel(&mut k, OptLevel::None);
        assert_eq!(stats, OptStats::default());
        assert_eq!(k, before);
    }

    #[test]
    fn levels_from_tags() {
        assert_eq!(OptLevel::None.tag(), "o0");
        assert_eq!(OptLevel::Default.tag(), "o1");
    }
}
