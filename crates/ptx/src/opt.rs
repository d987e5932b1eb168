//! The code generator's last step: the dead-def sweep.
//!
//! `PtxGen` memoises what its walk would otherwise repeat — site paths,
//! constants, parameter loads, address arithmetic — and the DAG CSE wrapper
//! memoises loads and arithmetic per statement, so the program it builds
//! computes nothing twice. The walk still leaves defs nothing reads (parts
//! of a value the statement never stores, the base pointer of a leaf whose
//! loads were all shared) and gaps in the register numbering. At
//! `OptLevel::Default` the generator runs [`optimize_kernel`] on the built
//! kernel before printing it, so the text it prints is the program that
//! runs: nothing downstream rewrites PTX. The sweep is two passes:
//!
//! 1. **Dead-code elimination** in one pass: any instruction defining a
//!    register with no remaining uses is removed (stores, branches, labels
//!    and `ret` are always kept). Uses are counted once; removing a def
//!    decrements its operands' counts, and a count reaching zero queues
//!    that register's def — so a dead chain of any depth goes in one walk.
//! 2. **Register re-tightening**: surviving registers are renumbered
//!    densely per class and the `.reg` declaration counts shrink to match,
//!    which feeds straight into the occupancy model's registers-per-thread
//!    input.
//!
//! Both preserve values bit for bit, and neither needs SSA form or
//! forward branches: a register nobody reads can lose any of its defs, and
//! renaming every mention of a register alike is a bijection. Both are
//! linear in the kernel's length: per-register tables are flat vectors
//! indexed by class offset + id (`RegIndex`).
//!
//! Precondition: every register lies within its class's declared count.
//! A kernel violating it — arbitrary parsed PTX from the mutation fuzzer,
//! say — is left untouched. As defense in depth, a swept kernel that no
//! longer validates is reverted to its original body; `optimize_module`
//! therefore never turns a valid module into an invalid one.

use crate::module::{Kernel, Module, RegIndex};

/// Optimizer configuration (the `QDP_OPT` knob of `QdpConfig::from_env`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// `QDP_OPT=0` — the generator prints its walk verbatim: no DAG CSE,
    /// no address memo, no sweep.
    None,
    /// Default — DAG CSE and the address memo in the generator, then the
    /// sweep. Results are bit-identical to unoptimized kernels.
    Default,
}

/// Sweep every kernel of a (validated) module in place.
pub fn optimize_module(module: &mut Module, level: OptLevel) {
    for k in &mut module.kernels {
        optimize_kernel(k, level);
    }
}

/// Sweep one (validated) kernel in place. A kernel with a register past
/// its declared count is left untouched (see module docs).
pub fn optimize_kernel(kernel: &mut Kernel, level: OptLevel) {
    if level == OptLevel::None {
        return;
    }
    let Some(regs) = RegIndex::new(kernel.reg_counts).filter(|r| r.covers(kernel)) else {
        return;
    };
    let original = kernel.clone();
    dce(kernel, &regs);
    retighten(kernel, &regs);
    if kernel.validate().is_err() {
        *kernel = original;
    }
}

/// Sentinel for "no entry" in the `u32` tables below.
const NONE: u32 = u32::MAX;

/// Remove instructions whose defined registers are never used, in one
/// pass. Every def in this IR is pure (stores, branches, labels and `ret`
/// define nothing), so an instruction none of whose defs is read is always
/// removable, and removal is confluent: the worklist removes exactly what
/// repeating "drop every unread def" until nothing changes would. Uses are
/// counted over the whole body, so a use textually before its def still
/// counts, and a def that feeds itself (directly or round a cycle) is never
/// queued. An instruction with two defs (an `f64`'s halves) goes when the
/// last of them loses its last use.
fn dce(kernel: &mut Kernel, regs: &RegIndex) {
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
    // Per instruction: how many of its defs are still read.
    let mut read_defs = vec![0u32; body.len()];
    let mut work = Vec::new();
    for (i, inst) in body.iter().enumerate() {
        let mut defs = 0;
        for d in inst.def_regs() {
            def_at[regs.at(d)] = i as u32;
            defs += 1;
            read_defs[i] += u32::from(count[regs.at(d)] > 0);
        }
        if defs > 0 && read_defs[i] == 0 {
            work.push(i);
        }
    }
    // An instruction is queued only when its last read def loses its last
    // use, which happens once.
    let mut dead = vec![false; body.len()];
    while let Some(i) = work.pop() {
        dead[i] = true;
        uses.clear();
        body[i].use_regs(&mut uses);
        for &u in &uses {
            let s = regs.at(u);
            count[s] -= 1;
            if count[s] == 0 && def_at[s] != NONE {
                let d = def_at[s] as usize;
                read_defs[d] -= 1;
                if read_defs[d] == 0 {
                    work.push(d);
                }
            }
        }
    }
    let mut i = 0;
    kernel.body.retain(|_| {
        i += 1;
        !dead[i - 1]
    });
}

/// Renumber surviving registers densely per class, in order of first
/// appearance, and shrink the `.reg` declaration counts to match.
fn retighten(kernel: &mut Kernel, regs: &RegIndex) {
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
    kernel.reg_counts = next;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Inst, Operand};
    use crate::module::KernelBuilder;
    use crate::types::{PtxType, Reg, RegClass};

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

    fn count_loads(k: &Kernel) -> usize {
        k.body
            .iter()
            .filter(|i| matches!(i, Inst::LdGlobal { .. }))
            .count()
    }

    fn add(dst: Reg, a: Reg) -> Inst {
        Inst::Binary {
            op: BinOp::Add,
            ty: PtxType::F64,
            dst,
            a: a.into(),
            b: Operand::ImmF(1.0),
        }
    }

    /// An unpack stays while either half is read and goes with the last
    /// read of the two; the chain into it goes with it.
    #[test]
    fn dce_keeps_an_unpack_while_a_half_is_read() {
        let build = |read_hi: bool| {
            let mut kb = KernelBuilder::new("k");
            kb.param("p", PtxType::U64);
            let addr = kb.ld_param("p", PtxType::U64);
            let x = ld(&mut kb, addr, 0);
            let [lo, hi] = [(); 2].map(|_| kb.fresh(RegClass::B32));
            kb.push(Inst::Unpack { lo, hi, src: x });
            if read_hi {
                kb.push(Inst::StGlobal {
                    ty: PtxType::U32,
                    addr,
                    offset: 8,
                    src: hi.into(),
                });
            }
            let mut k = kb.finish();
            k.validate().unwrap();
            optimize_kernel(&mut k, OptLevel::Default);
            k
        };
        let k = build(true);
        assert!(k.body.iter().any(|i| matches!(i, Inst::Unpack { .. })));
        assert_eq!(count_loads(&k), 1);
        let k = build(false);
        assert!(!k.body.iter().any(|i| matches!(i, Inst::Unpack { .. })));
        assert_eq!(count_loads(&k), 0, "the unpacked load went with it");
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
        let (len, before_f64) = (k.body.len(), k.reg_counts[1]);
        optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(k.body.len(), len - 2, "whole dead chain removed");
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
        optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(count_adds(&k), 0);
        assert_eq!(k.reg_counts[RegClass::F64.index()], 1);
        k.validate().unwrap();
    }

    #[test]
    fn chain_feeding_a_store_survives() {
        let (mut kb, addr, _, last) = chain_kernel(100);
        st(&mut kb, addr, 8, last.into());
        let mut k = kb.finish();
        let before = k.clone();
        optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(k, before, "nothing dead, registers already dense");
    }

    /// Hand-placed defs that the generator never emits: each must keep its
    /// instruction, as repeating "drop unused defs" to a fixpoint did.
    #[test]
    fn uses_before_defs_self_uses_and_cycles_are_kept() {
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
        optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!(count_adds(&k), 4);
        k.validate().unwrap();
    }

    /// The sweep needs no SSA form and no forward branches: a redefined
    /// register that is read keeps both defs, a never-read one loses both,
    /// and a backward branch changes nothing.
    #[test]
    fn redefinitions_and_backward_branches_are_swept_soundly() {
        let mut kb = KernelBuilder::new("k");
        kb.param("p", PtxType::U64);
        let addr = kb.ld_param("p", PtxType::U64);
        let top = kb.label("top");
        kb.bind_label(&top);
        let x = ld(&mut kb, addr, 0);
        st(&mut kb, addr, 8, x.into());
        kb.push(add(x, x));
        st(&mut kb, addr, 16, x.into());
        let dead = kb.fresh(RegClass::F64);
        kb.push(add(dead, x));
        kb.push(add(dead, x));
        kb.push(Inst::Bra {
            target: top,
            pred: None,
        });
        let mut k = kb.finish();
        k.validate().unwrap();
        optimize_kernel(&mut k, OptLevel::Default);
        assert_eq!((count_loads(&k), count_adds(&k)), (1, 1));
        assert_eq!(k.reg_counts[RegClass::F64.index()], 1);
        k.validate().unwrap();
    }

    #[test]
    fn undeclared_register_is_left_alone() {
        // A use past `%fd<1>`, and one in a class with no registers.
        for undeclared in [Reg::new(RegClass::F64, 5), Reg::new(RegClass::F32, 0)] {
            let mut kb = KernelBuilder::new("k");
            kb.param("p", PtxType::U64);
            let addr = kb.ld_param("p", PtxType::U64);
            let x = ld(&mut kb, addr, 0);
            let _dead = kb.bin(BinOp::Add, PtxType::F64, x.into(), x.into());
            st(&mut kb, addr, 8, x.into());
            st(&mut kb, addr, 16, undeclared.into());
            let mut k = kb.finish();
            assert!(k.validate().is_err());
            let before = k.clone();
            optimize_kernel(&mut k, OptLevel::Default);
            assert_eq!(k, before, "{undeclared}");
        }
        // An undeclared def, and a count too large to index.
        let (kb, _, _, _) = chain_kernel(3);
        let mut k = kb.finish();
        for count in [2, u32::MAX] {
            k.reg_counts[RegClass::F64.index()] = count;
            let before = k.clone();
            optimize_kernel(&mut k, OptLevel::Default);
            assert_eq!(k, before, "count {count}");
        }
    }

    #[test]
    fn level_none_is_identity() {
        let (kb, _, _, _) = chain_kernel(3);
        let mut k = kb.finish();
        let before = k.clone();
        optimize_kernel(&mut k, OptLevel::None);
        assert_eq!(k, before);
    }
}
