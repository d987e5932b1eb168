//! Functional execution of compiled kernels over a thread grid.
//!
//! A block's threads run in tiles of [`TILE`] lanes, and a launch's tiles
//! run in parallel on the host's persistent execution pool
//! (`qdp_gpu_sim::par`) the way blocks run across SMs on real hardware.
//! Within a tile — SIMT over sites executed as SIMD over lanes — each
//! lowered op runs across the tile's active lanes in one loop, with op and
//! type dispatch outside that loop, over a register file of one
//! `TILE`-lane column per live-range-allocated register
//! ([`crate::lower`]). Exits shrink a prefix of active lanes; a tile whose
//! exits leave any other lane set re-runs one lane at a time.
//!
//! The per-lane cost is the loop body, so the tile keeps it small: it takes
//! the device arena's by-value [`Arena`] view once, so each load or store
//! checks its range with one compare against a base and length held in
//! registers (a failed check calls a cold panic out of line), and its body
//! is compiled twice — for x86-64 hosts with AVX2 and FMA, and for the
//! baseline ISA — with one feature dispatch per tile, in [`run_tile`],
//! outside the op loop.
//!
//! Each lane runs the same scalar operations in the same order as a thread
//! run alone; only the interleaving between lanes (and between tiles,
//! which may run on different host threads) changes. That is
//! unobservable as long as **no lane reads a site that another lane of the
//! same launch writes** — the one invariant this executor relies on, and
//! the generated streaming kernels keep it ("no thread block
//! communication", paper §VII): the fusion planner refuses a group whose
//! statement reads an earlier target under a shift, and `eval` runs a
//! single statement that reads its own target under a shift through a
//! temporary. All arithmetic follows PTX semantics for the generator's
//! dialect (IEEE-754, wrapping integer ops), one closure per (op, type)
//! pair. Lowering validates every kernel against that dialect, so in each
//! match below the last arm's `_` stands for the one remaining legal type.

use crate::lower::{AVal, Addr, COp, CompiledKernel};
use qdp_gpu_sim::par::parallel_for;
use qdp_gpu_sim::{Arena, DeviceMemory};
use qdp_ptx::inst::{BinOp, CmpOp, SpecialReg};
use qdp_ptx::types::PtxType;
use std::cell::Cell;

/// A kernel launch argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaunchArg {
    /// Device pointer (byte address into the arena).
    Ptr(u64),
    /// 32-bit unsigned.
    U32(u32),
    /// Single-precision float.
    F32(f32),
    /// Double-precision float.
    F64(f64),
}

impl LaunchArg {
    /// Raw bit pattern as stored in a register slot.
    pub fn bits(self) -> u64 {
        match self {
            LaunchArg::Ptr(p) => p,
            LaunchArg::U32(v) => v as u64,
            LaunchArg::F32(v) => v.to_bits() as u64,
            LaunchArg::F64(v) => v.to_bits(),
        }
    }
}

#[inline]
fn f32_of(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}

#[inline]
fn f64_of(bits: u64) -> f64 {
    f64::from_bits(bits)
}

/// Lanes per tile: a block's threads run `TILE` at a time, each op across
/// all of the tile's active lanes in one loop.
pub const TILE: usize = 64;

/// One launch: kernel, argument bits, memory and grid shape.
struct Grid<'a> {
    k: &'a CompiledKernel,
    args: &'a [u64],
    mem: &'a DeviceMemory,
    n_blocks: u32,
    block_size: u32,
}

/// A tile's register file (column `c` holds lanes `c * TILE ..`), viewed
/// at its `n` active lanes.
#[derive(Clone, Copy)]
struct Lanes<'a> {
    regs: &'a [Cell<u64>],
    n: usize,
}

impl<'a> Lanes<'a> {
    fn col(self, c: u32) -> &'a [Cell<u64>] {
        &self.regs[c as usize * TILE..][..self.n]
    }

    fn src(self, v: AVal) -> Src<'a> {
        match v {
            AVal::Slot(c) => Src::Col(self.col(c)),
            AVal::Imm(bits) => Src::Imm(bits),
        }
    }
}

/// One operand across the active lanes.
#[derive(Clone, Copy)]
enum Src<'a> {
    /// A register column.
    Col(&'a [Cell<u64>]),
    /// An immediate, the same in every lane.
    Imm(u64),
}

fn fill(d: &[Cell<u64>], v: u64) {
    for d in d {
        d.set(v);
    }
}

/// `d[l] = f(a[l])` for every lane `l` of `d`.
#[inline(always)]
fn map1(d: &[Cell<u64>], a: Src<'_>, f: impl Fn(u64) -> u64) {
    match a {
        Src::Col(a) => {
            for (d, a) in d.iter().zip(a) {
                d.set(f(a.get()));
            }
        }
        Src::Imm(a) => fill(d, f(a)),
    }
}

/// `d[l] = f(a[l], b[l])`; an immediate operand folds into the closure.
#[inline(always)]
fn map2(d: &[Cell<u64>], a: Src<'_>, b: Src<'_>, f: impl Fn(u64, u64) -> u64) {
    match (a, b) {
        (Src::Col(a), Src::Col(b)) => {
            for ((d, a), b) in d.iter().zip(a).zip(b) {
                d.set(f(a.get(), b.get()));
            }
        }
        (a, Src::Imm(b)) => map1(d, a, |a| f(a, b)),
        (Src::Imm(a), b) => map1(d, b, |b| f(a, b)),
    }
}

/// `d[l] = f(a[l], b[l], c[l])`; an immediate operand folds into the closure.
#[inline(always)]
fn map3(d: &[Cell<u64>], a: Src<'_>, b: Src<'_>, c: Src<'_>, f: impl Fn(u64, u64, u64) -> u64) {
    match (a, b, c) {
        (Src::Col(a), Src::Col(b), Src::Col(c)) => {
            for (((d, a), b), c) in d.iter().zip(a).zip(b).zip(c) {
                d.set(f(a.get(), b.get(), c.get()));
            }
        }
        (a, b, Src::Imm(c)) => map2(d, a, b, |a, b| f(a, b, c)),
        (a, Src::Imm(b), c) => map2(d, a, c, |a, c| f(a, b, c)),
        (Src::Imm(a), b, c) => map2(d, b, c, |b, c| f(a, b, c)),
    }
}

/// `f(x, byte address)` for every active lane, zipped with that lane's `x`
/// in `col` — for a folded address, the value the
/// `add.u32`/`mul.wide.u32`/`add.u64` chain would have produced — with the
/// form's dispatch outside the lane loop.
#[inline(always)]
fn each_addr<T>(r: Lanes<'_>, args: &[u64], a: Addr, col: &[T], mut f: impl FnMut(&T, u64)) {
    match a {
        Addr::Indexed {
            arg,
            site,
            k,
            scale,
            offset,
        } => {
            let base = args[arg as usize].wrapping_add(offset as u64);
            for (x, s) in col.iter().zip(r.col(site)) {
                let i = u64::from((s.get() as u32).wrapping_add(k));
                f(x, base.wrapping_add(i * u64::from(scale)));
            }
        }
        Addr::Reg { slot, offset } => {
            for (x, a) in col.iter().zip(r.col(slot)) {
                f(x, a.get().wrapping_add(offset as u64));
            }
        }
    }
}

/// Run threads `t0 .. t0 + lanes` of `block` as one tile. Returns false
/// when an exit left a non-prefix set of lanes active: lowering admits
/// exits only before the first store, so nothing has been written yet and
/// the caller re-runs those threads one lane at a time, where every active
/// set is a prefix.
///
/// The tile takes the arena's by-value view once, and its body is compiled
/// twice: for x86-64 hosts with AVX2 and FMA — `mul_add` is then one
/// instruction per lane — and for the baseline ISA. The host decides here,
/// once per tile, outside the op loop. Both compile the same scalar IEEE
/// operations per lane, so they leave the same bits (fused multiply-add is
/// exactly rounded either way; only NaN payloads are not fixed).
fn run_tile(g: &Grid<'_>, regs: &[Cell<u64>], block: u32, t0: u32, lanes: usize) -> bool {
    let mem = g.mem.arena();
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        #[target_feature(enable = "avx2,fma")]
        fn avx2_fma(
            g: &Grid<'_>,
            mem: Arena<'_>,
            regs: &[Cell<u64>],
            block: u32,
            t0: u32,
            lanes: usize,
        ) -> bool {
            tile(g, mem, regs, block, t0, lanes)
        }
        // SAFETY: `avx2_fma` enables only AVX2 and FMA, which the host CPU
        // was just detected to support.
        return unsafe { avx2_fma(g, mem, regs, block, t0, lanes) };
    }
    tile(g, mem, regs, block, t0, lanes)
}

/// [`run_tile`] on the baseline ISA whatever the host has, so a test can
/// hold the two compilations of [`tile`] against each other.
#[cfg(test)]
fn run_tile_baseline(g: &Grid<'_>, regs: &[Cell<u64>], block: u32, t0: u32, lanes: usize) -> bool {
    tile(g, g.mem.arena(), regs, block, t0, lanes)
}

/// The op loop of [`run_tile`], inlined into each of its ISA variants.
#[inline(always)]
fn tile(
    g: &Grid<'_>,
    mem: Arena<'_>,
    regs: &[Cell<u64>],
    block: u32,
    t0: u32,
    lanes: usize,
) -> bool {
    fill(&regs[..g.k.n_zeroed as usize * TILE], 0);
    let mut n = lanes;
    for op in &g.k.code {
        let r = Lanes { regs, n };
        match *op {
            COp::LdArg { dst, arg, .. } => fill(r.col(dst), g.args[arg as usize]),
            COp::Ld { ty, dst, addr } => {
                let d = r.col(dst);
                match ty {
                    PtxType::F32 | PtxType::U32 => {
                        each_addr(r, g.args, addr, d, |d, a| d.set(mem.read_u32(a) as u64))
                    }
                    _ => each_addr(r, g.args, addr, d, |d, a| d.set(mem.read_u64(a))),
                }
            }
            COp::St { ty, addr, src } => {
                let narrow = matches!(ty, PtxType::F32 | PtxType::U32);
                // An immediate zips with one `()` per active lane.
                let lanes = &[(); TILE][..r.n];
                match r.src(src) {
                    Src::Col(v) if narrow => {
                        each_addr(r, g.args, addr, v, |v, a| mem.write_u32(a, v.get() as u32))
                    }
                    Src::Col(v) => each_addr(r, g.args, addr, v, |v, a| mem.write_u64(a, v.get())),
                    Src::Imm(v) if narrow => {
                        each_addr(r, g.args, addr, lanes, |_, a| mem.write_u32(a, v as u32))
                    }
                    Src::Imm(v) => each_addr(r, g.args, addr, lanes, |_, a| mem.write_u64(a, v)),
                }
            }
            COp::Mov { dst, src, .. } => map1(r.col(dst), r.src(src), |v| v),
            COp::Special { dst, sreg } => {
                let d = r.col(dst);
                match sreg {
                    SpecialReg::TidX => {
                        for (l, d) in d.iter().enumerate() {
                            d.set(t0 as u64 + l as u64);
                        }
                    }
                    SpecialReg::NtidX => fill(d, g.block_size as u64),
                    SpecialReg::CtaidX => fill(d, block as u64),
                    SpecialReg::NctaidX => fill(d, g.n_blocks as u64),
                }
            }
            COp::Cvt { dst_ty, dst, src } => {
                let (d, a) = (r.col(dst), Src::Col(r.col(src)));
                match dst_ty {
                    PtxType::F32 => map1(d, a, |v| (f64_of(v) as f32).to_bits() as u64),
                    _ => map1(d, a, |v| (f32_of(v) as f64).to_bits()),
                }
            }
            COp::Neg { ty, dst, src } => {
                let (d, a) = (r.col(dst), r.src(src));
                match ty {
                    PtxType::F32 => map1(d, a, |v| (-f32_of(v)).to_bits() as u64),
                    _ => map1(d, a, |v| (-f64_of(v)).to_bits()),
                }
            }
            COp::Bin { op, ty, dst, a, b } => {
                let (d, a, b) = (r.col(dst), r.src(a), r.src(b));
                match (op, ty) {
                    (BinOp::Add, PtxType::F32) => {
                        map2(d, a, b, |a, b| (f32_of(a) + f32_of(b)).to_bits() as u64)
                    }
                    (BinOp::Add, PtxType::F64) => {
                        map2(d, a, b, |a, b| (f64_of(a) + f64_of(b)).to_bits())
                    }
                    (BinOp::Add, PtxType::U32) => {
                        map2(d, a, b, |a, b| (a as u32).wrapping_add(b as u32) as u64)
                    }
                    (BinOp::Add, _) => map2(d, a, b, u64::wrapping_add),
                    (BinOp::Sub, PtxType::F32) => {
                        map2(d, a, b, |a, b| (f32_of(a) - f32_of(b)).to_bits() as u64)
                    }
                    (BinOp::Sub, _) => map2(d, a, b, |a, b| (f64_of(a) - f64_of(b)).to_bits()),
                    (BinOp::Mul, PtxType::F32) => {
                        map2(d, a, b, |a, b| (f32_of(a) * f32_of(b)).to_bits() as u64)
                    }
                    (BinOp::Mul, _) => map2(d, a, b, |a, b| (f64_of(a) * f64_of(b)).to_bits()),
                    (BinOp::And, _) => map2(d, a, b, |a, b| (a as u32 & b as u32) as u64),
                }
            }
            COp::MulWide { dst, a, b } => map2(r.col(dst), Src::Col(r.col(a)), r.src(b), |a, b| {
                (a as u32 as u64) * (b as u32 as u64)
            }),
            COp::MadLo { dst, a, b, c } => {
                map3(r.col(dst), r.src(a), r.src(b), r.src(c), |a, b, c| {
                    (a as u32).wrapping_mul(b as u32).wrapping_add(c as u32) as u64
                })
            }
            COp::Fma { ty, dst, a, b, c } => {
                let (d, a, b, c) = (r.col(dst), r.src(a), r.src(b), r.src(c));
                match ty {
                    PtxType::F32 => map3(d, a, b, c, |a, b, c| {
                        f32_of(a).mul_add(f32_of(b), f32_of(c)).to_bits() as u64
                    }),
                    _ => map3(d, a, b, c, |a, b, c| {
                        f64_of(a).mul_add(f64_of(b), f64_of(c)).to_bits()
                    }),
                }
            }
            COp::Setp { cmp, dst, a, b } => {
                let (d, a, b) = (r.col(dst), r.src(a), r.src(b));
                match cmp {
                    CmpOp::Ge => map2(d, a, b, |a, b| u64::from(a as u32 >= b as u32)),
                    CmpOp::Ne => map2(d, a, b, |a, b| u64::from(a as u32 != b as u32)),
                }
            }
            COp::Selp {
                dst, a, b, pred, ..
            } => map3(
                r.col(dst),
                r.src(a),
                r.src(b),
                Src::Col(r.col(pred)),
                |a, b, p| if p != 0 { a } else { b },
            ),
            COp::Bra { pred: None, .. } | COp::Ret => return true,
            COp::Bra {
                pred: Some((p, negated)),
                ..
            } => {
                let exits = |p: &Cell<u64>| (p.get() != 0) != negated;
                let p = r.col(p);
                let stay = p.iter().take_while(|p| !exits(p)).count();
                if !p[stay..].iter().all(exits) {
                    return false;
                }
                if stay == 0 {
                    return true;
                }
                n = stay;
            }
        }
    }
    true
}

/// Execute a full grid. Each block's threads run in tiles of [`TILE`]
/// lanes, and the launch's `n_blocks × ⌈block_size / TILE⌉` tiles run on
/// the persistent execution pool (`qdp_gpu_sim::par`): the calling thread
/// takes part, a busy pool runs them inline, and each participating thread
/// keeps one register file. The argument count is checked against the
/// kernel signature.
pub fn run_grid(
    k: &CompiledKernel,
    args: &[LaunchArg],
    mem: &DeviceMemory,
    n_blocks: u32,
    block_size: u32,
) {
    launch(k, args, mem, n_blocks, block_size, run_tile)
}

/// A tile runner: [`run_tile`], or in tests the baseline-ISA one.
type RunTile = fn(&Grid<'_>, &[Cell<u64>], u32, u32, usize) -> bool;

/// [`run_grid`] with the tile runner as a parameter.
fn launch(
    k: &CompiledKernel,
    args: &[LaunchArg],
    mem: &DeviceMemory,
    n_blocks: u32,
    block_size: u32,
    run_tile: RunTile,
) {
    assert_eq!(
        args.len(),
        k.param_types.len(),
        "kernel {} expects {} arguments, got {}",
        k.name,
        k.param_types.len(),
        args.len()
    );
    let bits: Vec<u64> = args.iter().map(|a| a.bits()).collect();
    let g = Grid {
        k,
        args: &bits,
        mem,
        n_blocks,
        block_size,
    };
    let tiles = (block_size as usize).div_ceil(TILE);
    parallel_for(
        n_blocks as usize * tiles,
        || vec![0u64; k.n_cols as usize * TILE],
        |regs, i| {
            let regs = Cell::from_mut(regs.as_mut_slice()).as_slice_of_cells();
            let block = (i / tiles) as u32;
            let t0 = ((i % tiles) * TILE) as u32;
            let lanes = (block_size - t0).min(TILE as u32) as usize;
            if !run_tile(&g, regs, block, t0, lanes) {
                for t in t0..t0 + lanes as u32 {
                    run_tile(&g, regs, block, t, 1);
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_kernel;
    use qdp_ptx::inst::{Inst, Operand};
    use qdp_ptx::module::KernelBuilder;
    use qdp_ptx::types::{Reg, RegClass};
    use qdp_rng::{Rng, SeedableRng, StdRng};

    /// Build `out[i] = a[i] * s + b[i]` (f64 saxpy) and run it.
    #[test]
    fn saxpy_f64_executes_correctly() {
        let mut b = KernelBuilder::new("saxpy");
        let p_out = b.param("out", PtxType::U64);
        let p_a = b.param("a", PtxType::U64);
        let p_b = b.param("b", PtxType::U64);
        let p_s = b.param("s", PtxType::F64);
        let p_n = b.param("n", PtxType::U32);
        let tid = b.global_tid();
        let n = b.ld_param(&p_n, PtxType::U32);
        let exit = b.guard(tid, n);
        let off = b.fresh(RegClass::B64);
        b.push(Inst::MulWide {
            dst: off,
            a: tid,
            b: Operand::ImmI(8),
        });
        let s = b.ld_param(&p_s, PtxType::F64);
        let base_a = b.ld_param(&p_a, PtxType::U64);
        let addr_a = b.bin(qdp_ptx::inst::BinOp::Add, PtxType::U64, base_a.into(), off.into());
        let va = b.fresh(RegClass::F64);
        b.push(Inst::LdGlobal {
            ty: PtxType::F64,
            dst: va,
            addr: addr_a,
            offset: 0,
        });
        let base_b = b.ld_param(&p_b, PtxType::U64);
        let addr_b = b.bin(qdp_ptx::inst::BinOp::Add, PtxType::U64, base_b.into(), off.into());
        let vb = b.fresh(RegClass::F64);
        b.push(Inst::LdGlobal {
            ty: PtxType::F64,
            dst: vb,
            addr: addr_b,
            offset: 0,
        });
        let r = b.fma(PtxType::F64, va.into(), s.into(), vb.into());
        let base_o = b.ld_param(&p_out, PtxType::U64);
        let addr_o = b.bin(qdp_ptx::inst::BinOp::Add, PtxType::U64, base_o.into(), off.into());
        b.push(Inst::StGlobal {
            ty: PtxType::F64,
            addr: addr_o,
            offset: 0,
            src: r.into(),
        });
        b.bind_label(&exit);
        let k = lower_kernel(&b.finish()).unwrap();

        let n = 1000usize;
        let mem = DeviceMemory::new(1 << 20);
        let pa = mem.alloc(n * 8).unwrap();
        let pb = mem.alloc(n * 8).unwrap();
        let po = mem.alloc(n * 8).unwrap();
        for i in 0..n {
            mem.write_f64(pa + 8 * i as u64, i as f64);
            mem.write_f64(pb + 8 * i as u64, 0.5 * i as f64);
        }
        let args = [
            LaunchArg::Ptr(po),
            LaunchArg::Ptr(pa),
            LaunchArg::Ptr(pb),
            LaunchArg::F64(3.0),
            LaunchArg::U32(n as u32),
        ];
        let block = 128u32;
        let blocks = (n as u32).div_ceil(block);
        run_grid(&k, &args, &mem, blocks, block);
        for i in 0..n {
            let expect = 3.0 * i as f64 + 0.5 * i as f64;
            assert_eq!(mem.read_f64(po + 8 * i as u64), expect, "site {i}");
        }
    }

    #[test]
    fn guard_prevents_overrun() {
        // Launch more threads than elements; guarded threads must not write.
        let mut b = KernelBuilder::new("guarded");
        let p_out = b.param("out", PtxType::U64);
        let p_n = b.param("n", PtxType::U32);
        let tid = b.global_tid();
        let n = b.ld_param(&p_n, PtxType::U32);
        let exit = b.guard(tid, n);
        let off = b.fresh(RegClass::B64);
        b.push(Inst::MulWide {
            dst: off,
            a: tid,
            b: Operand::ImmI(4),
        });
        let base = b.ld_param(&p_out, PtxType::U64);
        let addr = b.bin(qdp_ptx::inst::BinOp::Add, PtxType::U64, base.into(), off.into());
        b.push(Inst::StGlobal {
            ty: PtxType::F32,
            addr,
            offset: 0,
            src: Operand::ImmF(1.0),
        });
        b.bind_label(&exit);
        let k = lower_kernel(&b.finish()).unwrap();

        let mem = DeviceMemory::new(1 << 16);
        let n = 10usize;
        // allocate space for the full grid's worth so an overrun would be
        // visible rather than a bounds panic
        let po = mem.alloc(256 * 4).unwrap();
        run_grid(
            &k,
            &[LaunchArg::Ptr(po), LaunchArg::U32(n as u32)],
            &mem,
            2,
            128,
        );
        for i in 0..256 {
            let v = mem.read_f32(po + 4 * i as u64);
            if i < n {
                assert_eq!(v, 1.0);
            } else {
                assert_eq!(v, 0.0, "guarded thread {i} wrote");
            }
        }
    }

    /// Bytes of a golden-kernel buffer over `vol` sites: every field the
    /// golden kernels touch fits in 32 reals per site.
    fn buf_bytes(vol: usize) -> usize {
        vol * 32 * 8
    }

    /// The golden kernels were generated on a 4·2·2·4 lattice and address
    /// real `c` of site `s` at `c·64 + s` — the only place the volume
    /// appears in them. Rescaling those offsets gives the same kernel over
    /// `vol` sites.
    fn on_lattice(mut kernel: qdp_ptx::module::Kernel, vol: usize) -> qdp_ptx::module::Kernel {
        for inst in &mut kernel.body {
            if let Inst::Binary {
                op: BinOp::Add,
                ty: PtxType::U32,
                b: Operand::ImmI(k),
                ..
            } = inst
            {
                assert_eq!(*k % 64, 0, "{}: offset {k} is not a multiple of 64", kernel.name);
                *k = *k / 64 * vol as i64;
            }
        }
        kernel
    }

    /// Whether `kernel` works in double precision (its reals are `f64`).
    fn is_dp(kernel: &qdp_ptx::module::Kernel) -> bool {
        let f64_load = |i: &Inst| matches!(i, Inst::LdGlobal { ty: PtxType::F64, .. });
        kernel.body.iter().any(f64_load)
    }

    /// The special value, if any, that real `i` of a golden input buffer
    /// holds instead of a random one, as `(f32, f64)`: every 29th a signed
    /// zero or a subnormal, every 509th an infinity or a NaN — sparse
    /// enough that most sites still compute finite results.
    fn special_real(i: usize) -> Option<(f32, f64)> {
        let finite = [(0.0, 0.0), (-0.0, -0.0), (1e-40, 1e-310), (-1e-40, -1e-310)];
        let (inf, nan) = ((f32::INFINITY, f64::INFINITY), (f32::NAN, f64::NAN));
        if i.is_multiple_of(509) {
            Some([inf, (-inf.0, -inf.1), nan][i / 509 % 3])
        } else if i.is_multiple_of(29) {
            Some(finite[i / 29 % 4])
        } else {
            None
        }
    }

    /// Device memory holding seeded inputs for `kernel` over `n` threads on
    /// `vol` sites — a buffer per pointer parameter, reals among them
    /// including [`special_real`]s at the kernel's precision — and the
    /// launch arguments.
    fn golden_inputs(
        kernel: &qdp_ptx::module::Kernel,
        n: u32,
        vol: usize,
    ) -> (DeviceMemory, Vec<u64>, Vec<LaunchArg>) {
        let mut rng = StdRng::seed_from_u64(u64::from(n));
        let unit = |rng: &mut StdRng| rng.random::<f32>() * 2.0 - 1.0;
        let mem = DeviceMemory::new(1 << 21);
        let mut bufs = Vec::new();
        let mut args = Vec::new();
        for p in &kernel.params {
            let arg = match p.ty {
                PtxType::U64 => {
                    let ptr = mem.alloc(buf_bytes(vol)).unwrap();
                    bufs.push(ptr);
                    if p.name == "sites" {
                        // a permutation: no two lanes store to one site
                        let mut perm: Vec<u32> = (0..vol as u32).collect();
                        for i in (1..vol).rev() {
                            perm.swap(i, rng.random_range(0..i as u64 + 1) as usize);
                        }
                        for (i, s) in perm.into_iter().enumerate() {
                            mem.write_u32(ptr + 4 * i as u64, s);
                        }
                    } else if p.name.starts_with("tbl_") {
                        for i in 0..vol as u64 {
                            mem.write_u32(ptr + 4 * i, rng.random_range(0..vol as u64) as u32);
                        }
                    } else {
                        for i in 0..(buf_bytes(vol) / 4) as u64 {
                            mem.write_f32(ptr + 4 * i, unit(&mut rng));
                        }
                        let dp = is_dp(kernel);
                        let width = if dp { 8 } else { 4 };
                        for i in 0..buf_bytes(vol) / width {
                            let Some((sp_v, dp_v)) = special_real(i) else {
                                continue;
                            };
                            let a = ptr + (width * i) as u64;
                            if dp {
                                mem.write_f64(a, dp_v);
                            } else {
                                mem.write_f32(a, sp_v);
                            }
                        }
                    }
                    LaunchArg::Ptr(ptr)
                }
                PtxType::U32 => LaunchArg::U32(n),
                PtxType::F64 => LaunchArg::F64(unit(&mut rng).into()),
                PtxType::F32 => LaunchArg::F32(unit(&mut rng)),
                ty => panic!("{}: parameter type {ty:?}", kernel.name),
            };
            args.push(arg);
        }
        (mem, bufs, args)
    }

    /// Whether two dumps of device memory hold the same reals of `width`
    /// bytes bit for bit, except that a NaN need only meet a NaN: Rust
    /// fixes no NaN payload, so two compilations of one operation may
    /// differ there.
    fn same_reals(a: &[u8], b: &[u8], width: usize) -> bool {
        let is_nan = |c: &[u8]| match width {
            8 => f64::from_le_bytes(c.try_into().unwrap()).is_nan(),
            _ => f32::from_le_bytes(c.try_into().unwrap()).is_nan(),
        };
        let same = |(a, b): (&[u8], &[u8])| a == b || is_nan(a) && is_nan(b);
        a.len() == b.len() && a.chunks(width).zip(b.chunks(width)).all(same)
    }

    /// Every golden kernel leaves the same device memory at every block
    /// size and on both ISA paths of [`run_tile`], from the same seeded
    /// inputs — signed zeros, subnormals, infinities and NaNs among them
    /// ([`same_reals`]): block 1 runs one-lane tiles (a thread at a time);
    /// the others cover partial tiles, tile edges, the guard falling
    /// mid-tile and (n = 300) blocks of several tiles, whose tiles may run
    /// on different pool threads. (That the goldens' `OptLevel::None`
    /// renderings leave the same bytes is `qdp-core`'s `golden_ptx` test.)
    #[test]
    fn golden_kernels_leave_the_same_bytes_at_every_block_size() {
        let paths: [(&str, RunTile); 2] = [("host", run_tile), ("baseline", run_tile_baseline)];
        let blocks = [1, 7, 63, 64, 65, 128, 256, 1000, 1024];
        for (name, text) in crate::lower::GOLDEN_PTX {
            let golden = qdp_ptx::parse::parse_module(text).unwrap().kernels.remove(0);
            let width = if is_dp(&golden) { 8 } else { 4 };
            for (n, vol) in [(61u32, 64), (64, 64), (300, 320)] {
                let kernel = on_lattice(golden.clone(), vol);
                let k = lower_kernel(&kernel).unwrap();
                let buf = buf_bytes(vol);
                // Device memory after a launch of `k` at `block` (or none)
                // through `run_tile`.
                let run = |block: Option<u32>, run_tile: RunTile| {
                    let (mem, bufs, args) = golden_inputs(&kernel, n, vol);
                    if let Some(block) = block {
                        launch(&k, &args, &mem, n.div_ceil(block), block, run_tile);
                    }
                    let mut out = vec![0u8; buf * bufs.len()];
                    for (chunk, &p) in out.chunks_mut(buf).zip(&bufs) {
                        mem.copy_to_host(p, chunk);
                    }
                    out
                };
                let one_lane = run(Some(1), run_tile);
                assert!(one_lane != run(None, run_tile), "{name}: the kernel stored nothing");
                for block in blocks {
                    for (path, run_tile) in paths {
                        assert!(
                            same_reals(&run(Some(block), run_tile), &one_lane, width),
                            "{name}, n = {n}: block {block} on the {path} path differs from \
                             one-lane tiles on the host path"
                        );
                    }
                }
            }
        }
    }

    /// An address chain whose `site + K` wraps in u32 — `(tid + 8) +
    /// (2³² − 4)` is `tid + 4` — leaves the same bytes folded into its
    /// load and stores as when a `selp` keeps it from folding and the
    /// `add.u32`/`mul.wide.u32`/`add.u64` ops run one by one; a store of an
    /// immediate value goes through the same form.
    #[test]
    fn folded_addresses_keep_the_u32_wrap() {
        let build = |fold: bool| {
            let mut b = KernelBuilder::new("wrap");
            let [p_out, p_in] = ["out", "in"].map(|p| b.param(p, PtxType::U64));
            let tid = b.global_tid();
            let always = b.fresh(RegClass::Pred);
            b.push(Inst::Setp {
                cmp: CmpOp::Ge,
                ty: PtxType::U32,
                dst: always,
                a: tid.into(),
                b: Operand::ImmI(0),
            });
            let site = b.bin(BinOp::Add, PtxType::U32, tid.into(), Operand::ImmI(8));
            let k = (1i64 << 32) - 4;
            let idx = b.bin(BinOp::Add, PtxType::U32, site.into(), Operand::ImmI(k));
            let off = b.fresh(RegClass::B64);
            b.push(Inst::MulWide {
                dst: off,
                a: idx,
                b: Operand::ImmI(8),
            });
            let addr = |b: &mut KernelBuilder, p: &str| {
                let base = b.ld_param(p, PtxType::U64);
                let a = b.bin(BinOp::Add, PtxType::U64, base.into(), off.into());
                if fold {
                    return a;
                }
                let kept = b.fresh(RegClass::B64);
                b.push(Inst::Selp {
                    ty: PtxType::U64,
                    dst: kept,
                    a: a.into(),
                    b: a.into(),
                    pred: always,
                });
                kept
            };
            let (a_in, a_out) = (addr(&mut b, &p_in), addr(&mut b, &p_out));
            let v = b.fresh(RegClass::F64);
            b.push(Inst::LdGlobal {
                ty: PtxType::F64,
                dst: v,
                addr: a_in,
                offset: 8,
            });
            b.push(Inst::StGlobal {
                ty: PtxType::F64,
                addr: a_out,
                offset: 0,
                src: v.into(),
            });
            b.push(Inst::StGlobal {
                ty: PtxType::F64,
                addr: a_out,
                offset: 8 * 128,
                src: Operand::ImmF(2.5),
            });
            lower_kernel(&b.finish()).unwrap()
        };
        let (folded, chain) = (build(true), build(false));
        let wrapped = folded.code.iter().filter(|op| {
            let (COp::Ld { addr, .. } | COp::St { addr, .. }) = op else {
                return false;
            };
            matches!(addr, Addr::Indexed { k, scale: 8, .. } if *k == u32::MAX - 3)
        });
        assert_eq!(wrapped.count(), 3, "{:?}", folded.code);
        assert!(!folded.code.iter().any(|op| matches!(op, COp::MulWide { .. })));
        assert!(chain.code.iter().any(|op| matches!(op, COp::MulWide { .. })));

        let n = 100usize;
        let run = |k: &CompiledKernel| {
            let mem = DeviceMemory::new(1 << 16);
            let [po, pi] = [(); 2].map(|_| mem.alloc(8 * 512).unwrap());
            for i in 0..512u64 {
                mem.write_f64(pi + 8 * i, i as f64 * 0.5 - 7.0);
            }
            run_grid(k, &[LaunchArg::Ptr(po), LaunchArg::Ptr(pi)], &mem, 1, n as u32);
            let mut out = vec![0u8; 8 * 512];
            mem.copy_to_host(po, &mut out);
            out
        };
        let (a, b) = (run(&folded), run(&chain));
        assert!(a == b, "folded and unfolded chains leave different bytes");
        let at = |i: usize| f64::from_le_bytes(a[8 * i..8 * i + 8].try_into().unwrap());
        for t in 0..n {
            assert_eq!(at(t + 4), (t + 5) as f64 * 0.5 - 7.0, "thread {t}");
            assert_eq!(at(t + 4 + 128), 2.5, "thread {t}");
        }
    }

    /// Lanes that exit on odd `tid` leave a non-prefix active set: each
    /// tile re-runs lane by lane, and exactly the even threads store — in
    /// blocks of one full and one partial tile, and in blocks of several
    /// tiles.
    #[test]
    fn ragged_exit_stores_exactly_the_staying_lanes() {
        let mut b = KernelBuilder::new("odd_exit");
        let p_out = b.param("out", PtxType::U64);
        let tid = b.global_tid();
        let odd = b.bin(BinOp::And, PtxType::U32, tid.into(), Operand::ImmI(1));
        let p = b.fresh(RegClass::Pred);
        b.push(Inst::Setp {
            cmp: CmpOp::Ne,
            ty: PtxType::U32,
            dst: p,
            a: odd.into(),
            b: Operand::ImmI(0),
        });
        let exit = b.label("exit");
        b.push(Inst::Bra {
            target: exit.clone(),
            pred: Some((p, false)),
        });
        let off = b.fresh(RegClass::B64);
        b.push(Inst::MulWide {
            dst: off,
            a: tid,
            b: Operand::ImmI(4),
        });
        let base = b.ld_param(&p_out, PtxType::U64);
        let addr = b.bin(BinOp::Add, PtxType::U64, base.into(), off.into());
        b.push(Inst::StGlobal {
            ty: PtxType::U32,
            addr,
            offset: 0,
            src: tid.into(),
        });
        b.bind_label(&exit);
        let k = lower_kernel(&b.finish()).unwrap();

        for (n_blocks, block) in [(3, 100), (2, 256), (1, 1000)] {
            let n = n_blocks * block;
            let mem = DeviceMemory::new(1 << 16);
            let po = mem.alloc(n as usize * 4).unwrap();
            run_grid(&k, &[LaunchArg::Ptr(po)], &mem, n_blocks, block);
            for i in 0..n {
                let want = if i % 2 == 0 { i } else { 0 };
                assert_eq!(
                    mem.read_u32(po + 4 * u64::from(i)),
                    want,
                    "block {block}, thread {i}"
                );
            }
        }
    }

    /// Run `out[l] = emit(a[l], b[l])` with lane `l` taking `pairs[l]`, as
    /// one tile. Operands load as `ty`; the result register's raw 64 bits
    /// are stored, so junk a lane op leaves above a 32-bit result shows.
    fn run_lanes(
        ty: PtxType,
        pairs: &[(u64, u64)],
        emit: impl FnOnce(&mut KernelBuilder, Reg, Reg) -> Reg,
    ) -> Vec<u64> {
        let mut b = KernelBuilder::new("lanes");
        let params = ["out", "a", "b"].map(|p| b.param(p, PtxType::U64));
        let tid = b.global_tid();
        let off = b.fresh(RegClass::B64);
        b.push(Inst::MulWide {
            dst: off,
            a: tid,
            b: Operand::ImmI(8),
        });
        let [ao, aa, ab] = params.map(|p| {
            let base = b.ld_param(&p, PtxType::U64);
            b.bin(BinOp::Add, PtxType::U64, base.into(), off.into())
        });
        let [va, vb] = [aa, ab].map(|addr| {
            let dst = b.fresh_for(ty);
            b.push(Inst::LdGlobal {
                ty,
                dst,
                addr,
                offset: 0,
            });
            dst
        });
        let r = emit(&mut b, va, vb);
        b.push(Inst::StGlobal {
            ty: PtxType::U64,
            addr: ao,
            offset: 0,
            src: r.into(),
        });
        let k = lower_kernel(&b.finish()).unwrap();

        let n = pairs.len();
        let mem = DeviceMemory::new(1 << 16);
        let [po, pa, pb] = [(); 3].map(|_| mem.alloc(8 * n).unwrap());
        for (i, &(a, b)) in pairs.iter().enumerate() {
            mem.write_u64(pa + 8 * i as u64, a);
            mem.write_u64(pb + 8 * i as u64, b);
        }
        let args = [po, pa, pb].map(LaunchArg::Ptr);
        run_grid(&k, &args, &mem, 1, n as u32);
        (0..n).map(|i| mem.read_u64(po + 8 * i as u64)).collect()
    }

    #[test]
    fn int_semantics() {
        for (op, ty, a, b, want) in [
            (BinOp::Add, PtxType::U32, 0xFFFF_FFFF, 1, 0),
            (BinOp::Add, PtxType::U64, u64::MAX, 2, 1),
        ] {
            // In a tile: the case in lane 0, its operands swapped in lane 1
            // (`add` commutes).
            let lanes = run_lanes(ty, &[(a, b), (b, a)], |k, x, y| {
                k.bin(op, ty, x.into(), y.into())
            });
            assert_eq!(lanes, [want, want], "{op:?}.{ty:?} in a tile");
        }
    }

    #[test]
    fn conversions() {
        // f64 -> f32 rounding in lane 0; lane 1 converts an f64 subnormal,
        // which rounds to +0.0.
        let x = 1.0f64 / 3.0;
        let lanes = run_lanes(PtxType::F64, &[(x.to_bits(), 0), (7, 0)], |k, v, _| {
            k.cvt(PtxType::F32, PtxType::F64, v)
        });
        assert_eq!(lanes, [(x as f32).to_bits() as u64, 0], "f64 -> f32 in a tile");
    }
}
