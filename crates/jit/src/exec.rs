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
//! is compiled three times — for x86-64 hosts with AVX2 and FMA, with FMA
//! alone, and for the baseline ISA — with one feature dispatch per tile,
//! in [`run_tile`], outside the op loop. A complex multiply-accumulate the
//! lowering folded into one [`COp::MulAcc`] runs its three rounded steps in
//! one lane loop.
//!
//! An [`Addr::Indexed`] access whose active lanes' sites are consecutive
//! (SoA fields read at the thread id, or through a neighbour column that
//! happens to be consecutive in this tile) is one coalesced run: its
//! first and last access are checked once and the run is copied with no
//! per-lane check. Any other indexed load at the scale of its width — a
//! gather through a neighbour column — is checked once too: a site
//! register's first access scans its column for both answers, consecutive
//! or not and its largest site `hi`, and its later accesses in the tile
//! reuse them ([`access`]); the arena checks the span of elements
//! `k ..= hi + k` and reads each lane's element with no per-lane check,
//! clamping each index to `hi`, so memory safety never rests on this
//! module. A gather whose check fails, a store that is not a run and any
//! other access check lane by lane. The paths differ only when an access
//! is out of range: all panic with the first bad lane's message (a failed
//! gather check reads nothing and goes lane by lane), but a store run
//! panics before any lane writes, while lane by lane the lanes before the
//! bad one have written. All raw-pointer access to device memory is in
//! `qdp_gpu_sim`'s arena; this module has none.
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
//! temporary. The one read across lanes is a reduction's warp shuffle
//! (`shfl.bfly`, or its folded 64-bit [`COp::Bfly`]): a register read, in
//! lockstep, between lanes of one warp — 32 consecutive lanes of one tile,
//! since blocks are whole warps and a tile is two — of the value its
//! partner held just before the shuffle. Validation lets a kernel that
//! shuffles exit whole warps only, so its tiles never re-run lane by lane.
//! All arithmetic follows PTX semantics for the generator's
//! dialect (IEEE-754, wrapping integer ops), one closure per (op, type)
//! pair. Lowering validates every kernel against that dialect, so in each
//! match below the last arm's `_` stands for the one remaining legal type.

use crate::lower::{AVal, Acc, Addr, COp, CompiledKernel};
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

/// One launch: kernel, argument bits, memory, grid shape, and how its
/// tiles run.
struct Grid<'a> {
    k: &'a CompiledKernel,
    args: &'a [u64],
    mem: &'a DeviceMemory,
    n_blocks: u32,
    block_size: u32,
    mode: Mode,
}

/// Compilations of the tile body, in the order a host prefers them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Isa {
    /// The baseline ISA: `mul_add` is a runtime `fma` call per lane.
    Baseline,
    /// x86-64 with FMA: `mul_add` is one instruction.
    Fma,
    /// x86-64 with AVX2 and FMA.
    Avx2Fma,
}

/// How a launch runs its tiles: the best tile-body compilation it may take
/// where the host has it, and whether indexed accesses go as one checked
/// run or gather ([`access`]) or lane by lane. [`run_grid`] takes the best
/// of both; tests pick less, to hold the paths against each other.
#[derive(Debug, Clone, Copy)]
struct Mode {
    isa: Isa,
    runs: bool,
}

impl Mode {
    const BEST: Mode = Mode {
        isa: Isa::Avx2Fma,
        runs: true,
    };
}

/// What a pool thread keeps for the tiles it runs: a register file (column
/// `c` holds lanes `c * TILE ..`) and, per column, what a site register's
/// first access found in it ([`access`]).
struct Scratch {
    regs: Vec<u64>,
    sites: Vec<SiteCol>,
}

/// What a site register's first access in a tile found in its column.
#[derive(Debug, Clone, Copy, Default)]
struct SiteCol {
    /// The active lanes' sites are consecutive: accesses through the
    /// register are runs.
    consecutive: bool,
    /// The largest active lane's site, as a u32: the bound a gather through
    /// the register checks its span with.
    hi: u32,
}

/// How one [`Addr`] access goes across the tile's active lanes.
enum Access<'a> {
    /// Lane `l` at `a0 + l·stride`: one checked run.
    Run { a0: u64, stride: u64 },
    /// Lane `l` at `base + (sites[l] as u32 + k)·scale`, every site at most
    /// `hi`: one checked gather when the scale is the access width.
    Gather {
        base: u64,
        k: u32,
        hi: u32,
        scale: u32,
        sites: &'a [Cell<u64>],
    },
    /// One checked access per lane.
    Lanes,
}

/// A tile's register file, viewed at its `n` active lanes.
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

/// `d[l] = f(a[l], b[l], c[l], e[l])` over register columns.
#[inline(always)]
fn map4(d: &[Cell<u64>], [a, b, c, e]: [&[Cell<u64>]; 4], f: impl Fn(u64, u64, u64, u64) -> u64) {
    for ((((d, a), b), c), e) in d.iter().zip(a).zip(b).zip(c).zip(e) {
        d.set(f(a.get(), b.get(), c.get(), e.get()));
    }
}

/// `d[l] = f(a[l], b[l], c[l], e[l], x[l])` over register columns.
#[inline(always)]
fn map5(
    d: &[Cell<u64>],
    [a, b, c, e, x]: [&[Cell<u64>]; 5],
    f: impl Fn(u64, u64, u64, u64, u64) -> u64,
) {
    for (((((d, a), b), c), e), x) in d.iter().zip(a).zip(b).zip(c).zip(e).zip(x) {
        d.set(f(a.get(), b.get(), c.get(), e.get(), x.get()));
    }
}

/// How an access goes when the launch takes runs and gathers: an
/// [`Addr::Indexed`] form whose active lanes' sites are consecutive (as
/// u64s, so as u32s too), with `site +₃₂ k` not wrapping across them, is a
/// run — lane `l` accesses `a0 + l·scale`, the address [`each_addr`]
/// computes for it — and any other indexed form is a gather. A site
/// register's first access scans its column once and notes in `cols` (an
/// entry per column) whether it is consecutive and its largest site, which
/// the register's later accesses read: the register is defined once,
/// before its first access, and an exit only shrinks the active lanes to a
/// prefix.
#[inline(always)]
fn access<'a>(g: &Grid<'_>, r: Lanes<'a>, a: Addr, cols: &mut [SiteCol]) -> Access<'a> {
    let (
        true,
        Addr::Indexed {
            arg,
            site,
            k,
            scale,
            offset,
            first,
        },
    ) = (g.mode.runs, a)
    else {
        return Access::Lanes;
    };
    let sites = r.col(site);
    let Some(s0) = sites.first().map(Cell::get) else {
        return Access::Lanes;
    };
    if first {
        let (mut consecutive, mut hi) = (true, 0u32);
        for (s, l) in sites.iter().zip(0u64..) {
            consecutive &= s.get().wrapping_sub(s0) == l;
            hi = hi.max(s.get() as u32);
        }
        cols[site as usize] = SiteCol { consecutive, hi };
    }
    let SiteCol { consecutive, hi } = cols[site as usize];
    let base = g.args[arg as usize].wrapping_add(offset as u64);
    let i0 = (s0 as u32).wrapping_add(k);
    if consecutive && i0.checked_add(sites.len() as u32 - 1).is_some() {
        let stride = u64::from(scale);
        return Access::Run {
            a0: base.wrapping_add(u64::from(i0) * stride),
            stride,
        };
    }
    Access::Gather {
        base,
        k,
        hi,
        scale,
        sites,
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
            ..
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
/// three times: for x86-64 hosts with AVX2 and FMA, for those with FMA
/// alone — `mul_add` is then one instruction per lane — and for the
/// baseline ISA. The host decides here, once per tile, outside the op
/// loop, up to the launch's [`Mode`]. All compile the same scalar IEEE
/// operations per lane, so they leave the same bits (fused multiply-add is
/// exactly rounded either way; only NaN payloads are not fixed).
fn run_tile(g: &Grid<'_>, s: &mut Scratch, block: u32, t0: u32, lanes: usize) -> bool {
    let mem = g.mem.arena();
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (is_x86_feature_detected!("avx2"), is_x86_feature_detected!("fma"));
    #[cfg(target_arch = "x86_64")]
    {
        type Body = unsafe fn(&Grid<'_>, Arena<'_>, &mut Scratch, u32, u32, usize) -> bool;
        #[target_feature(enable = "avx2,fma")]
        fn avx2_fma(
            g: &Grid<'_>,
            m: Arena<'_>,
            s: &mut Scratch,
            b: u32,
            t0: u32,
            n: usize,
        ) -> bool {
            tile(g, m, s, b, t0, n)
        }
        #[target_feature(enable = "fma")]
        fn fma_only(
            g: &Grid<'_>,
            m: Arena<'_>,
            s: &mut Scratch,
            b: u32,
            t0: u32,
            n: usize,
        ) -> bool {
            tile(g, m, s, b, t0, n)
        }
        let host = match (avx2, fma) {
            (true, true) => Isa::Avx2Fma,
            (false, true) => Isa::Fma,
            (_, false) => Isa::Baseline,
        };
        let body: Body = match host.min(g.mode.isa) {
            Isa::Avx2Fma => avx2_fma,
            Isa::Fma => fma_only,
            Isa::Baseline => tile,
        };
        // SAFETY: `body` enables only features the host CPU was just
        // detected to support.
        unsafe { body(g, mem, s, block, t0, lanes) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    tile(g, mem, s, block, t0, lanes)
}

/// The op loop of [`run_tile`], inlined into each of its ISA variants.
#[inline(always)]
fn tile(g: &Grid<'_>, mem: Arena<'_>, s: &mut Scratch, block: u32, t0: u32, lanes: usize) -> bool {
    let regs = Cell::from_mut(s.regs.as_mut_slice()).as_slice_of_cells();
    let cols = s.sites.as_mut_slice();
    fill(&regs[..g.k.n_zeroed as usize * TILE], 0);
    let mut n = lanes;
    for op in &g.k.code {
        let r = Lanes { regs, n };
        match *op {
            COp::LdArg { dst, arg, .. } => fill(r.col(dst), g.args[arg as usize]),
            COp::Ld { ty, dst, addr } => {
                let d = r.col(dst);
                let narrow = matches!(ty, PtxType::F32 | PtxType::U32);
                let done = match access(g, r, addr, cols) {
                    Access::Run { a0, stride } if narrow => {
                        mem.read_run_u32(a0, stride, d);
                        true
                    }
                    Access::Run { a0, stride } => {
                        mem.read_run_u64(a0, stride, d);
                        true
                    }
                    // A gather whose span check fails reads nothing, and
                    // the lanes go one by one.
                    Access::Gather {
                        base,
                        k,
                        hi,
                        scale: 4,
                        sites,
                    } if narrow => mem.gather_u32(base, k, hi, sites, d),
                    Access::Gather {
                        base,
                        k,
                        hi,
                        scale: 8,
                        sites,
                    } if !narrow => mem.gather_u64(base, k, hi, sites, d),
                    Access::Gather { .. } | Access::Lanes => false,
                };
                match done {
                    true => {}
                    false if narrow => {
                        each_addr(r, g.args, addr, d, |d, a| d.set(mem.read_u32(a) as u64))
                    }
                    false => each_addr(r, g.args, addr, d, |d, a| d.set(mem.read_u64(a))),
                }
            }
            COp::St { ty, addr, src } => {
                let narrow = matches!(ty, PtxType::F32 | PtxType::U32);
                if let Access::Run { a0, stride } = access(g, r, addr, cols) {
                    let n = r.n;
                    match r.src(src) {
                        Src::Col(v) if narrow => {
                            mem.write_run_u32(a0, stride, v.iter().map(|v| v.get() as u32))
                        }
                        Src::Col(v) => mem.write_run_u64(a0, stride, v.iter().map(Cell::get)),
                        Src::Imm(v) if narrow => {
                            mem.write_run_u32(a0, stride, std::iter::repeat_n(v as u32, n))
                        }
                        Src::Imm(v) => mem.write_run_u64(a0, stride, std::iter::repeat_n(v, n)),
                    }
                    continue;
                }
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
                    (BinOp::Shr, _) => map2(d, a, b, |a, b| {
                        (a as u32).checked_shr(b as u32).unwrap_or(0) as u64
                    }),
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
            COp::MulAcc {
                ty,
                dst,
                a,
                b,
                acc,
                c,
                d,
            } => {
                let (dst, a, b, c, d) = (r.col(dst), r.col(a), r.col(b), r.col(c), r.col(d));
                match (ty, acc) {
                    (PtxType::F32, Acc::Product) => map4(dst, [a, b, c, d], |a, b, c, d| {
                        let w = f32_of(a) * f32_of(b);
                        f32_of(c).mul_add(f32_of(d), w).to_bits() as u64
                    }),
                    (PtxType::F32, Acc::Negated) => map4(dst, [a, b, c, d], |a, b, c, d| {
                        let w = -(f32_of(a) * f32_of(b));
                        f32_of(c).mul_add(f32_of(d), w).to_bits() as u64
                    }),
                    (PtxType::F32, Acc::Add(e)) => {
                        map5(dst, [a, b, c, d, r.col(e)], |a, b, c, d, e| {
                            let w = f32_of(e) + f32_of(a) * f32_of(b);
                            f32_of(c).mul_add(f32_of(d), w).to_bits() as u64
                        })
                    }
                    (PtxType::F32, Acc::Sub(e)) => {
                        map5(dst, [a, b, c, d, r.col(e)], |a, b, c, d, e| {
                            let w = f32_of(e) - f32_of(a) * f32_of(b);
                            f32_of(c).mul_add(f32_of(d), w).to_bits() as u64
                        })
                    }
                    (_, Acc::Product) => map4(dst, [a, b, c, d], |a, b, c, d| {
                        let w = f64_of(a) * f64_of(b);
                        f64_of(c).mul_add(f64_of(d), w).to_bits()
                    }),
                    (_, Acc::Negated) => map4(dst, [a, b, c, d], |a, b, c, d| {
                        let w = -(f64_of(a) * f64_of(b));
                        f64_of(c).mul_add(f64_of(d), w).to_bits()
                    }),
                    (_, Acc::Add(e)) => map5(dst, [a, b, c, d, r.col(e)], |a, b, c, d, e| {
                        let w = f64_of(e) + f64_of(a) * f64_of(b);
                        f64_of(c).mul_add(f64_of(d), w).to_bits()
                    }),
                    (_, Acc::Sub(e)) => map5(dst, [a, b, c, d, r.col(e)], |a, b, c, d, e| {
                        let w = f64_of(e) - f64_of(a) * f64_of(b);
                        f64_of(c).mul_add(f64_of(d), w).to_bits()
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
            COp::Shfl {
                dst,
                src,
                lane_mask,
            }
            | COp::Bfly {
                dst,
                src,
                lane_mask,
            } => {
                // Lane `l` reads lane `l ^ mask` as it was before this op,
                // so the source is copied first (`dst` may be `src`); a
                // lane whose partner is not active keeps its own value.
                let mut before = [0u64; TILE];
                for (b, s) in before.iter_mut().zip(r.col(src)) {
                    *b = s.get();
                }
                let before = &before[..r.n];
                for (l, d) in r.col(dst).iter().enumerate() {
                    d.set(*before.get(l ^ lane_mask as usize).unwrap_or(&before[l]));
                }
            }
            COp::Unpack { lo, hi, src } => {
                let v = Src::Col(r.col(src));
                map1(r.col(lo), v, |v| v & 0xffff_ffff);
                map1(r.col(hi), v, |v| v >> 32);
            }
            COp::Pack { dst, lo, hi } => {
                let (lo, hi) = (Src::Col(r.col(lo)), Src::Col(r.col(hi)));
                map2(r.col(dst), lo, hi, |lo, hi| (lo & 0xffff_ffff) | (hi << 32));
            }
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
    launch(k, args, mem, n_blocks, block_size, Mode::BEST)
}

/// [`run_grid`] with the tiles' [`Mode`] as a parameter.
fn launch(
    k: &CompiledKernel,
    args: &[LaunchArg],
    mem: &DeviceMemory,
    n_blocks: u32,
    block_size: u32,
    mode: Mode,
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
        mode,
    };
    let tiles = (block_size as usize).div_ceil(TILE);
    parallel_for(
        n_blocks as usize * tiles,
        || Scratch {
            regs: vec![0u64; k.n_cols as usize * TILE],
            sites: vec![SiteCol::default(); k.n_cols as usize],
        },
        |s, i| {
            let block = (i / tiles) as u32;
            let t0 = ((i % tiles) * TILE) as u32;
            let lanes = (block_size - t0).min(TILE as u32) as usize;
            if !run_tile(&g, s, block, t0, lanes) {
                for t in t0..t0 + lanes as u32 {
                    run_tile(&g, s, block, t, 1);
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower_kernel, lower_kernel_unfolded};
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
    /// `vol` sites. (A reduction's `n − 1`, the other `add.u32` of an
    /// immediate, stays.)
    fn on_lattice(mut kernel: qdp_ptx::module::Kernel, vol: usize) -> qdp_ptx::module::Kernel {
        for inst in &mut kernel.body {
            if let Inst::Binary {
                op: BinOp::Add,
                ty: PtxType::U32,
                b: Operand::ImmI(k),
                ..
            } = inst
            {
                if *k == -1 {
                    continue;
                }
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
    /// enough that most sites still compute finite results. Not for
    /// timing: arithmetic on subnormals takes microcode assists (in one
    /// phase `su3_mul` read 98–115 µs with them and 42–54 µs without).
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
    /// including [`special_real`]s at the kernel's precision if `specials`
    /// (leave them out to time a kernel) — and the launch arguments.
    /// Launch inputs for a golden kernel over `vol` sites: random data
    /// (with the special values when `specials`), a random permutation for
    /// a site list, and neighbour tables that are random — or, when
    /// `lattice`, the tables of a 4⁴ lattice in lexicographic order (x
    /// fastest), as the library builds them (`vol` must be 256).
    fn golden_inputs(
        kernel: &qdp_ptx::module::Kernel,
        n: u32,
        vol: usize,
        specials: bool,
        lattice: bool,
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
                    } else if let Some(shift) = p.name.strip_prefix("tbl_") {
                        // `tbl_{mu}_{f|b}`
                        let mu = u32::from(shift.as_bytes()[0] - b'0');
                        let forward = shift.ends_with('f');
                        assert!(!lattice || vol == 256, "a lattice table is 4⁴");
                        for i in 0..vol as u64 {
                            let (stride, c) = (4u64.pow(mu), i / 4u64.pow(mu) % 4);
                            let next = if forward { (c + 1) % 4 } else { (c + 3) % 4 };
                            let entry = match lattice {
                                true => i - c * stride + next * stride,
                                false => rng.random_range(0..vol as u64),
                            };
                            mem.write_u32(ptr + 4 * i, entry as u32);
                        }
                    } else {
                        for i in 0..(buf_bytes(vol) / 4) as u64 {
                            mem.write_f32(ptr + 4 * i, unit(&mut rng));
                        }
                        let dp = is_dp(kernel);
                        let width = if dp { 8 } else { 4 };
                        for i in (0..buf_bytes(vol) / width).filter(|_| specials) {
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
                // A reduction's partials start a few slots in.
                PtxType::U32 if p.name == "partial_base" => LaunchArg::U32(3),
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
    /// size, on every ISA path of [`run_tile`], with coalesced runs and
    /// gathers and lane by lane, and lowered with and without the product and
    /// butterfly folds, from the same seeded inputs — signed zeros,
    /// subnormals, infinities and NaNs among them ([`same_reals`]): block 1
    /// runs one-lane tiles (a thread at a time); the others cover partial
    /// tiles, tile edges, the guard falling mid-tile and (n = 300) blocks of
    /// several tiles, whose tiles may run on different pool threads. A
    /// kernel that shuffles runs in whole warps, at the block sizes the
    /// tuner takes — powers of two from one warp — against one-warp
    /// blocks; n = 61 and 300 end in a partial warp. (That the goldens'
    /// `OptLevel::None` renderings leave the same bytes is `qdp-core`'s
    /// `golden_ptx` test.)
    #[test]
    fn golden_kernels_leave_the_same_bytes_at_every_block_size() {
        let isas = [Isa::Avx2Fma, Isa::Fma, Isa::Baseline];
        for (name, text) in crate::lower::GOLDEN_PTX {
            let golden = qdp_ptx::parse::parse_module(text).unwrap().kernels.remove(0);
            let shuffles = golden.body.iter().any(|i| matches!(i, Inst::Shfl { .. }));
            let (reference, blocks): (u32, &[u32]) = if shuffles {
                (32, &[32, 64, 128, 256, 512, 1024])
            } else {
                (1, &[1, 7, 63, 64, 65, 128, 256, 1000, 1024])
            };
            let width = if is_dp(&golden) || shuffles { 8 } else { 4 };
            for (n, vol) in [(61u32, 64), (64, 64), (300, 320)] {
                let kernel = on_lattice(golden.clone(), vol);
                let folded = lower_kernel(&kernel).unwrap();
                let unfolded = lower_kernel_unfolded(&kernel).unwrap();
                assert!(folded.code.len() <= unfolded.code.len(), "{name}");
                let buf = buf_bytes(vol);
                // Device memory after a launch of `k` at `block` (or none)
                // in `mode`.
                let run = |k: &CompiledKernel, block: Option<u32>, mode: Mode| {
                    let (mem, bufs, args) = golden_inputs(&kernel, n, vol, true, false);
                    if let Some(block) = block {
                        launch(k, &args, &mem, n.div_ceil(block), block, mode);
                    }
                    let mut out = vec![0u8; buf * bufs.len()];
                    for (chunk, &p) in out.chunks_mut(buf).zip(&bufs) {
                        mem.copy_to_host(p, chunk);
                    }
                    out
                };
                let plain = Mode {
                    isa: Isa::Baseline,
                    runs: false,
                };
                let one_lane = run(&unfolded, Some(reference), plain);
                assert!(
                    one_lane != run(&unfolded, None, plain),
                    "{name}: the kernel stored nothing"
                );
                for &block in blocks {
                    for (fold, k) in [("folded", &folded), ("unfolded", &unfolded)] {
                        for (isa, runs) in isas.into_iter().flat_map(|i| [(i, true), (i, false)]) {
                            assert!(
                                same_reals(
                                    &run(k, Some(block), Mode { isa, runs }),
                                    &one_lane,
                                    width
                                ),
                                "{name}, n = {n}: {fold}, block {block} on the {isa:?} path \
                                 (runs {runs}) differs from unfolded blocks of {reference}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Interpreter time of each golden kernel on each path, p50 µs of a
    /// 256-site launch, the paths interleaved round by round: lowered
    /// without and with the product fold, accesses lane by lane and in
    /// runs and gathers, and the tile body forced to each ISA — over random
    /// neighbour tables and over a 4⁴ lattice's own. The inputs hold no
    /// special reals: subnormals turn a timing into microcode assists.
    /// `taskset -c 0 cargo test --release -p qdp-jit tile_paths_timing --
    /// --ignored --nocapture` runs it on one thread (a pinned thread runs
    /// every launch inline).
    #[test]
    #[ignore = "a timing, not a check"]
    fn tile_paths_timing() {
        let best = Mode::BEST;
        let per_lane = Mode {
            runs: false,
            ..best
        };
        let paths = [
            ("unfolded, per lane", false, per_lane),
            ("folded, per lane", true, per_lane),
            ("folded, runs", true, best),
            (
                "folded, runs, fma",
                true,
                Mode {
                    isa: Isa::Fma,
                    ..best
                },
            ),
            (
                "folded, runs, baseline",
                true,
                Mode {
                    isa: Isa::Baseline,
                    ..best
                },
            ),
        ];
        let vol = 256;
        for (name, text) in crate::lower::GOLDEN_PTX {
            let golden = qdp_ptx::parse::parse_module(text)
                .unwrap()
                .kernels
                .remove(0);
            let kernel = on_lattice(golden, vol);
            let ks = [
                lower_kernel_unfolded(&kernel).unwrap(),
                lower_kernel(&kernel).unwrap(),
            ];
            // Random tables make every neighbour column a gather; a real
            // lattice's tables are runs in some directions and tiles.
            for (tables, lattice) in [("random tables", false), ("lattice tables", true)] {
                let (mem, _, args) = golden_inputs(&kernel, vol as u32, vol, false, lattice);
                let mut times = vec![Vec::new(); paths.len()];
                for _ in 0..1000 {
                    for ((_, fold, mode), t) in paths.iter().zip(&mut times) {
                        let start = std::time::Instant::now();
                        launch(&ks[usize::from(*fold)], &args, &mem, 1, vol as u32, *mode);
                        t.push(start.elapsed().as_secs_f64() * 1e6);
                    }
                }
                for ((path, ..), mut t) in paths.iter().zip(times) {
                    t.sort_by(f64::total_cmp);
                    let (min, p50) = (t[0], t[t.len() / 2]);
                    println!("{name:>20} {tables:<14} {path:<24} p50 {p50:8.1} µs (min {min:.1})");
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

        // Inside a tile `tid +₃₂ (2³² − 5)` wraps at lane 5: lanes 0..5 read
        // 4 GiB past the input and the others from its start, byte by byte
        // (`mul.wide` by 1). That is no run, so the load goes lane by lane,
        // and the bytes are those of per-lane accesses throughout.
        let mut b = KernelBuilder::new("tile_wrap");
        let [p_out, p_in] = ["out", "in"].map(|p| b.param(p, PtxType::U64));
        let tid = b.global_tid();
        let idx = b.bin(
            BinOp::Add,
            PtxType::U32,
            tid.into(),
            Operand::ImmI((1 << 32) - 5),
        );
        let a_in = index(&mut b, &p_in, idx, 1);
        let v = b.fresh(RegClass::B32);
        b.push(Inst::LdGlobal {
            ty: PtxType::U32,
            dst: v,
            addr: a_in,
            offset: 0,
        });
        let a_out = index(&mut b, &p_out, tid, 4);
        b.push(Inst::StGlobal {
            ty: PtxType::U32,
            addr: a_out,
            offset: 0,
            src: v.into(),
        });
        let k = lower_kernel(&b.finish()).unwrap();
        // Untouched pages of the arena cost no memory.
        let mem = DeviceMemory::new((1 << 32) + (1 << 16));
        let [po, pi] = [(); 2].map(|_| mem.alloc(4 * 64).unwrap());
        for i in 0..4 * 64 {
            mem.write_bytes(pi + i, [(i as u8).wrapping_add(1)]);
        }
        mem.write_u32(pi + (1 << 32) - 5, 0xDEAD_BEEF);
        let run = |runs: bool| {
            let args = [LaunchArg::Ptr(po), LaunchArg::Ptr(pi)];
            launch(&k, &args, &mem, 1, 64, Mode { runs, ..Mode::BEST });
            (0..64)
                .map(|l| mem.read_u32(po + 4 * l))
                .collect::<Vec<_>>()
        };
        let (runs, lanes) = (run(true), run(false));
        assert_eq!(runs, lanes, "a wrapping column read as a run");
        assert_eq!(runs[0], 0xDEAD_BEEF);
        for l in 5..64u64 {
            let want = u32::from_le_bytes([1, 2, 3, 4].map(|j| (l - 5 + j) as u8));
            assert_eq!(runs[l as usize], want, "lane {l}");
        }
    }

    /// The byte address `p + (idx as u64)·w`, as the generator writes it.
    fn index(b: &mut KernelBuilder, p: &str, idx: Reg, w: i64) -> Reg {
        let off = b.fresh(RegClass::B64);
        b.push(Inst::MulWide {
            dst: off,
            a: idx,
            b: Operand::ImmI(w),
        });
        let base = b.ld_param(p, PtxType::U64);
        b.bin(BinOp::Add, PtxType::U64, base.into(), off.into())
    }

    /// `out[tid] = in[tbl[tid]]` and `out[tid + 192] = in[tbl[tid] + 7]`:
    /// the table's column is consecutive in the first and last of three
    /// tiles and not in the middle one, so the first load through it tests
    /// it again in every tile and the second reuses the answer. The bytes
    /// are those of per-lane accesses.
    #[test]
    fn runs_are_tested_tile_by_tile() {
        let mut b = KernelBuilder::new("gather");
        let [p_out, p_in, p_tbl] = ["out", "in", "tbl"].map(|p| b.param(p, PtxType::U64));
        let tid = b.global_tid();
        let a_tbl = index(&mut b, &p_tbl, tid, 4);
        let site = b.fresh(RegClass::B32);
        b.push(Inst::LdGlobal {
            ty: PtxType::U32,
            dst: site,
            addr: a_tbl,
            offset: 0,
        });
        let shifted = b.bin(BinOp::Add, PtxType::U32, site.into(), Operand::ImmI(7));
        let out_hi = b.bin(BinOp::Add, PtxType::U32, tid.into(), Operand::ImmI(192));
        for (idx, at) in [(site, tid), (shifted, out_hi)] {
            let a_in = index(&mut b, &p_in, idx, 8);
            let v = b.fresh(RegClass::F64);
            b.push(Inst::LdGlobal {
                ty: PtxType::F64,
                dst: v,
                addr: a_in,
                offset: 0,
            });
            let a_out = index(&mut b, &p_out, at, 8);
            b.push(Inst::StGlobal {
                ty: PtxType::F64,
                addr: a_out,
                offset: 0,
                src: v.into(),
            });
        }
        let k = lower_kernel(&b.finish()).unwrap();
        let firsts: Vec<bool> = (k.code.iter())
            .filter_map(|op| match op {
                COp::Ld {
                    addr: Addr::Indexed { first, .. },
                    ty: PtxType::F64,
                    ..
                } => Some(*first),
                _ => None,
            })
            .collect();
        assert_eq!(firsts, [true, false], "{:?}", k.code);

        let table: Vec<u32> = (100..164)
            .chain((0..64).map(|l| (l * 37) % 64 + 300))
            .chain(20..84)
            .collect();
        let run = |runs: bool| {
            let mem = DeviceMemory::new(1 << 16);
            let [po, pi, pt] = [8 * 384, 8 * 512, 4 * 192].map(|b| mem.alloc(b).unwrap());
            for i in 0..512 {
                mem.write_f64(pi + 8 * i, i as f64 + 0.25);
            }
            for (i, &t) in table.iter().enumerate() {
                mem.write_u32(pt + 4 * i as u64, t);
            }
            let args = [po, pi, pt].map(LaunchArg::Ptr);
            launch(&k, &args, &mem, 1, 192, Mode { runs, ..Mode::BEST });
            (0..384)
                .map(|i| mem.read_f64(po + 8 * i))
                .collect::<Vec<_>>()
        };
        let (runs, lanes) = (run(true), run(false));
        assert_eq!(runs, lanes);
        for (t, &s) in table.iter().enumerate() {
            assert_eq!(runs[t], f64::from(s) + 0.25, "thread {t}");
            assert_eq!(runs[t + 192], f64::from(s + 7) + 0.25, "thread {t}");
        }
    }

    /// A store run whose last lanes leave the arena panics before any lane
    /// writes; lane by lane, the lanes before the first bad one have
    /// written. Both panic with that lane's message.
    #[test]
    fn a_store_run_out_of_range_writes_nothing() {
        let mut b = KernelBuilder::new("overrun");
        let p_out = b.param("out", PtxType::U64);
        let tid = b.global_tid();
        let idx = b.bin(BinOp::Add, PtxType::U32, tid.into(), Operand::ImmI(440));
        let a_out = index(&mut b, &p_out, idx, 8);
        b.push(Inst::StGlobal {
            ty: PtxType::F64,
            addr: a_out,
            offset: 0,
            src: Operand::ImmF(1.5),
        });
        let k = lower_kernel(&b.finish()).unwrap();
        for runs in [true, false] {
            let mem = DeviceMemory::new(4096);
            let po = mem.alloc(8).unwrap();
            // Lane 40 stores at 4096, the end of the arena.
            assert_eq!(po + 8 * 480, 4096);
            let launched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                launch(
                    &k,
                    &[LaunchArg::Ptr(po)],
                    &mem,
                    1,
                    64,
                    Mode { runs, ..Mode::BEST },
                )
            }));
            let msg = launched
                .unwrap_err()
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.starts_with("device access out of range: addr=0x1000 len=8"),
                "{msg}"
            );
            let written = (0..40)
                .filter(|l| mem.read_f64(po + 8 * (440 + l)) == 1.5)
                .count();
            assert_eq!(written, if runs { 0 } else { 40 }, "runs {runs}");
        }
    }

    /// `out[tid] = in[tbl[tid]]` through a column that is no run, whose
    /// lanes 10 and 20 point past the arena: the gather's span check fails,
    /// the lanes go one by one, and the launch panics with lane 10's
    /// message — as it does with runs and gathers off.
    #[test]
    fn an_out_of_range_gather_panics_at_its_first_bad_lane() {
        let mut b = KernelBuilder::new("gather_overrun");
        let [p_out, p_in, p_tbl] = ["out", "in", "tbl"].map(|p| b.param(p, PtxType::U64));
        let tid = b.global_tid();
        let a_tbl = index(&mut b, &p_tbl, tid, 4);
        let site = b.fresh(RegClass::B32);
        b.push(Inst::LdGlobal {
            ty: PtxType::U32,
            dst: site,
            addr: a_tbl,
            offset: 0,
        });
        let a_in = index(&mut b, &p_in, site, 8);
        let v = b.fresh(RegClass::F64);
        b.push(Inst::LdGlobal {
            ty: PtxType::F64,
            dst: v,
            addr: a_in,
            offset: 0,
        });
        let a_out = index(&mut b, &p_out, tid, 8);
        b.push(Inst::StGlobal {
            ty: PtxType::F64,
            addr: a_out,
            offset: 0,
            src: v.into(),
        });
        let k = lower_kernel(&b.finish()).unwrap();
        for runs in [true, false] {
            let mem = DeviceMemory::new(1 << 14);
            let [po, pi, pt] = [8 * 64, 8 * 64, 4 * 64].map(|b| mem.alloc(b).unwrap());
            let past = (mem.capacity() as u64 - pi) / 8;
            let mut table: Vec<u64> = (0..64).map(|l| l * 37 % 64).collect();
            (table[10], table[20]) = (past + 3, past);
            for (i, &t) in table.iter().enumerate() {
                mem.write_u32(pt + 4 * i as u64, t as u32);
            }
            let launched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let args = [po, pi, pt].map(LaunchArg::Ptr);
                launch(&k, &args, &mem, 1, 64, Mode { runs, ..Mode::BEST })
            }));
            let msg = launched
                .unwrap_err()
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            let want = format!("device access out of range: addr={:#x} len=8", pi + 8 * (past + 3));
            assert!(msg.starts_with(&want), "runs {runs}: {msg}");
        }
    }

    /// Each addend form the product fold takes — `a·b`, `−(a·b)`, `e + a·b`
    /// in either operand order, `e − a·b` — lowers to one `MulAcc` in f32
    /// and f64; a product with a second use, or an addend that is no
    /// product, stays as written. Over inputs with signed zeros, subnormals,
    /// infinities and NaNs, the folded lowering leaves the unfolded one's
    /// reals on every ISA path.
    #[test]
    fn product_fold_keeps_the_bits() {
        // (form, whether it folds, its addend from the product `p`, `e`
        // and `a`); the reused product is also stored.
        type Addend = fn(&mut KernelBuilder, PtxType, Reg, Reg, Reg) -> Reg;
        let forms: [(&str, bool, Addend); 7] = [
            ("a·b", true, |_, _, p, _, _| p),
            ("−(a·b)", true, |b, ty, p, _, _| {
                let dst = b.fresh_for(ty);
                b.push(Inst::Neg {
                    ty,
                    dst,
                    src: p.into(),
                });
                dst
            }),
            ("e + a·b", true, |b, ty, p, e, _| {
                b.bin(BinOp::Add, ty, e.into(), p.into())
            }),
            ("a·b + e", true, |b, ty, p, e, _| {
                b.bin(BinOp::Add, ty, p.into(), e.into())
            }),
            ("e − a·b", true, |b, ty, p, e, _| {
                b.bin(BinOp::Sub, ty, e.into(), p.into())
            }),
            ("a·b, reused", false, |_, _, p, _, _| p),
            ("e + a", false, |b, ty, _, e, a| {
                b.bin(BinOp::Add, ty, e.into(), a.into())
            }),
        ];
        let specials = [0.0, -0.0, 1e-40, -1e-310, f64::INFINITY, -f64::INFINITY, f64::NAN];
        let n = 256usize;
        let mut rng = StdRng::seed_from_u64(7);
        let inputs: Vec<Vec<f64>> = (0..5)
            .map(|_| {
                (0..n)
                    .map(|_| match rng.random_range(0..3u64) {
                        0 => specials[rng.random_range(0..specials.len() as u64) as usize],
                        _ => f64::from(rng.random::<f32>() * 4.0 - 2.0),
                    })
                    .collect()
            })
            .collect();
        for ty in [PtxType::F32, PtxType::F64] {
            let w = ty.size_bytes();
            for (form, folds, addend) in forms {
                let mut b = KernelBuilder::new("chain");
                let ps = ["out", "a", "b", "c", "d", "e"].map(|p| b.param(p, PtxType::U64));
                let tid = b.global_tid();
                let [va, vb, vc, vd, ve] = [1, 2, 3, 4, 5].map(|i| {
                    let addr = index(&mut b, &ps[i], tid, w as i64);
                    let dst = b.fresh_for(ty);
                    b.push(Inst::LdGlobal {
                        ty,
                        dst,
                        addr,
                        offset: 0,
                    });
                    dst
                });
                let p = b.bin(BinOp::Mul, ty, va.into(), vb.into());
                let addend = addend(&mut b, ty, p, ve, va);
                let r = b.fma(ty, vc.into(), vd.into(), addend.into());
                let a_out = index(&mut b, &ps[0], tid, w as i64);
                b.push(Inst::StGlobal {
                    ty,
                    addr: a_out,
                    offset: 0,
                    src: r.into(),
                });
                if form == "a·b, reused" {
                    b.push(Inst::StGlobal {
                        ty,
                        addr: a_out,
                        offset: (w * n) as i64,
                        src: p.into(),
                    });
                }
                let kernel = b.finish();
                let folded = lower_kernel(&kernel).unwrap();
                let unfolded = lower_kernel_unfolded(&kernel).unwrap();
                let mul_accs = (folded.code.iter()).filter(|op| matches!(op, COp::MulAcc { .. }));
                assert_eq!(mul_accs.count(), usize::from(folds), "{form} {ty:?}");
                // The fold drops the `mul` and the `neg`/`add`/`sub` it took.
                let dropped = match form {
                    "a·b" => 1,
                    _ if folds => 2,
                    _ => 0,
                };
                assert_eq!(folded.code.len() + dropped, unfolded.code.len(), "{form} {ty:?}");

                let run = |k: &CompiledKernel, mode: Mode| {
                    let mem = DeviceMemory::new(1 << 17);
                    let bufs: Vec<u64> = (0..6).map(|_| mem.alloc(2 * w * n).unwrap()).collect();
                    for (x, &p) in inputs.iter().zip(&bufs[1..]) {
                        for (i, &v) in x.iter().enumerate() {
                            match ty {
                                PtxType::F32 => mem.write_f32(p + 4 * i as u64, v as f32),
                                _ => mem.write_f64(p + 8 * i as u64, v),
                            }
                        }
                    }
                    let args: Vec<LaunchArg> = bufs.iter().map(|&p| LaunchArg::Ptr(p)).collect();
                    launch(k, &args, &mem, 2, n as u32 / 2, mode);
                    let mut out = vec![0u8; 2 * w * n];
                    mem.copy_to_host(bufs[0], &mut out);
                    out
                };
                let plain = Mode {
                    isa: Isa::Baseline,
                    runs: false,
                };
                let reference = run(&unfolded, plain);
                for isa in [Isa::Avx2Fma, Isa::Fma, Isa::Baseline] {
                    let got = run(&folded, Mode { isa, ..Mode::BEST });
                    assert!(same_reals(&got, &reference, w), "{form} {ty:?} on {isa:?}");
                }
            }
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

    /// A shuffle reads each partner's value from before the shuffle, even
    /// when its destination is its source register (one column): lane `l`
    /// ends with lane `l ^ mask`'s value, and a lane whose partner is not
    /// active keeps its own. An `f64` butterfly — unpack, two shuffles,
    /// pack, which lowering folds into one 64-bit permutation — moves whole
    /// values the same way, bit for bit.
    #[test]
    fn a_shuffle_reads_the_values_from_before_it() {
        let lanes = |n: u64, f: fn(u64) -> u64| (0..n).map(|l| (f(l), 0)).collect::<Vec<_>>();
        let in_place = |k: &mut KernelBuilder, x: Reg, _| {
            k.push(Inst::Shfl {
                dst: x,
                src: x,
                lane_mask: 5,
            });
            x
        };
        let got = run_lanes(PtxType::U32, &lanes(64, |l| l), in_place);
        assert_eq!(got, (0..64).map(|l| l ^ 5).collect::<Vec<_>>());
        // 40 active lanes: lanes 32..40 pair with 37..40 and 32..35, and
        // 35..37's partners (40..42) are not active.
        let got = run_lanes(PtxType::U32, &lanes(40, |l| l), in_place);
        let want = |l: u64| if l ^ 5 < 40 { l ^ 5 } else { l };
        assert_eq!(got, (0..40).map(want).collect::<Vec<_>>());

        let bits = |l: u64| (-(l as f64) - 0.25).to_bits();
        let got = run_lanes(PtxType::F64, &lanes(64, bits), |k, x, _| k.bfly_f64(x, 9));
        assert_eq!(got, (0..64).map(|l| bits(l ^ 9)).collect::<Vec<_>>());
    }

    #[test]
    fn int_semantics() {
        for (op, ty, a, b, want) in [
            (BinOp::Add, PtxType::U32, 0xFFFF_FFFF, 1, 0),
            (BinOp::Add, PtxType::U64, u64::MAX, 2, 1),
            (BinOp::Shr, PtxType::U32, 0x8000_0000, 31, 1),
            (BinOp::Shr, PtxType::U32, 0xFFFF_FFFF, 32, 0),
        ] {
            // In a tile: the case in lane 0, and for `add`, which
            // commutes, its operands swapped in lane 1.
            let swapped = if op == BinOp::Add { (b, a) } else { (a, b) };
            let lanes = run_lanes(ty, &[(a, b), swapped], |k, x, y| {
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
