//! The PTX backend: driving the expression walk with this backend *builds
//! the kernel* — every algebra call appends PTX instructions, every leaf
//! access emits the layout computation and a global load ("JIT data views",
//! §III-B).
//!
//! Site paths, constants and parameter loads are computed once per kernel
//! at every optimizer level; at `OptLevel::Default` so are the element
//! index, byte offset and address of a leaf component, shared across
//! leaves and statements ([`IntOp`]). With the DAG CSE wrapper and the
//! sweep that follows the walk, the kernel it builds is the program the
//! JIT lowers.

use crate::codegen::backend::Backend;
use crate::multinode::FaceMessage;
use qdp_expr::{FieldRef, ShiftDir};
use qdp_layout::{LayoutKind, NeighborEntry};
use qdp_ptx::inst::{BinOp, CmpOp, Inst, Operand};
use qdp_ptx::module::KernelBuilder;
use qdp_ptx::opt::OptLevel;
use qdp_ptx::types::{PtxType, Reg, RegClass};
use qdp_ptx::MemoMap;
use qdp_types::{FloatType, TypeShape};

/// Environment of one kernel generation: everything about geometry, layout
/// and subsets that is fixed at code-generation time.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEnv {
    /// Sites per field allocation (the layout's `IV`).
    pub n_sites: usize,
    /// Data layout (SoA coalesced / AoS for the ablation).
    pub layout: LayoutKind,
    /// Compute precision.
    pub ft: FloatType,
    /// Evaluate through a site-list indirection (subsets other than All).
    pub subset_mapped: bool,
    /// The face messages the kernel reads, one per shift of the group along
    /// a dimension split across ranks (empty on one rank): that shift's
    /// neighbour table flags off-rank entries, which read the message's
    /// slabs.
    pub faces: Vec<FaceMessage>,
    /// Shift pairs used by the statements, in
    /// [`qdp_expr::KernelSignature::shifts`] order.
    pub shifts: Vec<(usize, ShiftDir)>,
    /// For each scalar parameter: is it complex? (All statements'
    /// scalars, concatenated in statement order.)
    pub scalar_complex: Vec<bool>,
    /// The statements the kernel evaluates per site, in order (K ≥ 1).
    pub stmts: Vec<StmtMeta>,
}

fn ptx_of(ft: FloatType) -> PtxType {
    match ft {
        FloatType::F32 => PtxType::F32,
        FloatType::F64 => PtxType::F64,
    }
}

fn dir_tag(d: ShiftDir) -> &'static str {
    match d {
        ShiftDir::Forward => "f",
        ShiftDir::Backward => "b",
    }
}

/// Cached addressing info for one shift path.
struct PathSite {
    /// u32 register holding the site index (or receive-buffer slot).
    off: Reg,
    /// Predicate set when the entry is remote, together with the index in
    /// `env.faces` of the final hop's message.
    remote: Option<(Reg, usize)>,
}

/// One pure integer address computation, keyed on its opcode and operands.
/// These values depend only on the thread's site, so unlike the CSE load
/// memo (fresh per statement: a store may change what a load reads) the
/// memo spans the whole kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum IntOp {
    /// `add.u32 d, a, imm` — an SoA element index.
    AddU32(Reg, i64),
    /// `mad.lo.u32 d, a, b, c` — an AoS element index.
    MadLo(Reg, i64, i64),
    /// `mul.wide.u32 d, a, imm` — a byte offset.
    MulWide(Reg, i64),
    /// `add.u64 d, a, b` — an address.
    AddU64(Reg, Reg),
}

/// Per-statement metadata of a kernel: the target's storage precision and
/// shape, how many scalar parameters the statement's expression consumes,
/// and whether the statement is a reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StmtMeta {
    /// Target field precision (stores convert when it differs).
    pub target_ft: FloatType,
    /// Target element shape.
    pub target_shape: TypeShape,
    /// Scalar parameters consumed by this statement's expression.
    pub n_scalars: usize,
    /// A reduction: each warp sums the statement's value over its 32
    /// threads in `f64` and stores the sum as one partial — component `c`
    /// of warp `w` at `target[(partial_base + w)·n_comp + c]` — instead of
    /// a value per site.
    pub reduce: bool,
}

/// Threads per warp: a reduction kernel writes one partial per warp.
pub const WARP: usize = 32;

/// The lane masks of the warp butterfly, in order: after the last step
/// every lane holds the pairwise sum of its warp's 32 values.
const BUTTERFLY: [u32; 5] = [1, 2, 4, 8, 16];

/// What a kernel with a reduction statement keeps for its epilogue.
#[derive(Clone, Copy)]
struct Warp {
    /// Set for a lane past `n` in the last warp: it runs at thread `n − 1`
    /// and adds `+0.0` to the butterfly.
    past: Reg,
    /// The thread index, clamped to `n − 1`.
    tid: Reg,
    /// `partial_base + tid / 32`, once the first reduction store asks.
    index: Option<Reg>,
}

/// Resolved per-statement destination state.
struct StmtDst {
    base: Reg,
    ft: FloatType,
    shape: TypeShape,
    /// This statement's offset into the kernel's flat scalar-register list.
    scalar_base: usize,
}

/// The PTX-emitting backend.
pub struct PtxGen<'a> {
    /// The kernel being built.
    pub kb: KernelBuilder,
    env: &'a KernelEnv,
    leaves: &'a [FieldRef],
    ty: PtxType,
    /// current shift path (outermost first)
    path: Vec<(usize, ShiftDir)>,
    site_cache: MemoMap<Vec<(usize, ShiftDir)>, PathSite>,
    leaf_bases: Vec<Reg>,
    base_site: Reg,
    scalar_regs: Vec<(Reg, Option<Reg>)>,
    table_bases: MemoMap<(usize, ShiftDir), Reg>,
    /// Slab base per `(face index, leaf index)`.
    slab_bases: MemoMap<(usize, usize), Reg>,
    exit_label: String,
    const_cache: MemoMap<u64, Reg>,
    /// Address arithmetic already emitted; `None` at `OptLevel::None`,
    /// which prints every computation where the walk asks for it.
    int_memo: Option<MemoMap<IntOp, Reg>>,
    /// One destination per statement of `env.stmts`.
    dsts: Vec<StmtDst>,
    /// Index of the statement currently being generated.
    cur_stmt: usize,
    /// First structural fault seen during the walk (malformed DAG).
    fault: Option<&'static str>,
    /// Set when a statement reduces.
    warp: Option<Warp>,
}

impl<'a> PtxGen<'a> {
    /// Start a kernel over the K ≥ 1 statements of `env.stmts`: declares
    /// the parameter list (the marshalling contract shared with the
    /// launcher), computes the thread's site index and emits the bounds
    /// guard. Parameters: one destination per statement (`dst` for K = 1,
    /// `dst0..dstK-1` otherwise), one shared leaf table, the statements'
    /// scalars concatenated in statement order (`env.scalar_complex` is
    /// that concatenation; `env.stmts[i].n_scalars` partitions it), `n`,
    /// `partial_base` when a statement reduces, the site table, the
    /// neighbour tables and one receive buffer per face message of the
    /// group, `recv_{mu}_{f|b}`, whose slab bases the prologue forms once.
    ///
    /// A kernel with a reduction statement exits whole warps only (a warp
    /// whose first thread is at or past `n`); a thread past `n` in the
    /// last warp runs at thread `n − 1` — its stores repeat that thread's
    /// bits — and adds `+0.0` to each warp sum. Other kernels keep the
    /// per-thread guard.
    /// [`PtxGen::begin_stmt`] switches the destination and scalar window
    /// between statements. Above `OptLevel::None` address arithmetic is
    /// memoised over the whole kernel.
    pub fn new(
        name: &str,
        env: &'a KernelEnv,
        leaves: &'a [FieldRef],
        opt: OptLevel,
    ) -> PtxGen<'a> {
        assert!(!env.stmts.is_empty(), "a kernel needs at least one statement");
        let mut kb = KernelBuilder::new(name);
        let ty = ptx_of(env.ft);

        // --- parameter declaration (order = marshalling contract) ---
        let p_dsts: Vec<String> = if env.stmts.len() == 1 {
            vec![kb.param("dst", PtxType::U64)]
        } else {
            (0..env.stmts.len())
                .map(|i| kb.param(format!("dst{i}"), PtxType::U64))
                .collect()
        };
        let p_leaves: Vec<String> = (0..leaves.len())
            .map(|i| kb.param(format!("l{i}"), PtxType::U64))
            .collect();
        let mut p_scalars = Vec::new();
        for (j, &cplx) in env.scalar_complex.iter().enumerate() {
            let re = kb.param(format!("s{j}_re"), ty);
            let im = cplx.then(|| kb.param(format!("s{j}_im"), ty));
            p_scalars.push((re, im));
        }
        let p_n = kb.param("n", PtxType::U32);
        let reduces = env.stmts.iter().any(|m| m.reduce);
        if reduces {
            kb.param("partial_base", PtxType::U32);
        }
        let p_sites = env.subset_mapped.then(|| kb.param("sites", PtxType::U64));
        let mut p_tables = Vec::new();
        for &(mu, dir) in &env.shifts {
            p_tables.push((
                (mu, dir),
                kb.param(format!("tbl_{mu}_{}", dir_tag(dir)), PtxType::U64),
            ));
        }
        let p_recv: Vec<String> = env
            .faces
            .iter()
            .map(|f| kb.param(format!("recv_{}_{}", f.mu, dir_tag(f.dir)), PtxType::U64))
            .collect();

        // --- prologue: thread id, guard, site index ---
        let tid = kb.global_tid();
        let n = kb.ld_param(&p_n, PtxType::U32);
        let (exit_label, tid, warp) = if reduces {
            let exit_label = kb.warp_guard(tid, n);
            let past = kb.fresh(RegClass::Pred);
            kb.push(Inst::Setp {
                cmp: CmpOp::Ge,
                ty: PtxType::U32,
                dst: past,
                a: tid.into(),
                b: n.into(),
            });
            let last = kb.bin(BinOp::Add, PtxType::U32, n.into(), Operand::ImmI(-1));
            let clamped = kb.fresh(RegClass::B32);
            kb.push(Inst::Selp {
                ty: PtxType::U32,
                dst: clamped,
                a: last.into(),
                b: tid.into(),
                pred: past,
            });
            let warp = Warp {
                past,
                tid: clamped,
                index: None,
            };
            (exit_label, clamped, Some(warp))
        } else {
            (kb.guard(tid, n), tid, None)
        };

        let base_site = if let Some(ps) = &p_sites {
            // site = sites[tid]
            let sites_base = kb.ld_param(ps, PtxType::U64);
            let boff = kb.fresh(RegClass::B64);
            kb.push(Inst::MulWide {
                dst: boff,
                a: tid,
                b: Operand::ImmI(4),
            });
            let addr = kb.bin(BinOp::Add, PtxType::U64, sites_base.into(), boff.into());
            let site = kb.fresh(RegClass::B32);
            kb.push(Inst::LdGlobal {
                ty: PtxType::U32,
                dst: site,
                addr,
                offset: 0,
            });
            site
        } else {
            tid
        };

        // --- base pointers ---
        let mut scalar_base = 0usize;
        let dsts: Vec<StmtDst> = p_dsts
            .iter()
            .zip(env.stmts.iter())
            .map(|(p, m)| {
                let d = StmtDst {
                    base: kb.ld_param(p, PtxType::U64),
                    ft: m.target_ft,
                    shape: m.target_shape,
                    scalar_base,
                };
                scalar_base += m.n_scalars;
                d
            })
            .collect();
        let leaf_bases: Vec<Reg> = p_leaves
            .iter()
            .map(|p| kb.ld_param(p, PtxType::U64))
            .collect();
        let scalar_regs: Vec<(Reg, Option<Reg>)> = p_scalars
            .iter()
            .map(|(re, im)| {
                let r = kb.ld_param(re, ty);
                let i = im.as_ref().map(|p| kb.ld_param(p, ty));
                (r, i)
            })
            .collect();
        let table_bases: MemoMap<(usize, ShiftDir), Reg> = p_tables
            .iter()
            .map(|(k, p)| (*k, kb.ld_param(p, PtxType::U64)))
            .collect();
        let mut slab_bases = MemoMap::default();
        for (fi, (face, p)) in env.faces.iter().zip(&p_recv).enumerate() {
            let buf = kb.ld_param(p, PtxType::U64);
            for (leaf, offset) in &face.slabs {
                let li = leaves
                    .iter()
                    .position(|l| l.id == leaf.id)
                    .expect("slab of a leaf outside the kernel");
                let base = match *offset {
                    0 => buf,
                    off => kb.bin(BinOp::Add, PtxType::U64, buf.into(), Operand::ImmI(off as _)),
                };
                slab_bases.insert((fi, li), base);
            }
        }

        let mut site_cache = MemoMap::default();
        site_cache.insert(
            Vec::new(),
            PathSite {
                off: base_site,
                remote: None,
            },
        );

        PtxGen {
            kb,
            env,
            leaves,
            ty,
            path: Vec::new(),
            site_cache,
            leaf_bases,
            base_site,
            scalar_regs,
            table_bases,
            slab_bases,
            exit_label,
            const_cache: MemoMap::default(),
            int_memo: (opt != OptLevel::None).then(MemoMap::default),
            dsts,
            cur_stmt: 0,
            fault: None,
            warp,
        }
    }

    /// Select statement `i` — its destination pointer and its
    /// scalar-parameter window — for the stores and `scalar()` reads of the
    /// walk that follows (statement 0 is selected at construction).
    pub fn begin_stmt(&mut self, i: usize) {
        assert!(i < self.dsts.len(), "begin_stmt outside the kernel's statements");
        self.cur_stmt = i;
    }

    /// Seal the kernel: bind the exit label and return the finished kernel.
    pub fn finish(mut self) -> qdp_ptx::module::Kernel {
        let label = self.exit_label.clone();
        self.kb.bind_label(&label);
        self.kb.finish()
    }

    /// Resolve (and cache) the site register for the current shift path.
    fn resolve_path(&mut self) -> (Reg, Option<(Reg, usize)>) {
        if let Some(ps) = self.site_cache.get(&self.path[..]) {
            return (ps.off, ps.remote);
        }
        // Build incrementally from the longest cached prefix; the table is
        // probed by slice, so no prefix is copied just to look it up.
        let full = self.path.clone();
        let mut depth = full.len() - 1;
        while depth > 0 && !self.site_cache.contains_key(&full[..depth]) {
            depth -= 1;
        }
        for d in depth..full.len() {
            if self.site_cache.contains_key(&full[..=d]) {
                continue;
            }
            let parent = &self.site_cache[&full[..d]];
            assert!(
                parent.remote.is_none(),
                "nested shift across a rank boundary is unsupported \
                 (the paper evaluates inner shifts non-overlapping; the \
                 runtime materialises them into temporaries first)"
            );
            let parent_off = parent.off;
            let (mu, dir) = full[d];
            let tbl = *self
                .table_bases
                .get(&(mu, dir))
                .expect("missing neighbour table param");
            // entry = tbl[parent_off]
            let boff = self.int_op(IntOp::MulWide(parent_off, 4));
            let addr = self.int_op(IntOp::AddU64(tbl, boff));
            let entry = self.kb.fresh(RegClass::B32);
            self.kb.push(Inst::LdGlobal {
                ty: PtxType::U32,
                dst: entry,
                addr,
                offset: 0,
            });
            let face = self.env.faces.iter().position(|f| (f.mu, f.dir) == (mu, dir));
            let ps = if let Some(fi) = face {
                // off = entry & 0x7FFFFFFF ; flag = entry >> 31
                let off = self.kb.bin(
                    BinOp::And,
                    PtxType::U32,
                    entry.into(),
                    Operand::ImmI((NeighborEntry::REMOTE_FLAG as i64) - 1),
                );
                let flagbits = self.kb.bin(
                    BinOp::And,
                    PtxType::U32,
                    entry.into(),
                    Operand::ImmI(NeighborEntry::REMOTE_FLAG as i64),
                );
                let pred = self.kb.fresh(RegClass::Pred);
                self.kb.push(Inst::Setp {
                    cmp: CmpOp::Ne,
                    ty: PtxType::U32,
                    dst: pred,
                    a: flagbits.into(),
                    b: Operand::ImmI(0),
                });
                PathSite {
                    off,
                    remote: Some((pred, fi)),
                }
            } else {
                PathSite {
                    off: entry,
                    remote: None,
                }
            };
            self.site_cache.insert(full[..=d].to_vec(), ps);
        }
        let ps = &self.site_cache[&full[..]];
        (ps.off, ps.remote)
    }

    /// Byte address of `(base, off_site, comp)` under the layout.
    fn address(&mut self, base: Reg, off: Reg, comp: usize, iv: usize, esize: usize, n_comp: usize) -> Reg {
        let elem = match self.env.layout {
            // elem = comp*IV + off
            LayoutKind::SoA if comp == 0 => off,
            LayoutKind::SoA => self.int_op(IntOp::AddU32(off, (comp * iv) as i64)),
            // elem = off*n_comp + comp
            LayoutKind::AoS => self.int_op(IntOp::MadLo(off, n_comp as i64, comp as i64)),
        };
        let byte = self.int_op(IntOp::MulWide(elem, esize as i64));
        self.int_op(IntOp::AddU64(base, byte))
    }

    /// The reduction epilogue of component `comp`: `v` in `f64` (`+0.0` in
    /// a lane past `n`), summed over the warp by the butterfly — every lane
    /// ends with the same bits, their pairwise sum — and stored by every
    /// lane into the warp's partial.
    fn reduce_store(&mut self, base: Reg, n_comp: usize, comp: usize, v: Reg) {
        let warp = self.warp.expect("a reduction kernel has a warp guard");
        let v = match self.ty {
            PtxType::F64 => v,
            ty => self.kb.cvt(PtxType::F64, ty, v),
        };
        let mut sum = self.kb.fresh(RegClass::F64);
        self.kb.push(Inst::Selp {
            ty: PtxType::F64,
            dst: sum,
            a: Operand::ImmF(0.0),
            b: v.into(),
            pred: warp.past,
        });
        for lane_mask in BUTTERFLY {
            let other = self.kb.bfly_f64(sum, lane_mask);
            sum = self
                .kb
                .bin(BinOp::Add, PtxType::F64, sum.into(), other.into());
        }
        let index = match warp.index {
            Some(index) => index,
            None => {
                let shift = Operand::ImmI(WARP.ilog2().into());
                let w = self
                    .kb
                    .bin(BinOp::Shr, PtxType::U32, warp.tid.into(), shift);
                let first = self.kb.ld_param("partial_base", PtxType::U32);
                let index = self
                    .kb
                    .bin(BinOp::Add, PtxType::U32, first.into(), w.into());
                self.warp = Some(Warp {
                    index: Some(index),
                    ..warp
                });
                index
            }
        };
        let byte = self.int_op(IntOp::MulWide(index, (n_comp * 8) as i64));
        let addr = self.int_op(IntOp::AddU64(base, byte));
        self.kb.push(Inst::StGlobal {
            ty: PtxType::F64,
            addr,
            offset: (comp * 8) as i64,
            src: sum.into(),
        });
    }

    /// The register holding `op`'s value: emitted now, or — when the memo
    /// is on — the one an earlier identical computation defined.
    fn int_op(&mut self, op: IntOp) -> Reg {
        if let Some(&r) = self.int_memo.as_ref().and_then(|m| m.get(&op)) {
            return r;
        }
        let kb = &mut self.kb;
        let dst = match op {
            IntOp::AddU32(a, imm) => kb.bin(BinOp::Add, PtxType::U32, a.into(), Operand::ImmI(imm)),
            IntOp::MadLo(a, b, c) => {
                let dst = kb.fresh(RegClass::B32);
                kb.push(Inst::MadLo {
                    dst,
                    a: a.into(),
                    b: Operand::ImmI(b),
                    c: Operand::ImmI(c),
                });
                dst
            }
            IntOp::MulWide(a, imm) => {
                let dst = kb.fresh(RegClass::B64);
                kb.push(Inst::MulWide {
                    dst,
                    a,
                    b: Operand::ImmI(imm),
                });
                dst
            }
            IntOp::AddU64(a, b) => kb.bin(BinOp::Add, PtxType::U64, a.into(), b.into()),
        };
        if let Some(m) = &mut self.int_memo {
            m.insert(op, dst);
        }
        dst
    }
}

impl<'a> Backend for PtxGen<'a> {
    type V = Reg;

    fn c(&mut self, v: f64) -> Reg {
        let key = v.to_bits();
        if let Some(r) = self.const_cache.get(&key) {
            return *r;
        }
        let r = self.kb.mov(self.ty, Operand::imm_f(self.ty, v));
        self.const_cache.insert(key, r);
        r
    }

    fn add(&mut self, a: &Reg, b: &Reg) -> Reg {
        self.kb.bin(BinOp::Add, self.ty, (*a).into(), (*b).into())
    }

    fn sub(&mut self, a: &Reg, b: &Reg) -> Reg {
        self.kb.bin(BinOp::Sub, self.ty, (*a).into(), (*b).into())
    }

    fn mul(&mut self, a: &Reg, b: &Reg) -> Reg {
        self.kb.bin(BinOp::Mul, self.ty, (*a).into(), (*b).into())
    }

    fn neg(&mut self, a: &Reg) -> Reg {
        let dst = self.kb.fresh_for(self.ty);
        self.kb.push(Inst::Neg {
            ty: self.ty,
            dst,
            src: (*a).into(),
        });
        dst
    }

    fn fma(&mut self, a: &Reg, b: &Reg, c: &Reg) -> Reg {
        self.kb.fma(self.ty, (*a).into(), (*b).into(), (*c).into())
    }

    fn load(&mut self, leaf: usize, comp: usize) -> Reg {
        let (off, remote) = self.resolve_path();
        let fr = self.leaves[leaf];
        let esize = fr.ft.size_bytes();
        let lty = ptx_of(fr.ft);
        let shape = fr.shape();
        let n_comp = shape.n_reals();
        let base = self.leaf_bases[leaf];
        let addr = match remote {
            None => self.address(base, off, comp, self.env.n_sites, esize, n_comp),
            Some((pred, fi)) => {
                let local = self.address(base, off, comp, self.env.n_sites, esize, n_comp);
                let slab = *self
                    .slab_bases
                    .get(&(fi, leaf))
                    .expect("leaf missing from its face message");
                let iv_r = self.env.faces[fi].face_vol;
                let remote_addr = self.address(slab, off, comp, iv_r, esize, n_comp);
                let dst = self.kb.fresh(RegClass::B64);
                self.kb.push(Inst::Selp {
                    ty: PtxType::U64,
                    dst,
                    a: remote_addr.into(),
                    b: local.into(),
                    pred,
                });
                dst
            }
        };
        let raw = self.kb.fresh_for(lty);
        self.kb.push(Inst::LdGlobal {
            ty: lty,
            dst: raw,
            addr,
            offset: 0,
        });
        if lty == self.ty {
            raw
        } else {
            // implicit type promotion (§III-D)
            self.kb.cvt(self.ty, lty, raw)
        }
    }

    fn scalar(&mut self, idx: usize, imag: bool) -> Reg {
        // Each statement's walk numbers its scalars from zero; the kernel
        // parameter list concatenates them, so shift into the current
        // statement's window.
        let (re, im) = self.scalar_regs[self.dsts[self.cur_stmt].scalar_base + idx];
        if imag {
            im.expect("imaginary part of a real scalar")
        } else {
            re
        }
    }

    fn push_shift(&mut self, mu: usize, dir: ShiftDir) {
        self.path.push((mu, dir));
    }

    fn pop_shift(&mut self) {
        // Mirror of the CPU backend's check: a pop without a matching push
        // means the DAG is malformed. Record the fault so the pipeline can
        // fail with a structured codegen error before any PTX is emitted
        // for launch.
        if self.path.pop().is_none() {
            self.fault = Some("unbalanced shift pop (pop without matching push)");
        }
    }

    fn fault(&self) -> Option<&str> {
        self.fault
    }

    fn store(&mut self, comp: usize, v: &Reg) {
        let d = &self.dsts[self.cur_stmt];
        let (tft, tshape, base) = (d.ft, d.shape, d.base);
        let tty = ptx_of(tft);
        let esize = tft.size_bytes();
        let n_comp = tshape.n_reals();
        if self.env.stmts[self.cur_stmt].reduce {
            return self.reduce_store(base, n_comp, comp, *v);
        }
        let site = self.base_site;
        let addr = self.address(base, site, comp, self.env.n_sites, esize, n_comp);
        let val = if tty == self.ty {
            *v
        } else {
            self.kb.cvt(tty, self.ty, *v)
        };
        self.kb.push(Inst::StGlobal {
            ty: tty,
            addr,
            offset: 0,
            src: val.into(),
        });
    }
}
