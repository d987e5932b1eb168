//! The PTX backend: driving the expression walk with this backend *builds
//! the kernel* — every algebra call appends PTX instructions, every leaf
//! access emits the layout computation and a global load ("JIT data views",
//! §III-B).

use crate::codegen::backend::Backend;
use qdp_expr::{FieldRef, ShiftDir};
use qdp_layout::{LayoutKind, NeighborEntry};
use qdp_ptx::inst::{BinOp, CmpOp, Inst, Operand};
use qdp_ptx::module::KernelBuilder;
use qdp_ptx::types::{PtxType, Reg, RegClass};
use qdp_types::{FloatType, TypeShape};
use std::collections::HashMap;

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
    /// Whether neighbour tables may contain remote (receive-buffer) entries.
    pub remote_shifts: bool,
    /// Face volume per dimension (`IV` of the receive buffers).
    pub face_vols: [usize; 4],
    /// Shift pairs used by the expression, in [`qdp_expr::Expr::shifts`] order.
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
    /// Predicate set when the entry is remote (receive buffer), together
    /// with the `(mu, dir)` of the final hop (selects the buffer's `IV`).
    remote: Option<(Reg, usize, ShiftDir)>,
}

/// Per-statement metadata of a kernel: the target's storage precision and
/// shape, and how many scalar parameters the statement's expression
/// consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StmtMeta {
    /// Target field precision (stores convert when it differs).
    pub target_ft: FloatType,
    /// Target element shape.
    pub target_shape: TypeShape,
    /// Scalar parameters consumed by this statement's expression.
    pub n_scalars: usize,
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
    site_cache: HashMap<Vec<(usize, ShiftDir)>, PathSite>,
    leaf_bases: Vec<Reg>,
    base_site: Reg,
    scalar_regs: Vec<(Reg, Option<Reg>)>,
    table_bases: HashMap<(usize, ShiftDir), Reg>,
    recv_bases: HashMap<(usize, ShiftDir, usize), Reg>,
    exit_label: String,
    const_cache: HashMap<u64, Reg>,
    /// One destination per statement of `env.stmts`.
    dsts: Vec<StmtDst>,
    /// Index of the statement currently being generated.
    cur_stmt: usize,
    /// First structural fault seen during the walk (malformed DAG).
    fault: Option<&'static str>,
}

impl<'a> PtxGen<'a> {
    /// Start a kernel over the K ≥ 1 statements of `env.stmts`: declares
    /// the parameter list (the marshalling contract shared with the
    /// launcher), computes the thread's site index and emits the bounds
    /// guard. Parameters: one destination per statement (`dst` for K = 1,
    /// `dst0..dstK-1` otherwise), one shared leaf table, the statements'
    /// scalars concatenated in statement order (`env.scalar_complex` is
    /// that concatenation; `env.stmts[i].n_scalars` partitions it), `n`,
    /// the site table, the neighbour tables and — K = 1 only, the planner
    /// never groups remote shifts — the receive buffers.
    /// [`PtxGen::begin_stmt`] switches the destination and scalar window
    /// between statements.
    pub fn new(name: &str, env: &'a KernelEnv, leaves: &'a [FieldRef]) -> PtxGen<'a> {
        assert!(!env.stmts.is_empty(), "a kernel needs at least one statement");
        assert!(
            env.stmts.len() == 1 || !env.remote_shifts,
            "multi-statement kernels must not carry remote shifts"
        );
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
        let p_sites = env.subset_mapped.then(|| kb.param("sites", PtxType::U64));
        let mut p_tables = Vec::new();
        for &(mu, dir) in &env.shifts {
            p_tables.push((
                (mu, dir),
                kb.param(format!("tbl_{mu}_{}", dir_tag(dir)), PtxType::U64),
            ));
        }
        let mut p_recv = Vec::new();
        if env.remote_shifts {
            for &(mu, dir) in &env.shifts {
                for li in 0..leaves.len() {
                    p_recv.push((
                        (mu, dir, li),
                        kb.param(format!("recv_{mu}_{}_{li}", dir_tag(dir)), PtxType::U64),
                    ));
                }
            }
        }

        // --- prologue: thread id, guard, site index ---
        let tid = kb.global_tid();
        let n = kb.ld_param(&p_n, PtxType::U32);
        let exit_label = kb.guard(tid, n);

        let base_site = if let Some(ps) = &p_sites {
            // site = sites[tid]
            let sites_base = kb.ld_param(ps, PtxType::U64);
            let boff = kb.fresh(RegClass::B64);
            kb.push(Inst::MulWide {
                src_ty: PtxType::U32,
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
        let table_bases: HashMap<(usize, ShiftDir), Reg> = p_tables
            .iter()
            .map(|(k, p)| (*k, kb.ld_param(p, PtxType::U64)))
            .collect();
        let recv_bases: HashMap<(usize, ShiftDir, usize), Reg> = p_recv
            .iter()
            .map(|(k, p)| (*k, kb.ld_param(p, PtxType::U64)))
            .collect();

        let mut site_cache = HashMap::new();
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
            recv_bases,
            exit_label,
            const_cache: HashMap::new(),
            dsts,
            cur_stmt: 0,
            fault: None,
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
    fn resolve_path(&mut self) -> (Reg, Option<(Reg, usize, ShiftDir)>) {
        if let Some(ps) = self.site_cache.get(&self.path) {
            return (ps.off, ps.remote);
        }
        // Build incrementally from the longest cached prefix.
        let full = self.path.clone();
        let mut depth = full.len() - 1;
        while depth > 0 && !self.site_cache.contains_key(&full[..depth].to_vec()) {
            depth -= 1;
        }
        for d in depth..full.len() {
            let prefix: Vec<_> = full[..d].to_vec();
            let next: Vec<_> = full[..=d].to_vec();
            if self.site_cache.contains_key(&next) {
                continue;
            }
            let parent = &self.site_cache[&prefix];
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
            let boff = self.kb.fresh(RegClass::B64);
            self.kb.push(Inst::MulWide {
                src_ty: PtxType::U32,
                dst: boff,
                a: parent_off,
                b: Operand::ImmI(4),
            });
            let addr = self
                .kb
                .bin(BinOp::Add, PtxType::U64, tbl.into(), boff.into());
            let entry = self.kb.fresh(RegClass::B32);
            self.kb.push(Inst::LdGlobal {
                ty: PtxType::U32,
                dst: entry,
                addr,
                offset: 0,
            });
            let ps = if self.env.remote_shifts {
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
                    remote: Some((pred, mu, dir)),
                }
            } else {
                PathSite {
                    off: entry,
                    remote: None,
                }
            };
            self.site_cache.insert(next, ps);
        }
        let ps = &self.site_cache[&full];
        (ps.off, ps.remote)
    }

    /// Byte address of `(base, off_site, comp)` under the layout.
    fn address(&mut self, base: Reg, off: Reg, comp: usize, iv: usize, esize: usize, n_comp: usize) -> Reg {
        let elem = match self.env.layout {
            LayoutKind::SoA => {
                // elem = comp*IV + off
                if comp == 0 {
                    off
                } else {
                    self.kb.bin(
                        BinOp::Add,
                        PtxType::U32,
                        off.into(),
                        Operand::ImmI((comp * iv) as i64),
                    )
                }
            }
            LayoutKind::AoS => {
                // elem = off*n_comp + comp
                let dst = self.kb.fresh(RegClass::B32);
                self.kb.push(Inst::MadLo {
                    ty: PtxType::U32,
                    dst,
                    a: off.into(),
                    b: Operand::ImmI(n_comp as i64),
                    c: Operand::ImmI(comp as i64),
                });
                dst
            }
        };
        let byte = self.kb.fresh(RegClass::B64);
        self.kb.push(Inst::MulWide {
            src_ty: PtxType::U32,
            dst: byte,
            a: elem,
            b: Operand::ImmI(esize as i64),
        });
        self.kb
            .bin(BinOp::Add, PtxType::U64, base.into(), byte.into())
    }
}

impl<'a> Backend for PtxGen<'a> {
    type V = Reg;

    fn c(&mut self, v: f64) -> Reg {
        let key = v.to_bits();
        if let Some(r) = self.const_cache.get(&key) {
            return *r;
        }
        let r = self.kb.mov(self.ty, Operand::ImmF(v));
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
        self.kb.push(Inst::Unary {
            op: qdp_ptx::inst::UnOp::Neg,
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
            Some((pred, mu, dir)) => {
                let local = self.address(base, off, comp, self.env.n_sites, esize, n_comp);
                let rbase = *self
                    .recv_bases
                    .get(&(mu, dir, leaf))
                    .expect("missing recv param");
                let iv_r = self.env.face_vols[mu];
                let remote_addr = self.address(rbase, off, comp, iv_r, esize, n_comp);
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
