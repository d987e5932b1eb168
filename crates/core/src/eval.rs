//! The evaluation pipeline: expression → PTX → JIT → cache → tuned launch.
//!
//! This is the paper's §III–§IV machinery end to end: the AST is unparsed
//! into a PTX kernel (once per expression *structure*), the driver JIT
//! translates it (once, cached), the software cache pages every referenced
//! field onto the device, and the kernel is launched with an auto-tuned
//! block size. A reference path evaluates the same AST on the CPU — the
//! "original implementation" — for validation and baseline timing.

use crate::codegen::backend::Backend;
use crate::codegen::cpu_backend::CpuGen;
use crate::codegen::cse::CseBackend;
use crate::codegen::fuse::Stmt;
use crate::codegen::ptx_backend::{KernelEnv, PtxGen, StmtMeta, WARP};
use crate::codegen::value::{gen_expr, store_val, GenCtx};
use crate::context::QdpContext;
use crate::multinode::face_messages;
use qdp_cache::CacheError;
use qdp_expr::{Expr, FieldRef, KernelSignature, KeySink, TypeError};
use qdp_gpu_sim::{KernelShape, LaunchError, StreamId};
use qdp_jit::{launch_tuned_on, JitError, LaunchArg};
use qdp_layout::{FieldLayout, LayoutKind, Subset};
use qdp_ptx::emit::emit_module;
use qdp_ptx::module::{Kernel, Module};
use qdp_ptx::opt::{optimize_kernel, OptLevel};
use qdp_types::{FloatType, Real, TypeShape};
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Errors from expression evaluation.
#[derive(Debug)]
pub enum CoreError {
    /// Ill-typed expression.
    Type(TypeError),
    /// Memory-cache failure.
    Cache(CacheError),
    /// Launch failure that auto-tuning could not recover.
    Launch(LaunchError),
    /// JIT translation failure.
    Jit(JitError),
    /// Structural fault found while generating code for a malformed DAG
    /// (e.g. an unbalanced shift pop).
    Codegen(String),
    /// A communication primitive failed (peer lost, deadline timeout,
    /// injected rank kill) — recoverable by checkpoint/restart.
    Comm(qdp_comm::CommError),
    /// Device allocation failed with the memory picture at the time.
    DeviceOom {
        what: String,
        requested: usize,
        used: usize,
        free: usize,
    },
    /// Anything else.
    Msg(String),
}

impl From<TypeError> for CoreError {
    fn from(e: TypeError) -> Self {
        CoreError::Type(e)
    }
}
impl From<CacheError> for CoreError {
    fn from(e: CacheError) -> Self {
        CoreError::Cache(e)
    }
}
impl From<LaunchError> for CoreError {
    fn from(e: LaunchError) -> Self {
        CoreError::Launch(e)
    }
}
impl From<JitError> for CoreError {
    fn from(e: JitError) -> Self {
        CoreError::Jit(e)
    }
}
impl From<qdp_comm::CommError> for CoreError {
    fn from(e: qdp_comm::CommError) -> Self {
        CoreError::Comm(e)
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Type(e) => write!(f, "{e}"),
            CoreError::Cache(e) => write!(f, "{e}"),
            CoreError::Launch(e) => write!(f, "{e}"),
            CoreError::Jit(e) => write!(f, "{e}"),
            CoreError::Codegen(m) => write!(f, "codegen fault: {m}"),
            CoreError::Comm(e) => write!(f, "comm failure: {e}"),
            CoreError::DeviceOom {
                what,
                requested,
                used,
                free,
            } => write!(
                f,
                "device memory exhausted allocating {what}: requested {requested} B \
                 ({used} B in use, {free} B free)"
            ),
            CoreError::Msg(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Outcome of one evaluated expression.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Generated kernel name.
    pub kernel_name: String,
    /// Auto-tuned block size used.
    pub block_size: u32,
    /// Simulated execution time of the launch (seconds).
    pub sim_time: f64,
    /// Payload threads (sites evaluated).
    pub threads: usize,
    /// Sustained bandwidth of the launch (bytes/s, simulated).
    pub bandwidth: f64,
    /// Flop rate of the launch (flops/s, simulated).
    pub flops_rate: f64,
    /// Partials each reduction statement of the group wrote: one per warp
    /// of each launch, consecutive in launch order (0 without one).
    pub(crate) partials: usize,
}

impl EvalReport {
    fn empty() -> EvalReport {
        EvalReport {
            kernel_name: String::new(),
            block_size: 0,
            sim_time: 0.0,
            threads: 0,
            bandwidth: 0.0,
            flops_rate: 0.0,
            partials: 0,
        }
    }
}

pub(crate) fn max_ft(a: FloatType, b: FloatType) -> FloatType {
    if a == FloatType::F64 || b == FloatType::F64 {
        FloatType::F64
    } else {
        FloatType::F32
    }
}

/// Which sites a launch evaluates.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SiteSel {
    /// A standard subset (All / Even / Odd).
    Subset(Subset),
    /// A device-resident site list: a pinned §V inner/face table.
    List {
        /// Device pointer to the u32 site list.
        ptr: qdp_gpu_sim::DevicePtr,
        /// Number of sites.
        len: usize,
    },
}

/// The receive buffers of a halo-schedule launch (§V): one per split face
/// `(mu, dir)`, holding that face's [`crate::multinode::FaceMessage`].
pub(crate) type RemoteEnv =
    std::collections::HashMap<(usize, qdp_expr::ShiftDir), qdp_gpu_sim::DevicePtr>;

/// The codegen-facing description of one kernel — a group of K ≥ 1
/// statements evaluated per site: environment, leaf table, key and name.
/// Built on a kernel-cache miss, and by the golden-PTX snapshot tests and
/// the conformance fuzzer so that every consumer sees *exactly* the kernel
/// the pipeline would run.
pub struct CodegenPlan {
    /// Kernel environment handed to the PTX backend.
    pub env: KernelEnv,
    /// Field leaves in visiting order (kernel parameter order; the
    /// deduplicated union over all statements).
    pub leaves: Vec<FieldRef>,
    /// The kernel's identity: the structural key of its statement group.
    pub key: String,
    /// Kernel name derived from `key` (`qdp_<hash>`; `qdpf_<hash>` for a
    /// multi-statement group).
    pub name: String,
    /// Optimizer level the kernel is planned for (part of `key`).
    pub opt: OptLevel,
}

/// Build the codegen plan for evaluating `expr` into `target` at the
/// context's configured optimizer level. `remote_shifts` plans the halo
/// kernel of a rank grid that splits every dimension; `false` is the
/// single-rank kernel.
pub fn plan_codegen(
    ctx: &QdpContext,
    target: FieldRef,
    expr: &Expr,
    subset_mapped: bool,
    remote_shifts: bool,
) -> Result<CodegenPlan, CoreError> {
    let stream = ctx.device().current_stream();
    let stmts = [Stmt::new(target, Cow::Borrowed(expr), Subset::All, stream)];
    KeyedGroup::new(ctx, &stmts, subset_mapped, [remote_shifts; 4]).plan(ctx, &stmts)
}

/// What a statement's kernel key adds to its expression's: the launch
/// environment, the same for every statement of a group, and the
/// statement's compute precision, role and target type.
struct KeyEnv {
    vol: usize,
    layout: LayoutKind,
    subset_mapped: bool,
    /// The split dimensions as a bit mask (`1 << mu`).
    split: usize,
    opt: OptLevel,
}

impl KeyEnv {
    /// The statement's environment as two token words.
    fn words(&self, s: &Stmt) -> [u32; 2] {
        let vol = u32::try_from(self.vol).expect("a lattice volume fits in 32 bits");
        let flags = u32::from(self.layout == LayoutKind::AoS)
            | (s.ft as u32) << 1
            | u32::from(self.subset_mapped) << 2
            | (self.split as u32) << 3
            | u32::from(s.reduce) << 7
            | (s.target.kind as u32) << 8
            | (s.target.ft as u32) << 12
            | (self.opt as u32) << 13;
        [vol, flags]
    }

    /// The same as text: `|v{vol}|{layout:?}|{stmt_ft}|m{subset_mapped}
    /// |r{split:x}|{t|r}{target kind:?}{target tag}|{opt tag}`, piece by
    /// piece.
    fn write(&self, s: &Stmt, key: &mut String) {
        key.put("|v");
        key.put_num(self.vol);
        key.put(match self.layout {
            LayoutKind::SoA => "|SoA|",
            LayoutKind::AoS => "|AoS|",
        });
        key.put(s.ft.ptx_suffix());
        key.put(match self.subset_mapped {
            true => "|mtrue|r",
            false => "|mfalse|r",
        });
        key.put(&"0123456789abcdef"[self.split..=self.split]);
        key.put(if s.reduce { "|r" } else { "|t" });
        key.put(s.target.kind.name());
        key.put(s.target.ft.tag());
        key.put("|");
        key.put(self.opt.tag());
    }
}

/// One statement group keyed by concatenating its statements' recorded
/// signatures — no expression walk: all a warm launch needs, and the input
/// of [`KeyedGroup::plan`] on a cold one.
pub(crate) struct KeyedGroup {
    /// The launch's leaf table, shift list and scalars: the statements'
    /// signatures appended in order.
    sig: KernelSignature,
    /// The kernel's identity: per statement, its key tokens, its leaf map
    /// into `sig`'s table and its environment words.
    pub(crate) key: Vec<u32>,
    env: KeyEnv,
    /// Compute precision after promotion over every statement and target.
    ft: FloatType,
    /// The attached rank grid's split dimensions (none on one rank): a
    /// shift along one of them reads its face message.
    split: [bool; 4],
}

impl KeyedGroup {
    /// Key `stmts`, whose reductions (see [`StmtMeta::reduce`]) come last:
    /// a reduction computes at its expression's own precision, whatever its
    /// `f64` partials.
    pub(crate) fn new(
        ctx: &QdpContext,
        stmts: &[Stmt],
        subset_mapped: bool,
        split: [bool; 4],
    ) -> KeyedGroup {
        assert!(!stmts.is_empty(), "a kernel needs at least one statement");
        let env = KeyEnv {
            vol: ctx.geometry().vol(),
            layout: ctx.layout(),
            subset_mapped,
            split: (0..4).filter(|&mu| split[mu]).map(|mu| 1 << mu).sum(),
            opt: ctx.opt_level(),
        };
        let mut sig = KernelSignature::default();
        for s in stmts {
            sig.append(&s.sig);
            sig.tokens.extend(env.words(s));
        }
        let key = std::mem::take(&mut sig.tokens);
        let ft = stmts.iter().fold(FloatType::F32, |ft, s| max_ft(ft, s.ft));
        KeyedGroup {
            sig,
            key,
            env,
            ft,
            split,
        }
    }

    /// The text key the tokens render to: per statement, the expression
    /// structure with leaves numbered by the leaf map that follows its
    /// tokens in `key`, then its environment; K ≥ 2 statements are wrapped
    /// as `fused[k1 ; k2 ; …]`.
    fn text_key(&self, stmts: &[Stmt]) -> String {
        let fused = stmts.len() > 1;
        let mut key = String::from(if fused { "fused[" } else { "" });
        let mut at = 0;
        for (i, s) in stmts.iter().enumerate() {
            if i > 0 {
                key.push_str(" ; ");
            }
            at += s.sig.tokens.len();
            let map = &self.key[at..at + s.sig.leaves.len()];
            s.sig.write_key(|slot| map[slot as usize], &mut key);
            self.env.write(s, &mut key);
            at += map.len() + 2;
        }
        debug_assert_eq!(at, self.key.len());
        if fused {
            key.push(']');
        }
        key
    }

    /// The cold half: type-check the statements, render the text key,
    /// name the kernel after it and assemble the codegen environment.
    pub(crate) fn plan(&self, ctx: &QdpContext, stmts: &[Stmt]) -> Result<CodegenPlan, CoreError> {
        for s in stmts {
            let kind = s.expr.kind()?;
            if kind != s.target.kind {
                return Err(CoreError::Msg(format!(
                    "cannot assign {kind:?} expression to {:?} field",
                    s.target.kind
                )));
            }
        }
        let key = self.text_key(stmts);
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let prefix = if stmts.len() == 1 { "qdp" } else { "qdpf" };
        let metas = stmts.iter().map(|s| StmtMeta {
            target_ft: s.target.ft,
            target_shape: TypeShape::of(s.target.kind),
            n_scalars: s.sig.scalars.len(),
            reduce: s.reduce,
        });
        Ok(CodegenPlan {
            env: KernelEnv {
                n_sites: self.env.vol,
                layout: self.env.layout,
                ft: self.ft,
                subset_mapped: self.env.subset_mapped,
                faces: face_messages(&self.sig, self.split, ctx.geometry()),
                shifts: self.sig.shifts.clone(),
                scalar_complex: self.sig.scalar_complex.clone(),
                stmts: metas.collect(),
            },
            leaves: self.sig.leaves.clone(),
            key,
            name: format!("{prefix}_{:016x}", h.finish()),
            opt: self.env.opt,
        })
    }
}

/// Unparse `expr` into a complete PTX module under `plan`, with an explicit
/// kernel name (the launch path uses the structural-hash name; snapshot
/// tests pass stable human-chosen names since hash output is not guaranteed
/// stable across toolchains): the printed form of the kernel a launch
/// builds and lowers ([`build_statements`]).
pub fn render_ptx(plan: &CodegenPlan, expr: &Expr, kernel_name: &str) -> Result<String, CoreError> {
    let kernel = build_statements(plan, &[expr], kernel_name)?;
    Ok(emit_module(&Module::with_kernel(kernel)))
}

/// Build the kernel of the statements of `plan`: the one code generator.
/// Each statement's walk runs over the shared leaf table; the backend's
/// `begin_stmt` switches the destination and scalar window between
/// statements.
///
/// When the plan's optimizer level enables it, the walks run through the
/// DAG-level CSE wrapper, so repeated subexpressions are loaded and
/// computed once per site — with a **fresh** CSE scope per statement (a
/// store invalidates memoised loads of the stored field; the reset keeps
/// producer→consumer loads exact) — the backend computes each address
/// once per kernel, and the built kernel is swept of dead defs and
/// renumbered densely ([`optimize_kernel`]). The result is the program the
/// JIT lowers, as built on a launch and as printed by [`render_ptx`];
/// nothing downstream rewrites it. Malformed DAGs (unbalanced shift pops)
/// surface as [`CoreError::Codegen`] instead of panicking.
pub(crate) fn build_statements(
    plan: &CodegenPlan,
    exprs: &[&Expr],
    kernel_name: &str,
) -> Result<Kernel, CoreError> {
    fn walk<B: Backend>(b: &mut B, expr: &Expr, leaves: &[FieldRef]) -> Result<(), CoreError> {
        let v = gen_expr(expr, b, &mut GenCtx::new(leaves));
        store_val(b, &v);
        match b.fault() {
            Some(f) => Err(CoreError::Codegen(f.to_string())),
            None => Ok(()),
        }
    }
    let mut g = PtxGen::new(kernel_name, &plan.env, &plan.leaves, plan.opt);
    for (i, expr) in exprs.iter().enumerate() {
        g.begin_stmt(i);
        if plan.opt != OptLevel::None {
            let mut b = CseBackend::new(g);
            walk(&mut b, expr, &plan.leaves)?;
            g = b.into_inner();
        } else {
            walk(&mut g, expr, &plan.leaves)?;
        }
    }
    let mut kernel = g.finish();
    optimize_kernel(&mut kernel, plan.opt);
    Ok(kernel)
}

/// Generate the PTX text the pipeline would run for `expr` into `target`
/// over `subset`, under a caller-chosen kernel name. Pure codegen: nothing
/// is compiled, cached or launched.
pub fn codegen_ptx(
    ctx: &QdpContext,
    target: FieldRef,
    expr: &Expr,
    subset: Subset,
    kernel_name: &str,
) -> Result<String, CoreError> {
    let plan = plan_codegen(ctx, target, expr, subset != Subset::All, false)?;
    render_ptx(&plan, expr, kernel_name)
}

/// Evaluate `expr` into `target` over `subset` through the full QDP-JIT
/// pipeline (generated kernel on the simulated device) — QDP++'s
/// `target[subset] = expr`. This is the one evaluation entry point: the
/// launch runs on the issuing thread's bound stream
/// ([`qdp_gpu_sim::Device::current_stream`]) at the context's optimizer
/// level. An immediate evaluation is a statement group of one.
pub fn eval(
    ctx: &QdpContext,
    target: FieldRef,
    expr: &Expr,
    subset: Subset,
) -> Result<EvalReport, CoreError> {
    let stream = ctx.device().current_stream();
    eval_statements(ctx, &[Stmt::new(target, Cow::Borrowed(expr), subset, stream)])
}

/// Evaluate a group of statements over their subset on their stream with
/// one kernel launch; the reductions among them come last and write into
/// partial buffers ([`StmtMeta::reduce`]). The fusion planner guarantees a
/// multi-statement group is legal to run per thread and uniform in subset
/// and stream (see [`crate::codegen::fuse`]). On a context with an attached
/// rank ([`QdpContext::attached_rank`]) a group that shifts along a split
/// dimension runs the §V halo schedule instead of one launch; with a
/// subset or a non-default stream that is an error.
///
/// A statement that reads its own target under a shift gets QDP++'s
/// semantics — the right-hand side is evaluated in full before the
/// assignment — by evaluating into a temporary and copying that into the
/// target: in one kernel, threads would overwrite sites other threads still
/// read. (The fusion planner never groups such a statement.)
pub(crate) fn eval_statements(ctx: &QdpContext, stmts: &[Stmt]) -> Result<EvalReport, CoreError> {
    let (subset, stream) = (stmts[0].subset, stmts[0].stream);
    if let [stmt] = stmts {
        if stmt.self_shift() {
            let target = stmt.target;
            let temp = FieldRef {
                id: ctx.cache().register(ctx.cache().field_bytes(target.id)?),
                ..target
            };
            let r = eval_statements(ctx, &[stmt.retargeted(temp)]).and_then(|mut report| {
                let from_temp = Cow::Owned(Expr::Field(temp));
                let copy = eval_statements(ctx, &[Stmt::new(target, from_temp, subset, stream)])?;
                report.sim_time += copy.sim_time;
                Ok(report)
            });
            ctx.cache().unregister(temp.id);
            return r;
        }
    }
    // The rank belongs to the context: a group that shifts along a split
    // dimension runs the §V halo schedule, which launches through
    // `launch_statements` itself.
    let halo = ctx
        .attached_rank()
        .filter(|mr| stmts.iter().any(|s| mr.crosses_ranks(&s.sig)));
    if let Some(mr) = halo {
        if subset != Subset::All || stream != StreamId::DEFAULT {
            return Err(CoreError::Msg(
                "a shift along a rank-split dimension needs halo exchange, which covers \
                 the full lattice on the default stream: not a subset or another stream"
                    .into(),
            ));
        }
        return mr.eval_halo(stmts);
    }
    launch_statements(ctx, stmts, SiteSel::Subset(subset), stream, None, 0)
}

/// The one statement→kernel launch path: key the group by concatenating
/// its statements' recorded signatures → keyed kernel lookup → page-in →
/// marshal → tuned launch → dirty marks. No expression is walked: a warm
/// key goes from the map probe straight to marshalling; the text key,
/// planning, naming, kernel generation and lowering run on a miss only, and
/// the JIT lowers the kernel the generator built (no PTX text is printed or
/// parsed). The kernel is planned at the context's optimizer level;
/// `remote` carries the §V receive buffers of a halo-schedule launch, whose
/// kernel reads a face message for each shift along a split dimension of
/// the attached rank grid (its group has no nested shifts:
/// `MultiRank::eval_halo` materialises them first). The reductions, last
/// in the group, write their partials from slot `partial_base` on, one per
/// warp of the launch.
pub(crate) fn launch_statements(
    ctx: &QdpContext,
    stmts: &[Stmt],
    sel: SiteSel,
    stream: StreamId,
    remote: Option<&RemoteEnv>,
    partial_base: usize,
) -> Result<EvalReport, CoreError> {
    let subset_mapped = !matches!(sel, SiteSel::Subset(Subset::All));
    let split = remote
        .and_then(|_| ctx.attached_rank())
        .map_or([false; 4], |mr| mr.split_dims());
    let reduce = stmts.iter().any(|s| s.reduce);
    let group = KeyedGroup::new(ctx, stmts, subset_mapped, split);
    let sig = &group.sig;
    let tel = ctx.telemetry();
    let span_name = if stmts.len() == 1 { "eval" } else { "eval_fused" };
    let span = tel
        .span("eval", span_name)
        .with_sim(ctx.device().stream_now(stream));

    let kernel = ctx.kernels().compile_keyed(&group.key, || {
        let plan = group.plan(ctx, stmts)?;
        let _cg = tel.span("eval", "codegen");
        let exprs: Vec<&Expr> = stmts.iter().map(|s| &*s.expr).collect();
        build_statements(&plan, &exprs, &plan.name)
    })?;

    // Page in the working set (every target, then the leaves) — the §IV
    // walk.
    let mut ids: Vec<u64> = stmts.iter().map(|s| s.target.id).collect();
    ids.extend(sig.leaves.iter().map(|l| l.id));
    let ptrs = ctx.cache().assure_on_device(&ids)?;

    let (site_tbl, n_threads) = match sel {
        SiteSel::Subset(s) => ctx.subset_table(s)?,
        SiteSel::List { ptr, len } => (Some(ptr), len),
    };
    if n_threads == 0 {
        return Ok(EvalReport::empty());
    }

    // Marshal arguments in the declaration order of the generated kernel:
    // destinations, leaves, each statement's scalars, n, the first partial
    // slot of a reduction, site table, neighbour tables, one receive buffer
    // per split shift.
    let mut args: Vec<LaunchArg> = ptrs.iter().map(|p| LaunchArg::Ptr(*p)).collect();
    for (&(re, im), cplx) in sig.scalars.iter().zip(sig.scalar_complex.iter()) {
        match group.ft {
            FloatType::F32 => {
                args.push(LaunchArg::F32(re as f32));
                if *cplx {
                    args.push(LaunchArg::F32(im as f32));
                }
            }
            FloatType::F64 => {
                args.push(LaunchArg::F64(re));
                if *cplx {
                    args.push(LaunchArg::F64(im));
                }
            }
        }
    }
    args.push(LaunchArg::U32(n_threads as u32));
    if reduce {
        args.push(LaunchArg::U32(partial_base as u32));
    }
    if let Some(t) = site_tbl {
        args.push(LaunchArg::Ptr(t));
    }
    for &(mu, dir) in sig.shifts.iter() {
        args.push(LaunchArg::Ptr(ctx.neighbor_table(mu, dir, split[mu])?));
    }
    if let Some(recv) = remote {
        for &(mu, dir) in sig.shifts.iter().filter(|&&(mu, _)| split[mu]) {
            args.push(LaunchArg::Ptr(recv[&(mu, dir)]));
        }
    }

    let site_stride = match ctx.layout() {
        LayoutKind::SoA => 1,
        LayoutKind::AoS => (stmts.iter())
            .map(|s| TypeShape::of(s.target.kind).n_reals())
            .max()
            .unwrap_or(1),
    };
    let outcome = launch_tuned_on(
        ctx.device(),
        ctx.kernel_store().map(|s| &**s),
        &kernel,
        &args,
        n_threads,
        site_stride,
        ctx.payload_execution(),
        stream,
    )?;
    for s in stmts {
        ctx.cache().mark_device_dirty(s.target.id)?;
    }
    span.end_with_sim(ctx.device().stream_now(stream));

    Ok(EvalReport {
        kernel_name: kernel.name.clone(),
        block_size: outcome.block_size,
        sim_time: outcome.timing.time,
        threads: n_threads,
        bandwidth: outcome.timing.bandwidth,
        flops_rate: outcome.timing.flops_rate,
        partials: if reduce {
            n_threads.div_ceil(WARP)
        } else {
            0
        },
    })
}

// ---------------------------------------------------------------------------
// Reference (CPU) evaluation — the "original implementation"
// ---------------------------------------------------------------------------

/// Snapshot one field's host data as `Vec<R>` in SoA component order.
fn snapshot_leaf<R: Real>(
    ctx: &QdpContext,
    leaf: &FieldRef,
) -> Result<Vec<R>, CoreError> {
    let vol = ctx.geometry().vol();
    let shape = leaf.shape();
    let n_comp = shape.n_reals();
    let layout = FieldLayout::new(ctx.layout(), vol, n_comp);
    let esize = leaf.ft.size_bytes();
    ctx.cache()
        .with_host(leaf.id, |bytes| {
            let mut out = vec![R::zero(); vol * n_comp];
            for site in 0..vol {
                for comp in 0..n_comp {
                    let idx = layout.real_index(site, comp) * esize;
                    let v = match leaf.ft {
                        FloatType::F32 => {
                            f32::from_le_bytes(bytes[idx..idx + 4].try_into().unwrap()) as f64
                        }
                        FloatType::F64 => {
                            f64::from_le_bytes(bytes[idx..idx + 8].try_into().unwrap())
                        }
                    };
                    out[comp * vol + site] = R::from_f64(v);
                }
            }
            out
        })
        .map_err(CoreError::from)
}

fn eval_reference_typed<R: Real>(
    ctx: &QdpContext,
    target: FieldRef,
    expr: &Expr,
    sites: &[u32],
) -> Result<(), CoreError> {
    let geom = ctx.geometry().clone();
    let vol = geom.vol();
    let KernelSignature { leaves, scalars, .. } = KernelSignature::of(expr);
    let data: Vec<Vec<R>> = leaves
        .iter()
        .map(|l| snapshot_leaf::<R>(ctx, l))
        .collect::<Result<_, _>>()?;

    // The reference path runs through the same DAG-CSE wrapper as the
    // generated kernel. Merged subexpressions are identical deterministic
    // FP ops, so this is value-preserving in every rounding mode — results
    // stay bit-identical whether either side has CSE on or off.
    let results: Vec<(u32, Vec<(usize, R)>)> = sites
        .iter()
        .map(|&s| {
            let cpu = CpuGen::<R>::new(&data, &scalars, &geom, s as usize);
            let mut b = CseBackend::new(cpu);
            let mut cx = GenCtx::new(&leaves);
            let v = gen_expr(expr, &mut b, &mut cx);
            store_val(&mut b, &v);
            if let Some(f) = b.fault() {
                return Err(CoreError::Codegen(f.to_string()));
            }
            Ok((s, b.into_inner().out))
        })
        .collect::<Result<_, _>>()?;

    let shape = TypeShape::of(target.kind);
    let layout = FieldLayout::new(ctx.layout(), vol, shape.n_reals());
    let esize = target.ft.size_bytes();
    ctx.cache().with_host_mut(target.id, |bytes| {
        for (site, outs) in &results {
            for (comp, v) in outs {
                let idx = layout.real_index(*site as usize, *comp) * esize;
                match target.ft {
                    FloatType::F32 => bytes[idx..idx + 4]
                        .copy_from_slice(&(v.to_f64() as f32).to_le_bytes()),
                    FloatType::F64 => {
                        bytes[idx..idx + 8].copy_from_slice(&v.to_f64().to_le_bytes())
                    }
                }
            }
        }
    })?;
    Ok(())
}

/// Evaluate `expr` into `target` over `subset` on the CPU reference path
/// (the paper's "original implementation"). Same operation sequence as the
/// generated kernel — results agree bit-for-bit in the same precision.
pub fn eval_reference(
    ctx: &QdpContext,
    target: FieldRef,
    expr: &Expr,
    subset: Subset,
) -> Result<(), CoreError> {
    let kind = expr.kind()?;
    if kind != target.kind {
        return Err(CoreError::Msg(format!(
            "cannot assign {kind:?} expression to {:?} field",
            target.kind
        )));
    }
    let sites = subset.sites(ctx.geometry());
    match max_ft(expr.float_type(), target.ft) {
        FloatType::F32 => eval_reference_typed::<f32>(ctx, target, expr, &sites),
        FloatType::F64 => eval_reference_typed::<f64>(ctx, target, expr, &sites),
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// The second phase of a batch of reductions: `temps` holds each one's
/// partial buffer, its real components and the partials its launches
/// wrote. One pass over those partials is accounted as a second kernel on
/// the issuing thread's stream (see the substitution note in DESIGN.md),
/// then each buffer's partials are combined on the host side of the
/// simulator ([`pairwise_sums`]) — batching merges only the accounting, so
/// values are bit-identical to reducing the buffers one at a time. With
/// payload execution off no kernel wrote the partials, so none is read:
/// every sum is `+0.0`, with the same accounting. On a context with an
/// attached rank the sums are then allreduced (once per batch): every rank
/// returns the global sums, bit-identical across ranks.
pub(crate) fn reduce_batch(
    ctx: &QdpContext,
    temps: &[(FieldRef, usize, usize)],
) -> Result<Vec<Vec<f64>>, CoreError> {
    let ids: Vec<u64> = temps.iter().map(|(t, ..)| t.id).collect();
    let ptrs = ctx.cache().assure_on_device(&ids)?;
    // Timing: one streaming pass over the partials, `f64` components
    // interleaved.
    let partials = temps.iter().map(|&(.., p)| p).max().unwrap_or(0);
    if partials > 0 {
        let shape = KernelShape {
            threads: partials,
            read_bytes_per_thread: temps.iter().map(|&(_, n, _)| n * 8).sum(),
            write_bytes_per_thread: 0,
            flops_per_thread: temps.iter().map(|&(_, n, _)| n).sum(),
            regs_per_thread: 16,
            access_bytes: 8,
            site_stride: temps[0].1,
            double_precision: true,
        };
        ctx.device()
            .account_launch_on(&shape, 128, ctx.device().current_stream())
            .map_err(CoreError::Launch)?;
    }

    let mem = ctx.device().memory();
    let payload = ctx.payload_execution();
    let mut out: Vec<Vec<f64>> = temps
        .iter()
        .zip(&ptrs)
        .map(|(&(_, n_comp, written), &ptr)| match payload {
            true => mem.with_f64s(ptr, written * n_comp, |v| pairwise_sums(v, n_comp)),
            false => vec![0.0; n_comp],
        })
        .collect();
    // On an attached context the batch's partial sums become global sums
    // with one allreduce.
    if let Some(mr) = ctx.attached_rank() {
        let local: Vec<f64> = out.iter().flatten().copied().collect();
        let mut global = mr.allreduce(&local)?.into_iter();
        for s in out.iter_mut().flatten() {
            *s = global.next().expect("allreduce preserves length");
        }
    }
    Ok(out)
}

/// The per-component sums of a partial buffer `v` (`n_comp` interleaved
/// `f64` components per partial), each in one fixed pairwise order: adjacent
/// partials add in pairs, level by level, an odd last one moving up as it
/// is. With the warp butterfly before it, every sum is the pairwise tree
/// over the launch's threads in thread order, split at powers of two —
/// site order for the whole lattice, table order for a subset — with
/// `+0.0` for threads past the last site; nothing in it depends on the
/// block size, the tile or the thread count. Each sum
/// takes at most 5 + ⌈log₂⌈n/32⌉⌉ roundings per value. Which NaN an add of
/// two NaNs returns is up to the compiled code, so a NaN sum is returned as
/// the one canonical quiet NaN; no partials sum to `+0.0`.
fn pairwise_sums(v: &[f64], n_comp: usize) -> Vec<f64> {
    let sums = match n_comp {
        1 => pairwise::<1>(v).to_vec(),
        2 => pairwise::<2>(v).to_vec(),
        _ => unreachable!("reductions are real or complex, not {n_comp} reals"),
    };
    sums.into_iter()
        .map(|s| if s.is_nan() { f64::NAN } else { s })
        .collect()
}

/// The level-by-level pairing of the `C` interleaved components of `v`,
/// computed as its subtrees: each aligned block of [`WARP`] partials is one
/// unrolled tree ([`tree32`]), and the block sums — a short last block's
/// by levels too — pair by levels.
fn pairwise<const C: usize>(v: &[f64]) -> [f64; C] {
    let blocks = v.chunks_exact(WARP * C);
    let tail = blocks.remainder();
    let mut sums: [Vec<f64>; C] = std::array::from_fn(|_| Vec::with_capacity(blocks.len() + 1));
    for b in blocks {
        for (c, sums) in sums.iter_mut().enumerate() {
            sums.push(tree32(std::array::from_fn(|i| b[i * C + c])));
        }
    }
    std::array::from_fn(|c| {
        if !tail.is_empty() {
            sums[c].push(by_levels(tail.iter().skip(c).step_by(C).copied().collect()));
        }
        by_levels(std::mem::take(&mut sums[c]))
    })
}

/// Adjacent values added in pairs, level by level, an odd last one moving
/// up as it is; no values sum to `+0.0`.
fn by_levels(mut level: Vec<f64>) -> f64 {
    while level.len() > 1 {
        let pairs = level.chunks_exact(2);
        let odd = pairs.remainder().first().copied();
        level = pairs.map(|p| p[0] + p[1]).chain(odd).collect();
    }
    level.first().copied().unwrap_or(0.0)
}

/// [`by_levels`] of 32 values, unrolled.
fn tree32(a: [f64; WARP]) -> f64 {
    let l1: [f64; 16] = std::array::from_fn(|i| a[2 * i] + a[2 * i + 1]);
    let l2: [f64; 8] = std::array::from_fn(|i| l1[2 * i] + l1[2 * i + 1]);
    let l3: [f64; 4] = std::array::from_fn(|i| l2[2 * i] + l2[2 * i + 1]);
    (l3[0] + l3[1]) + (l3[2] + l3[3])
}
