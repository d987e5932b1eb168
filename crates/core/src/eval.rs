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
use crate::codegen::fuse::reduce_recorded;
use crate::codegen::ptx_backend::{KernelEnv, PtxGen, StmtMeta};
use crate::codegen::value::{gen_expr, store_val, GenCtx};
use crate::context::QdpContext;
use qdp_cache::CacheError;
use qdp_expr::{Expr, FieldRef, KernelSignature, TypeError};
use qdp_gpu_sim::{KernelShape, LaunchError, StreamId};
use qdp_jit::{launch_tuned_on, CompileRequest, JitError, LaunchArg};
use qdp_layout::{FieldLayout, LayoutKind, Subset};
use qdp_ptx::emit::emit_module;
use qdp_ptx::module::Module;
use qdp_ptx::opt::OptLevel;
use qdp_types::{ElemKind, FloatType, Real, TypeShape};
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write;
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
pub enum SiteSel {
    /// A standard subset (All / Even / Odd).
    Subset(Subset),
    /// An explicit device-resident site list (the inner/face partitions of
    /// the overlap machinery, §V).
    List {
        /// Device pointer to the u32 site list.
        ptr: qdp_gpu_sim::DevicePtr,
        /// Number of sites.
        len: usize,
    },
}

/// Remote-shift environment for multi-rank evaluation (§V): which
/// dimensions are split across ranks, and the receive buffers per
/// `(mu, dir, leaf)`.
#[derive(Debug, Clone)]
pub struct RemoteEnv {
    /// Dimension `mu` is decomposed across ranks.
    pub split_dims: [bool; 4],
    /// `recv[&(mu, dir)][leaf_index]` = receive-buffer device pointer
    /// (0 for unsplit dimensions — never dereferenced).
    pub recv: std::collections::HashMap<(usize, qdp_expr::ShiftDir), Vec<qdp_gpu_sim::DevicePtr>>,
}

/// Which sites an [`EvalParams`] evaluation covers.
#[derive(Debug, Clone, Copy)]
pub enum SiteSpec<'a> {
    /// A standard subset (All / Even / Odd).
    Subset(Subset),
    /// A host-side site list: uploaded as a device table for the launch and
    /// freed afterwards. The user-facing route to non-contiguous subsets.
    Sites(&'a [u32]),
    /// A caller-managed device-resident site table (the inner/face
    /// partitions of the overlap machinery, §V).
    DeviceSites {
        /// Device pointer to the u32 site list.
        ptr: qdp_gpu_sim::DevicePtr,
        /// Number of sites.
        len: usize,
    },
}

/// Parameters for one evaluation through [`eval`] — the single evaluation
/// entry point.
///
/// ```ignore
/// eval(&ctx, target, &expr, &EvalParams::new())?;                        // all sites
/// eval(&ctx, target, &expr, &EvalParams::new().subset(Subset::Even))?;   // subset
/// eval(&ctx, target, &expr, &EvalParams::new().sites(&list))?;           // site list
/// eval(&ctx, target, &expr, &EvalParams::new().stream(compute))?;        // stream-ordered
/// ```
///
/// Defaults: all sites, the issuing thread's bound stream
/// ([`qdp_gpu_sim::Device::current_stream`], resolved when the evaluation
/// is issued), the context's optimizer level, no remote environment.
#[derive(Debug, Clone, Copy)]
pub struct EvalParams<'a> {
    sites: SiteSpec<'a>,
    stream: Option<StreamId>,
    opt_level: Option<OptLevel>,
    remote: Option<&'a RemoteEnv>,
}

impl Default for EvalParams<'_> {
    fn default() -> Self {
        EvalParams::new()
    }
}

impl<'a> EvalParams<'a> {
    /// Default parameters: every site, the issuing thread's stream, context
    /// opt level.
    pub fn new() -> EvalParams<'a> {
        EvalParams {
            sites: SiteSpec::Subset(Subset::All),
            stream: None,
            opt_level: None,
            remote: None,
        }
    }

    /// Evaluate over a standard subset.
    pub fn subset(mut self, s: Subset) -> EvalParams<'a> {
        self.sites = SiteSpec::Subset(s);
        self
    }

    /// Evaluate over an explicit host-side site list (uploaded as a device
    /// table for the launch, freed afterwards).
    pub fn sites(mut self, sites: &'a [u32]) -> EvalParams<'a> {
        self.sites = SiteSpec::Sites(sites);
        self
    }

    /// Evaluate over a caller-managed device-resident site table.
    pub fn device_sites(mut self, ptr: qdp_gpu_sim::DevicePtr, len: usize) -> EvalParams<'a> {
        self.sites = SiteSpec::DeviceSites { ptr, len };
        self
    }

    /// Order the launch (and any site-table upload) on `stream` instead of
    /// the issuing thread's stream, so independent evaluations overlap.
    pub fn stream(mut self, s: StreamId) -> EvalParams<'a> {
        self.stream = Some(s);
        self
    }

    /// The stream an evaluation issued now on `ctx` runs on.
    fn stream_on(&self, ctx: &QdpContext) -> StreamId {
        self.stream.unwrap_or_else(|| ctx.device().current_stream())
    }

    /// Override the kernel optimizer level for this evaluation (instead of
    /// the context's configured level).
    pub fn opt_level(mut self, level: OptLevel) -> EvalParams<'a> {
        self.opt_level = Some(level);
        self
    }

    /// Attach the multi-rank remote-shift environment (§V overlap).
    pub fn remote(mut self, r: &'a RemoteEnv) -> EvalParams<'a> {
        self.remote = Some(r);
        self
    }
}

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
/// context's configured optimizer level.
pub fn plan_codegen(
    ctx: &QdpContext,
    target: FieldRef,
    expr: &Expr,
    subset_mapped: bool,
    remote_shifts: bool,
) -> Result<CodegenPlan, CoreError> {
    let stmts = [(target, expr)];
    KeyedGroup::new(ctx, &stmts, subset_mapped, remote_shifts, ctx.opt_level()).plan(ctx, &stmts)
}

/// One statement group, walked once and keyed once — all a warm launch
/// needs, and the input of [`KeyedGroup::plan`] on a cold one.
pub(crate) struct KeyedGroup {
    /// The walk's output: leaf table, shift list, scalars.
    sig: KernelSignature,
    /// The kernel's identity. Per statement: the expression structure with
    /// leaves numbered in the group's leaf table, the codegen environment,
    /// the statement's compute precision, the target type and the optimizer
    /// level; K ≥ 2 statements are wrapped as `fused[k1 ; k2 ; …]`.
    key: String,
    /// Compute precision after promotion over every statement and target.
    ft: FloatType,
    metas: Vec<StmtMeta>,
    subset_mapped: bool,
    remote_shifts: bool,
    opt: OptLevel,
}

impl KeyedGroup {
    pub(crate) fn new(
        ctx: &QdpContext,
        stmts: &[(FieldRef, &Expr)],
        subset_mapped: bool,
        remote_shifts: bool,
        opt: OptLevel,
    ) -> KeyedGroup {
        assert!(!stmts.is_empty(), "a kernel needs at least one statement");
        let (vol, layout) = (ctx.geometry().vol(), ctx.layout());
        let fused = stmts.len() > 1;
        let mut sig = KernelSignature::default();
        let mut key = String::from(if fused { "fused[" } else { "" });
        let mut ft = FloatType::F32;
        let mut metas = Vec::with_capacity(stmts.len());
        for (i, &(target, expr)) in stmts.iter().enumerate() {
            if i > 0 {
                key.push_str(" ; ");
            }
            let n_before = sig.scalars.len();
            let stmt_ft = max_ft(sig.push(expr, &mut key), target.ft);
            ft = max_ft(ft, stmt_ft);
            // Writing to a `String` cannot fail.
            let _ = write!(
                key,
                "|v{vol}|{layout:?}|{stmt_ft}|m{subset_mapped}|r{remote_shifts}|t{:?}{}|{}",
                target.kind,
                target.ft.tag(),
                opt.tag(),
            );
            metas.push(StmtMeta {
                target_ft: target.ft,
                target_shape: TypeShape::of(target.kind),
                n_scalars: sig.scalars.len() - n_before,
            });
        }
        if fused {
            key.push(']');
        }
        KeyedGroup {
            sig,
            key,
            ft,
            metas,
            subset_mapped,
            remote_shifts,
            opt,
        }
    }

    /// The cold half: type-check the statements, name the kernel after its
    /// key and assemble the codegen environment.
    pub(crate) fn plan(
        &self,
        ctx: &QdpContext,
        stmts: &[(FieldRef, &Expr)],
    ) -> Result<CodegenPlan, CoreError> {
        for &(target, expr) in stmts {
            let kind = expr.kind()?;
            if kind != target.kind {
                return Err(CoreError::Msg(format!(
                    "cannot assign {kind:?} expression to {:?} field",
                    target.kind
                )));
            }
        }
        let vol = ctx.geometry().vol();
        let dims = ctx.geometry().dims();
        let mut h = DefaultHasher::new();
        self.key.hash(&mut h);
        let prefix = if stmts.len() == 1 { "qdp" } else { "qdpf" };
        Ok(CodegenPlan {
            env: KernelEnv {
                n_sites: vol,
                layout: ctx.layout(),
                ft: self.ft,
                subset_mapped: self.subset_mapped,
                remote_shifts: self.remote_shifts,
                face_vols: std::array::from_fn(|mu| vol / dims[mu]),
                shifts: self.sig.shifts.clone(),
                scalar_complex: self.sig.scalar_complex.clone(),
                stmts: self.metas.clone(),
            },
            leaves: self.sig.leaves.clone(),
            key: self.key.clone(),
            name: format!("{prefix}_{:016x}", h.finish()),
            opt: self.opt,
        })
    }
}

/// Unparse `expr` into a complete PTX module under `plan`, with an explicit
/// kernel name (the launch path uses the structural-hash name; snapshot
/// tests pass stable human-chosen names since hash output is not guaranteed
/// stable across toolchains).
pub fn render_ptx(plan: &CodegenPlan, expr: &Expr, kernel_name: &str) -> Result<String, CoreError> {
    render_statements(plan, &[expr], kernel_name)
}

/// Unparse the statements of `plan` into one PTX module. Each statement's
/// walk runs over the shared leaf table; the backend's `begin_stmt`
/// switches the destination and scalar window between statements.
///
/// When the plan's optimizer level enables it, the walks run through the
/// DAG-level CSE wrapper, so repeated subexpressions are loaded and
/// computed once per site — with a **fresh** CSE scope per statement (a
/// store invalidates memoised loads of the stored field; the reset keeps
/// producer→consumer loads exact). Malformed DAGs (unbalanced shift pops)
/// surface as [`CoreError::Codegen`] instead of panicking.
pub(crate) fn render_statements(
    plan: &CodegenPlan,
    exprs: &[&Expr],
    kernel_name: &str,
) -> Result<String, CoreError> {
    fn walk<B: Backend>(b: &mut B, expr: &Expr, leaves: &[FieldRef]) -> Result<(), CoreError> {
        let v = gen_expr(expr, b, &mut GenCtx::new(leaves));
        store_val(b, &v);
        match b.fault() {
            Some(f) => Err(CoreError::Codegen(f.to_string())),
            None => Ok(()),
        }
    }
    let mut g = PtxGen::new(kernel_name, &plan.env, &plan.leaves);
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
    Ok(emit_module(&Module::with_kernel(g.finish())))
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

/// Evaluate `expr` into `target` through the full QDP-JIT pipeline
/// (generated kernel on the simulated device), as described by `params` —
/// site selection, stream, optimizer level and remote environment. This is
/// the one evaluation entry point; see [`EvalParams`] for the knobs. An
/// immediate evaluation is a statement group of one.
pub fn eval(
    ctx: &QdpContext,
    target: FieldRef,
    expr: &Expr,
    params: &EvalParams<'_>,
) -> Result<EvalReport, CoreError> {
    eval_statements(ctx, &[(target, expr)], params)
}

/// Evaluate a group of statements with one kernel launch: resolve the site
/// specification of `params` (uploading a host-side site list for the
/// duration of the launch), then launch. The fusion planner guarantees a
/// multi-statement group is legal to run per thread (see
/// [`crate::codegen::fuse`]). On a context with an attached rank
/// ([`QdpContext::attached_rank`]) a statement that shifts along a split
/// dimension runs the §V halo schedule instead of one launch; with a
/// subset, a site list or a non-default stream that is an error.
///
/// A statement that reads its own target under a shift gets QDP++'s
/// semantics — the right-hand side is evaluated in full before the
/// assignment — by evaluating into a temporary and copying that into the
/// target: in one kernel, threads would overwrite sites other threads still
/// read. (The fusion planner never groups such a statement.)
pub(crate) fn eval_statements(
    ctx: &QdpContext,
    stmts: &[(FieldRef, &Expr)],
    params: &EvalParams<'_>,
) -> Result<EvalReport, CoreError> {
    if let &[(target, expr)] = stmts {
        if expr.leaves_under_any_shift().iter().any(|l| l.id == target.id) {
            let temp = FieldRef {
                id: ctx.cache().register(ctx.cache().field_bytes(target.id)?),
                ..target
            };
            let r = eval_statements(ctx, &[(temp, expr)], params).and_then(|mut report| {
                let copy = eval_statements(ctx, &[(target, &Expr::Field(temp))], params)?;
                report.sim_time += copy.sim_time;
                Ok(report)
            });
            ctx.cache().unregister(temp.id);
            return r;
        }
    }
    // The rank belongs to the context: a statement that shifts along a
    // split dimension runs the §V halo schedule, whose own launches carry a
    // remote environment and so do not come back here.
    if params.remote.is_none() {
        if let Some(mr) = ctx.attached_rank() {
            if stmts.iter().any(|(_, e)| mr.crosses_ranks(e)) {
                return match (stmts, params.sites) {
                    (&[(target, expr)], SiteSpec::Subset(Subset::All))
                        if params.stream_on(ctx) == StreamId::DEFAULT =>
                    {
                        mr.eval_halo(target, expr)
                    }
                    _ => Err(CoreError::Msg(
                        "a shift along a rank-split dimension needs halo exchange, which \
                         covers single full-lattice statements on the default stream: not a \
                         subset, a site list or another stream"
                            .into(),
                    )),
                };
            }
        }
    }
    match params.sites {
        SiteSpec::Subset(s) => launch_statements(ctx, stmts, SiteSel::Subset(s), params),
        SiteSpec::DeviceSites { ptr, len } => {
            launch_statements(ctx, stmts, SiteSel::List { ptr, len }, params)
        }
        SiteSpec::Sites(sites) => {
            if sites.is_empty() {
                return Ok(EvalReport::empty());
            }
            let vol = ctx.geometry().vol();
            if let Some(bad) = sites.iter().find(|&&s| s as usize >= vol) {
                return Err(CoreError::Msg(format!(
                    "site {bad} out of range for volume {vol}"
                )));
            }
            let bytes: Vec<u8> = sites.iter().flat_map(|s| s.to_le_bytes()).collect();
            let ptr = ctx
                .device()
                .alloc(bytes.len())
                .map_err(|e| CoreError::Msg(format!("site-list table alloc failed: {e}")))?;
            ctx.device().h2d_async(ptr, &bytes, params.stream_on(ctx));
            let r = launch_statements(
                ctx,
                stmts,
                SiteSel::List {
                    ptr,
                    len: sites.len(),
                },
                params,
            );
            ctx.device().free(ptr);
            r
        }
    }
}

/// The one statement→kernel launch path: walk and key the group once →
/// keyed kernel lookup → page-in → marshal → tuned launch → dirty marks.
/// A warm key goes from the map probe straight to marshalling; planning,
/// naming, PTX generation and the text-keyed JIT cache run on a miss only.
fn launch_statements(
    ctx: &QdpContext,
    stmts: &[(FieldRef, &Expr)],
    sel: SiteSel,
    params: &EvalParams<'_>,
) -> Result<EvalReport, CoreError> {
    let remote = params.remote;
    let stream = params.stream_on(ctx);
    if remote.is_some() && stmts.iter().any(|(_, e)| e.has_nested_shift()) {
        return Err(CoreError::Msg(
            "nested shifts must be materialised before multi-rank evaluation \
             (the paper executes inner shifts non-overlapping, §V)"
                .into(),
        ));
    }
    let subset_mapped = !matches!(sel, SiteSel::Subset(Subset::All));
    let opt = params.opt_level.unwrap_or_else(|| ctx.opt_level());
    let group = KeyedGroup::new(ctx, stmts, subset_mapped, remote.is_some(), opt);
    let sig = &group.sig;
    let tel = ctx.telemetry();
    let span_name = if stmts.len() == 1 { "eval" } else { "eval_fused" };
    let span = tel
        .span("eval", span_name)
        .with_sim(ctx.device().stream_now(stream));

    let kernel = ctx.kernels().compile_keyed(&group.key, || {
        let plan = group.plan(ctx, stmts)?;
        let ptx = {
            let _cg = tel.span("eval", "codegen");
            let exprs: Vec<&Expr> = stmts.iter().map(|(_, e)| *e).collect();
            render_statements(&plan, &exprs, &plan.name)?
        };
        let req = CompileRequest::new(&ptx).opt_level(opt).name(&plan.name);
        Ok::<_, CoreError>(ctx.kernels().compile(req)?)
    })?;

    // Page in the working set (every target, then the leaves) — the §IV
    // walk.
    let mut ids: Vec<u64> = stmts.iter().map(|(t, _)| t.id).collect();
    ids.extend(sig.leaves.iter().map(|l| l.id));
    let ptrs = ctx.cache().assure_on_device(&ids)?;

    let (site_tbl, n_threads) = match sel {
        SiteSel::Subset(s) => ctx.subset_table(s),
        SiteSel::List { ptr, len } => (Some(ptr), len),
    };
    if n_threads == 0 {
        return Ok(EvalReport::empty());
    }

    // Marshal arguments in the declaration order of the generated kernel:
    // destinations, leaves, each statement's scalars, n, site table,
    // neighbour tables, receive buffers.
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
    if let Some(t) = site_tbl {
        args.push(LaunchArg::Ptr(t));
    }
    for &(mu, dir) in sig.shifts.iter() {
        let is_remote = remote.map(|r| r.split_dims[mu]).unwrap_or(false);
        args.push(LaunchArg::Ptr(ctx.neighbor_table(mu, dir, is_remote)));
    }
    if let Some(r) = remote {
        for &(mu, dir) in sig.shifts.iter() {
            match r.recv.get(&(mu, dir)) {
                Some(bufs) => {
                    debug_assert_eq!(bufs.len(), sig.leaves.len());
                    for p in bufs {
                        args.push(LaunchArg::Ptr(*p));
                    }
                }
                None => {
                    for _ in 0..sig.leaves.len() {
                        args.push(LaunchArg::Ptr(0));
                    }
                }
            }
        }
    }

    let site_stride = match ctx.layout() {
        LayoutKind::SoA => 1,
        LayoutKind::AoS => group
            .metas
            .iter()
            .map(|m| m.target_shape.n_reals())
            .max()
            .unwrap_or(1),
    };
    let outcome = launch_tuned_on(
        ctx.device(),
        ctx.tuner(),
        &kernel,
        &args,
        n_threads,
        site_stride,
        ctx.payload_execution(),
        stream,
    )?;
    for (t, _) in stmts {
        ctx.cache().mark_device_dirty(t.id)?;
    }
    span.end_with_sim(ctx.device().stream_now(stream));

    Ok(EvalReport {
        kernel_name: kernel.name.clone(),
        block_size: outcome.block_size,
        sim_time: outcome.timing.time,
        threads: n_threads,
        bandwidth: outcome.timing.bandwidth,
        flops_rate: outcome.timing.flops_rate,
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

/// Evaluate `expr` into `target` on the CPU reference path (the paper's
/// "original implementation"). Same operation sequence as the generated
/// kernel — results agree bit-for-bit in the same precision.
pub fn eval_reference(
    ctx: &QdpContext,
    target: FieldRef,
    expr: &Expr,
    subset: Subset,
) -> Result<(), CoreError> {
    let sites = subset.sites(ctx.geometry());
    eval_reference_sites(ctx, target, expr, &sites)
}

/// Reference evaluation over an arbitrary site list — the CPU-side twin of
/// [`eval`] with a site list. Sites outside the local volume are rejected.
pub fn eval_reference_sites(
    ctx: &QdpContext,
    target: FieldRef,
    expr: &Expr,
    sites: &[u32],
) -> Result<(), CoreError> {
    let kind = expr.kind()?;
    if kind != target.kind {
        return Err(CoreError::Msg(format!(
            "cannot assign {kind:?} expression to {:?} field",
            target.kind
        )));
    }
    let vol = ctx.geometry().vol();
    if let Some(&bad) = sites.iter().find(|&&s| s as usize >= vol) {
        return Err(CoreError::Msg(format!(
            "site list entry {bad} out of range (local volume {vol})"
        )));
    }
    let ft = max_ft(expr.float_type(), target.ft);
    match ft {
        FloatType::F32 => eval_reference_typed::<f32>(ctx, target, expr, sites),
        FloatType::F64 => eval_reference_typed::<f64>(ctx, target, expr, sites),
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Account one combined runtime tree-reduction pass over `temps`
/// (`(temporary, real components)` pairs) as a second kernel on the issuing
/// thread's stream (see the substitution note in DESIGN.md), then sum each
/// temporary on the host side of the simulator in per-component site order
/// ([`site_order_sums`]) — batching merges only the accounting, so values
/// are bit-identical to reducing the temporaries one at a time. On a
/// context with an attached rank the sums are then allreduced (once per
/// batch): every rank returns the global sums, bit-identical across ranks.
pub(crate) fn reduce_batch(
    ctx: &QdpContext,
    temps: &[(FieldRef, usize)],
) -> Result<Vec<Vec<f64>>, CoreError> {
    let vol = ctx.geometry().vol();
    let ids: Vec<u64> = temps.iter().map(|(t, _)| t.id).collect();
    let ptrs = ctx.cache().assure_on_device(&ids)?;
    let (t0, n0) = temps[0];
    let layout0 = FieldLayout::new(ctx.layout(), vol, n0);
    // Timing: one streaming pass over the temporaries.
    let shape = KernelShape {
        threads: vol,
        read_bytes_per_thread: temps
            .iter()
            .map(|(t, n)| n * t.ft.size_bytes())
            .sum(),
        write_bytes_per_thread: 0,
        flops_per_thread: temps.iter().map(|(_, n)| n).sum(),
        regs_per_thread: 16,
        access_bytes: t0.ft.size_bytes(),
        site_stride: layout0.site_stride(),
        double_precision: temps.iter().any(|(t, _)| t.ft == FloatType::F64),
    };
    ctx.device()
        .account_launch_on(&shape, 128, ctx.device().current_stream())
        .map_err(CoreError::Launch)?;

    let mem = ctx.device().memory();
    let layout = ctx.layout();
    let mut out: Vec<Vec<f64>> = temps
        .iter()
        .zip(&ptrs)
        .map(|(&(t, n_comp), &ptr)| match t.ft {
            FloatType::F32 => {
                mem.with_f32s(ptr, vol * n_comp, |v| site_order_sums(v, n_comp, layout))
            }
            FloatType::F64 => {
                mem.with_f64s(ptr, vol * n_comp, |v| site_order_sums(v, n_comp, layout))
            }
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

/// The per-component sums of one reduction temporary `v` (all its reals,
/// stored in `layout`): each component starts from `+0.0` and adds its
/// sites in site order, in `f64`. Temporaries are real (one chain) or
/// complex (a re and an im chain advancing in the same site loop); the
/// order of additions within each chain is the site order either way, so
/// the bits do not depend on the layout or on the loop shape.
fn site_order_sums<R: Copy + Into<f64>>(v: &[R], n_comp: usize, layout: LayoutKind) -> Vec<f64> {
    fn complex_sums<R: Into<f64>>(sites: impl Iterator<Item = (R, R)>) -> Vec<f64> {
        let (re, im) = sites.fold((0.0f64, 0.0f64), |(re, im), (r, i)| {
            (re + r.into(), im + i.into())
        });
        vec![re, im]
    }
    match (n_comp, layout) {
        (1, _) => vec![v.iter().fold(0.0f64, |acc, &x| acc + x.into())],
        (2, LayoutKind::SoA) => {
            let (re, im) = v.split_at(v.len() / 2);
            complex_sums(re.iter().copied().zip(im.iter().copied()))
        }
        (2, LayoutKind::AoS) => complex_sums(v.chunks_exact(2).map(|site| (site[0], site[1]))),
        _ => unreachable!("reduction temporaries are real or complex, not {n_comp} reals"),
    }
}

/// An immediate reduction of one `kind`-valued expression over `subset`:
/// the deferred reduction body with nothing pending — a group of one.
fn reduce_one(
    ctx: &QdpContext,
    expr: Expr,
    kind: ElemKind,
    subset: Subset,
) -> Result<Vec<f64>, CoreError> {
    Ok(reduce_recorded(ctx, Vec::new(), vec![(expr, kind)], subset)?.remove(0))
}

/// `Σ_x expr(x)` for a real-kind expression over a subset.
pub fn sum_real(ctx: &QdpContext, expr: &Expr, subset: Subset) -> Result<f64, CoreError> {
    Ok(reduce_one(ctx, expr.clone(), ElemKind::Real, subset)?[0])
}

/// `Σ_x expr(x)` for a complex-kind expression over a subset.
pub fn sum_complex(
    ctx: &QdpContext,
    expr: &Expr,
    subset: Subset,
) -> Result<(f64, f64), CoreError> {
    let s = reduce_one(ctx, expr.clone(), ElemKind::Complex, subset)?;
    Ok((s[0], s[1]))
}

/// `‖expr‖² = Σ_x Σ_comp |comp|²`.
pub fn norm2(ctx: &QdpContext, expr: &Expr, subset: Subset) -> Result<f64, CoreError> {
    let n2 = Expr::Unary(qdp_expr::UnaryOp::LocalNorm2, Box::new(expr.clone()));
    Ok(reduce_one(ctx, n2, ElemKind::Real, subset)?[0])
}

/// `⟨a, b⟩ = Σ_x Σ_comp conj(a)·b`.
pub fn inner_product(
    ctx: &QdpContext,
    a: &Expr,
    b: &Expr,
    subset: Subset,
) -> Result<(f64, f64), CoreError> {
    let ip = Expr::Binary(
        qdp_expr::BinaryOp::LocalInnerProduct,
        Box::new(a.clone()),
        Box::new(b.clone()),
    );
    let s = reduce_one(ctx, ip, ElemKind::Complex, subset)?;
    Ok((s[0], s[1]))
}
