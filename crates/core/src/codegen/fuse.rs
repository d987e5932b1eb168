//! Graph-level kernel fusion: deferred evaluation scopes and the legality
//! planner. Groups launch through the one statement→kernel path,
//! [`crate::eval`]'s `eval_statements` — an immediate [`crate::eval`] is a
//! group of one.
//!
//! The paper's framework compiles *one kernel per expression* (§III), which
//! leaves solvers issuing long chains of small axpy/norm launches — the
//! launch-overhead wall the hand-tuned QUDA kernels sidestep by fusing.
//! This module recovers most of that headroom without hand-written kernels:
//! a [`FusionScope`] records assignments and reductions instead of
//! launching them, and on flush a planner walks the recorded sequence and
//! groups producer→consumer statements into single fused kernels whenever
//! the target layouts, subsets and streams permit.
//!
//! # Legality
//!
//! A statement may join the open group only if **all** of the following
//! hold; otherwise the group is closed (`fuse.bailouts`) and the statement
//! starts a new one:
//!
//! - same subset and same stream as the group (a fused kernel is one
//!   launch: one subset, one stream);
//! - same compute precision (one fused kernel body has one compute type);
//! - neither it nor the group reads its own target under a shift
//!   (`self-shift`: such a statement runs alone, through a temporary);
//! - it does not read any group target **under a shift** (the fused kernel
//!   runs all statements per thread — a shifted read of a freshly written
//!   field would observe a mix of old and new neighbour values);
//! - no earlier group statement reads *its* target under a shift (same
//!   race, mirrored);
//! - its target is not already written by the group (aliasing write).
//!
//! Unshifted reads of earlier group targets are legal and are the whole
//! point: the consumer's load from its own site happens after the
//! producer's store in the same thread, so `tmp = a+b; n2 = |tmp|²` fuses
//! into one kernel with bit-identical results.
//!
//! The rules do not depend on the rank grid: a program plans the same
//! groups on any number of ranks. On an attached context a group that
//! shifts along a split dimension runs the §V halo schedule as a whole —
//! one message per split face for the group, read by the one fused kernel.
//!
//! A reduction is a statement too: it fuses with the producers before it,
//! and its kernel leaves one partial per warp instead of a value per site.
//! Independent reductions recorded back-to-back (e.g.
//! [`FusionScope::norm2_batch`]) fuse the same way into one multi-output
//! kernel, and their second phases over the partials are accounted as a
//! single combined pass.
//!
//! Fusion is on by default; `QDP_FUSE=0` ([`crate::QdpConfig::fuse`] =
//! false) is a group budget of 1 on the same planner: every statement and
//! every reduction launches alone — the per-expression kernels
//! and launch counts, bit-exactly — and no bailout is ever counted.

use crate::codegen::ptx_backend::WARP;
use crate::context::QdpContext;
use crate::eval::{build_statements, eval_statements, max_ft, reduce_batch, CoreError, KeyedGroup};
use crate::field::{Lattice, QExpr, SiteElem, SiteReal};
use qdp_expr::{BinaryOp, Expr, FieldRef, KernelSignature, UnaryOp};
use qdp_gpu_sim::StreamId;
use qdp_layout::Subset;
use qdp_ptx::emit::emit_module;
use qdp_ptx::module::{Kernel, Module};
use qdp_types::{Complex, ElemKind, FloatType, Real, TypeShape};
use std::borrow::Cow;
use std::sync::Arc;

/// Most statements a single fused kernel may hold (register pressure and
/// parameter-space guard; a split on this budget is not a bailout).
const MAX_GROUP: usize = 8;

/// The group budget in effect on `ctx`: [`MAX_GROUP`], or 1 with fusion
/// off. It bounds statement groups and reduction batches alike.
fn group_budget(ctx: &QdpContext) -> usize {
    if ctx.config().fuse {
        MAX_GROUP
    } else {
        1
    }
}

/// One statement: `target ← expr` over `subset` on `stream`, with its
/// summary — walked once, where the statement is recorded (or an immediate
/// [`crate::eval`] builds it), and read by every legality check, the launch
/// path and the §V schedule after that. An immediate statement borrows its
/// expression; a recorded one owns it.
#[derive(Debug, Clone)]
pub(crate) struct Stmt<'e> {
    pub(crate) target: FieldRef,
    pub(crate) expr: Cow<'e, Expr>,
    pub(crate) subset: Subset,
    pub(crate) stream: StreamId,
    /// The walk: key tokens, leaf table, shifts, scalars and the leaves
    /// each shift reads — the statement's hazard set.
    pub(crate) sig: KernelSignature,
    /// Compute precision: `expr`'s leaves promoted with the target's (a
    /// reduction's `f64` partials promote nothing).
    pub(crate) ft: FloatType,
    /// A reduction into the partial buffer `target`.
    pub(crate) reduce: bool,
}

impl<'e> Stmt<'e> {
    pub(crate) fn new(
        target: FieldRef,
        expr: Cow<'e, Expr>,
        subset: Subset,
        stream: StreamId,
    ) -> Stmt<'e> {
        let sig = KernelSignature::of(&expr);
        Stmt::summarised(target, expr, sig, subset, stream)
    }

    fn summarised(
        target: FieldRef,
        expr: Cow<'e, Expr>,
        sig: KernelSignature,
        subset: Subset,
        stream: StreamId,
    ) -> Stmt<'e> {
        Stmt {
            target,
            expr,
            subset,
            stream,
            ft: max_ft(sig.float_type(), target.ft),
            sig,
            reduce: false,
        }
    }

    /// A reduction of `expr` into the partial buffer `target`.
    fn reduction(
        target: FieldRef,
        expr: Cow<'e, Expr>,
        subset: Subset,
        stream: StreamId,
    ) -> Stmt<'e> {
        let s = Stmt::new(target, expr, subset, stream);
        Stmt {
            ft: s.sig.float_type(),
            reduce: true,
            ..s
        }
    }

    /// `expr` into a new full-lattice temporary of its own kind and
    /// precision on `stream` — the statement that materialises a nested
    /// shift's child (§V). The caller unregisters the temporary.
    pub(crate) fn temporary(
        ctx: &QdpContext,
        expr: Expr,
        stream: StreamId,
    ) -> Result<Stmt<'e>, CoreError> {
        let kind = expr.kind()?;
        let sig = KernelSignature::of(&expr);
        let ft = sig.float_type();
        let bytes = ctx.geometry().vol() * TypeShape::of(kind).n_reals() * ft.size_bytes();
        let target = FieldRef {
            id: ctx.cache().register(bytes),
            kind,
            ft,
        };
        Ok(Stmt::summarised(target, Cow::Owned(expr), sig, Subset::All, stream))
    }

    /// The same statement with its expression rewritten (the §V schedule's
    /// nested shifts materialised), walked as a new statement.
    pub(crate) fn with_expr<'f>(&self, expr: Expr) -> Stmt<'f> {
        let make = if self.reduce { Stmt::reduction } else { Stmt::new };
        make(self.target, Cow::Owned(expr), self.subset, self.stream)
    }

    /// The same statement into `target`, borrowing this one's expression and
    /// summary: a self-shifting statement's evaluation into its temporary.
    pub(crate) fn retargeted(&self, target: FieldRef) -> Stmt<'_> {
        Stmt {
            target,
            expr: Cow::Borrowed(&*self.expr),
            subset: self.subset,
            stream: self.stream,
            sig: self.sig.clone(),
            ft: self.ft,
            reduce: self.reduce,
        }
    }

    /// Ids of the fields the statement reads under a shift (repeats
    /// possible) — its hazard set.
    fn shifted(&self) -> impl Iterator<Item = u64> + '_ {
        let leaves = &self.sig.leaves;
        self.sig.shifted.iter().map(|&(_, l)| leaves[l as usize].id)
    }

    /// Does the statement read its own target under a shift? Then it runs
    /// alone, through a temporary.
    pub(crate) fn self_shift(&self) -> bool {
        self.shifted().any(|id| id == self.target.id)
    }
}

/// Why a statement could not join the open group.
enum Split {
    /// A legality rule failed — counted in `fuse.bailouts`.
    Bailout(&'static str),
    /// The group-size budget is full — a planned split, not a bailout.
    Budget,
}

/// The open group's accumulated legality state.
struct GroupState {
    subset: Subset,
    stream: StreamId,
    ft: FloatType,
    /// Targets written by the group, in statement order.
    targets: Vec<u64>,
    /// Fields read under a shift by any group statement.
    hazards: Vec<u64>,
    /// The group is one statement that reads its own target under a shift
    /// (never joinable).
    self_shift: bool,
    len: usize,
}

impl GroupState {
    fn open(s: &Stmt) -> GroupState {
        GroupState {
            subset: s.subset,
            stream: s.stream,
            ft: s.ft,
            targets: vec![s.target.id],
            self_shift: s.self_shift(),
            hazards: s.sig.hazards().map(|r| r.id).collect(),
            len: 1,
        }
    }

    fn try_join(&mut self, s: &Stmt, budget: usize) -> Result<(), Split> {
        if self.len >= budget {
            return Err(Split::Budget);
        }
        if s.subset != self.subset {
            return Err(Split::Bailout("subset"));
        }
        if s.stream != self.stream {
            return Err(Split::Bailout("stream"));
        }
        if s.ft != self.ft {
            return Err(Split::Bailout("float-type"));
        }
        if self.self_shift || s.self_shift() {
            return Err(Split::Bailout("self-shift"));
        }
        if s.shifted().any(|id| self.targets.contains(&id)) {
            return Err(Split::Bailout("shift-of-group-target"));
        }
        if self.hazards.contains(&s.target.id) {
            return Err(Split::Bailout("target-shifted-earlier"));
        }
        if self.targets.contains(&s.target.id) {
            return Err(Split::Bailout("aliased-target"));
        }
        self.targets.push(s.target.id);
        for id in s.shifted() {
            if !self.hazards.contains(&id) {
                self.hazards.push(id);
            }
        }
        self.len += 1;
        Ok(())
    }
}

/// Walk the statement sequence and partition it into contiguous groups,
/// counting legality bailouts. Order is preserved: groups launch in record
/// order.
fn plan_groups(ctx: &QdpContext, stmts: &[Stmt]) -> Vec<std::ops::Range<usize>> {
    let tel = ctx.telemetry();
    let budget = group_budget(ctx);
    let mut groups = Vec::new();
    let mut start = 0usize;
    let mut state: Option<GroupState> = None;
    for (i, s) in stmts.iter().enumerate() {
        match state.as_mut() {
            None => state = Some(GroupState::open(s)),
            Some(g) => match g.try_join(s, budget) {
                Ok(()) => {}
                Err(split) => {
                    if let Split::Bailout(reason) = split {
                        if tel.enabled() {
                            tel.count("fuse.bailouts", 1);
                            tel.count(&format!("fuse.bailout.{reason}"), 1);
                        }
                    }
                    groups.push(start..i);
                    start = i;
                    state = Some(GroupState::open(s));
                }
            },
        }
    }
    if state.is_some() {
        groups.push(start..stmts.len());
    }
    groups
}

/// Generate the PTX text the fusion pipeline would run for a group of
/// statements over `subset` followed by the reductions of `reductions` (a
/// real or complex expression each, as `norm2`, `inner_product` and `sum`
/// record them), under a caller-chosen kernel name — on an attached
/// context, the §V halo kernel of a full-lattice group that shifts along a
/// split dimension, as the schedule without overlap launches it over the
/// whole lattice. Pure codegen (nothing is compiled, cached or launched),
/// used by the golden-snapshot tests, the optimizer tests and the
/// conformance fuzzer — one statement is a group of one: the printed
/// [`codegen_fused_kernel`].
pub fn codegen_fused_ptx(
    ctx: &QdpContext,
    stmts: &[(FieldRef, Expr)],
    reductions: &[Expr],
    subset: Subset,
    kernel_name: &str,
) -> Result<String, CoreError> {
    let kernel = codegen_fused_kernel(ctx, stmts, reductions, subset, kernel_name)?;
    Ok(emit_module(&Module::with_kernel(kernel)))
}

/// The kernel [`codegen_fused_ptx`] prints, as the code generator builds it
/// and a launch lowers it. Pure codegen, like its printed twin.
pub fn codegen_fused_kernel(
    ctx: &QdpContext,
    stmts: &[(FieldRef, Expr)],
    reductions: &[Expr],
    subset: Subset,
    kernel_name: &str,
) -> Result<Kernel, CoreError> {
    let stream = ctx.device().current_stream();
    let mut group: Vec<Stmt> = stmts
        .iter()
        .map(|(t, e)| Stmt::new(*t, Cow::Borrowed(e), subset, stream))
        .collect();
    for e in reductions {
        // Nothing is launched, so the partial buffer needs no field.
        let partials = FieldRef {
            id: 0,
            kind: e.kind()?,
            ft: FloatType::F64,
        };
        group.push(Stmt::reduction(partials, Cow::Borrowed(e), subset, stream));
    }
    let split = ctx
        .attached_rank()
        .filter(|mr| subset == Subset::All && group.iter().any(|s| mr.crosses_ranks(&s.sig)))
        .map_or([false; 4], |mr| mr.split_dims());
    let keyed = KeyedGroup::new(ctx, &group, subset != Subset::All, split);
    let plan = keyed.plan(ctx, &group)?;
    let exprs: Vec<&Expr> = group.iter().map(|s| &*s.expr).collect();
    build_statements(&plan, &exprs, kernel_name)
}

/// Plan `stmts` into groups and launch each group as one kernel, in record
/// order (groups are uniform in subset and stream by construction); returns,
/// per statement, the partials it wrote (0 for an assignment). Reductions
/// are recorded after the assignments they follow, so a group's reductions
/// are its last statements.
fn flush_stmts(ctx: &QdpContext, stmts: &[Stmt]) -> Result<Vec<usize>, CoreError> {
    let tel = ctx.telemetry();
    let mut partials = vec![0; stmts.len()];
    for g in plan_groups(ctx, stmts) {
        let group = &stmts[g.clone()];
        if group.len() >= 2 {
            tel.count("fuse.groups", 1);
            tel.count("fuse.launches_saved", (group.len() - 1) as u64);
        }
        let reduce = group.iter().filter(|s| s.reduce).count();
        debug_assert!(group[group.len() - reduce..].iter().all(|s| s.reduce));
        let report = eval_statements(ctx, group)?;
        partials[g.end - reduce..g.end].fill(report.partials);
    }
    Ok(partials)
}

/// Evaluate a sequence of raw `target ← expr` statements (full lattice,
/// the issuing thread's stream) through the fusion planner, exactly as a
/// [`FusionScope`] flush would — groups that pass the legality rules
/// launch as fused kernels, the rest launch alone. The untyped entry point
/// for the conformance `--fuse-diff` harness, which needs to drive the
/// planner from generated [`FieldRef`] sequences rather than typed
/// [`Lattice`] handles.
pub fn eval_fused_sequence(
    ctx: &QdpContext,
    stmts: &[(FieldRef, Expr)],
) -> Result<(), CoreError> {
    let stream = ctx.device().current_stream();
    let stmts: Vec<Stmt> = stmts
        .iter()
        .map(|(target, expr)| Stmt::new(*target, Cow::Borrowed(expr), Subset::All, stream))
        .collect();
    flush_stmts(ctx, &stmts).map(drop)
}

/// The one reduction body: record a reduction statement per expression
/// behind `pending`, each into a partial buffer of one `f64` per warp and
/// component, flush (the reductions fuse with any pending producers), run
/// one combined second phase per budget-sized batch over the partials the
/// launches wrote, free the buffers. An immediate reduction is a scope of
/// one: nothing pending, one expression.
pub(crate) fn reduce_recorded(
    ctx: &QdpContext,
    mut pending: Vec<Stmt<'static>>,
    exprs: Vec<(Expr, ElemKind)>,
    subset: Subset,
) -> Result<Vec<Vec<f64>>, CoreError> {
    let stream = ctx.device().current_stream();
    let (_, threads) = ctx.subset_table(subset)?;
    // One partial per warp; on an attached rank the §V inner and face
    // launches each round up to whole warps, which may take one slot more.
    let slots = threads.div_ceil(WARP) + usize::from(ctx.attached_rank().is_some());
    let first = pending.len();
    let mut temps: Vec<(FieldRef, usize)> = Vec::with_capacity(exprs.len());
    for (expr, kind) in exprs {
        debug_assert!(matches!(kind, ElemKind::Real | ElemKind::Complex));
        let n_comp = TypeShape::of(kind).n_reals();
        // Every partial is written by a launch before the second phase
        // reads it, so the buffer's first touch skips the zero fill.
        let target = FieldRef {
            id: ctx.cache().register_scratch(slots * n_comp * 8),
            kind,
            ft: FloatType::F64,
        };
        temps.push((target, n_comp));
        pending.push(Stmt::reduction(target, Cow::Owned(expr), subset, stream));
    }
    let r = (|| {
        let written = flush_stmts(ctx, &pending)?;
        let batch: Vec<(FieldRef, usize, usize)> = temps
            .iter()
            .zip(&written[first..])
            .map(|(&(t, n_comp), &w)| (t, n_comp, w))
            .collect();
        let mut sums = Vec::with_capacity(temps.len());
        for batch in batch.chunks(group_budget(ctx)) {
            sums.extend(reduce_batch(ctx, batch)?);
        }
        Ok(sums)
    })();
    for (t, _) in &temps {
        ctx.cache().unregister(t.id);
    }
    r
}

/// A deferred-evaluation scope (see [`crate::QdpContext::deferred`]):
/// assignments and reductions issued through it are recorded, then fused
/// and launched on flush — a reduction, an explicit
/// [`FusionScope::flush`], or scope drop. A statement runs on the stream
/// the recording thread had bound when it was recorded (statements on
/// different streams never fuse with each other). With fusion off
/// ([`crate::QdpConfig::fuse`] = false) the same flush launches every
/// statement alone.
pub struct FusionScope {
    ctx: Arc<QdpContext>,
    pending: Vec<Stmt<'static>>,
}

impl FusionScope {
    /// Open a scope on `ctx`.
    pub fn new(ctx: Arc<QdpContext>) -> FusionScope {
        FusionScope {
            ctx,
            pending: Vec::new(),
        }
    }

    /// The owning context.
    pub fn context(&self) -> &Arc<QdpContext> {
        &self.ctx
    }

    fn record(&mut self, target: FieldRef, expr: Expr, subset: Subset) {
        let stream = self.ctx.device().current_stream();
        self.pending.push(Stmt::new(target, Cow::Owned(expr), subset, stream));
    }

    /// Deferred `target = rhs` over the whole lattice.
    pub fn assign<E: SiteElem>(
        &mut self,
        target: &Lattice<E>,
        rhs: QExpr<E>,
    ) -> Result<(), CoreError> {
        self.record(target.fref(), rhs.0, Subset::All);
        Ok(())
    }

    /// Deferred `target[subset] = rhs`.
    pub fn assign_on<E: SiteElem>(
        &mut self,
        subset: Subset,
        target: &Lattice<E>,
        rhs: QExpr<E>,
    ) -> Result<(), CoreError> {
        self.record(target.fref(), rhs.0, subset);
        Ok(())
    }

    /// [`reduce_recorded`] behind everything recorded so far, over the
    /// whole lattice.
    fn reduce(&mut self, exprs: Vec<(Expr, ElemKind)>) -> Result<Vec<Vec<f64>>, CoreError> {
        let pending = std::mem::take(&mut self.pending);
        reduce_recorded(&self.ctx, pending, exprs, Subset::All)
    }

    /// `‖expr‖²` as a deferred reduction: the local-norm temporary fuses
    /// with pending producers, then one reduction pass runs.
    fn norm2_of<E: SiteElem>(&mut self, q: &QExpr<E>) -> Result<f64, CoreError> {
        let n2 = Expr::Unary(UnaryOp::LocalNorm2, Box::new(q.raw().clone()));
        Ok(self.reduce(vec![(n2, ElemKind::Real)])?[0][0])
    }

    /// `‖field‖²` as a deferred reduction.
    pub fn norm2<E: SiteElem>(&mut self, f: &Lattice<E>) -> Result<f64, CoreError> {
        self.norm2_of(&f.q())
    }

    /// Batched `‖field‖²` over several fields: the local-norm temporaries
    /// fuse into one multi-output kernel and share one reduction pass.
    pub fn norm2_batch<E: SiteElem>(
        &mut self,
        fs: &[&Lattice<E>],
    ) -> Result<Vec<f64>, CoreError> {
        let exprs: Vec<(Expr, ElemKind)> = fs
            .iter()
            .map(|f| {
                (
                    Expr::Unary(UnaryOp::LocalNorm2, Box::new(f.q().0)),
                    ElemKind::Real,
                )
            })
            .collect();
        Ok(self
            .reduce(exprs)?
            .into_iter()
            .map(|v| v[0])
            .collect())
    }

    /// `⟨a, b⟩` as a deferred reduction.
    pub fn inner_product<E: SiteElem>(
        &mut self,
        a: &QExpr<E>,
        b: &QExpr<E>,
    ) -> Result<Complex<f64>, CoreError> {
        let ip = Expr::Binary(
            BinaryOp::LocalInnerProduct,
            Box::new(a.raw().clone()),
            Box::new(b.raw().clone()),
        );
        let s = self.reduce(vec![(ip, ElemKind::Complex)])?;
        Ok(Complex::new(s[0][0], s[0][1]))
    }

    /// `Σ_x expr(x)` for a real expression, as a deferred reduction.
    pub fn sum_real<R: Real>(
        &mut self,
        q: &QExpr<SiteReal<R>>,
    ) -> Result<f64, CoreError>
    where
        SiteReal<R>: SiteElem,
    {
        Ok(self.reduce(vec![(q.raw().clone(), ElemKind::Real)])?[0][0])
    }

    /// Plan, fuse and launch everything recorded so far (a barrier in the
    /// deferred sequence). No-op when nothing is pending.
    pub fn flush(&mut self) -> Result<(), CoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let stmts = std::mem::take(&mut self.pending);
        flush_stmts(&self.ctx, &stmts).map(drop)
    }
}

impl Drop for FusionScope {
    fn drop(&mut self) {
        // Dropping the scope is the implicit barrier; errors here have
        // nowhere to surface, so callers who care flush explicitly.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_expr::ShiftDir;
    use qdp_layout::{Geometry, LayoutKind};
    use qdp_ptx::opt::OptLevel;
    use std::collections::HashMap;
    use qdp_telemetry::Telemetry;
    use qdp_types::{ProjSign, SpinProjector};

    const U: [u64; 4] = [1, 2, 3, 4];
    const X: u64 = 10;
    const R: u64 = 11;
    const P: u64 = 12;
    const AP: u64 = 13;
    const TMP: u64 = 14;

    fn fermion(id: u64) -> FieldRef {
        FieldRef {
            id,
            kind: ElemKind::Fermion,
            ft: FloatType::F64,
        }
    }

    fn bin(op: BinaryOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    /// `(m+4)ψ − ½ Σ_µ [R(U_µ·shift(P ψ, +µ)) + R(shift(U_µ†·P ψ, −µ))]`
    /// with the projector signs of M (`Minus`) or M† (`Plus`) — the Wilson
    /// operator as the application layer records it.
    fn wilson(psi: u64, isign: ProjSign) -> Expr {
        let field = |id| Expr::Field(fermion(id));
        let link = |mu: usize| Expr::field(U[mu], ElemKind::ColorMatrix, FloatType::F64);
        let mut hop: Option<Expr> = None;
        for mu in 0..4 {
            for (dir, sign) in [
                (ShiftDir::Forward, isign),
                (ShiftDir::Backward, isign.flip()),
            ] {
                let proj = SpinProjector::new(mu, sign);
                let half = Expr::SpinProject {
                    proj,
                    child: Box::new(field(psi)),
                };
                let moved = match dir {
                    ShiftDir::Forward => bin(
                        BinaryOp::Mul,
                        link(mu),
                        Expr::Shift {
                            mu,
                            dir,
                            child: Box::new(half),
                        },
                    ),
                    ShiftDir::Backward => Expr::Shift {
                        mu,
                        dir,
                        child: Box::new(bin(
                            BinaryOp::Mul,
                            Expr::Unary(UnaryOp::Adj, Box::new(link(mu))),
                            half,
                        )),
                    },
                };
                let term = Expr::SpinReconstruct {
                    proj,
                    child: Box::new(moved),
                };
                hop = Some(match hop {
                    None => term,
                    Some(acc) => bin(BinaryOp::Add, acc, term),
                });
            }
        }
        bin(
            BinaryOp::Add,
            bin(BinaryOp::Mul, Expr::real(4.3), field(psi)),
            bin(BinaryOp::Mul, Expr::real(-0.5), hop.unwrap()),
        )
    }

    /// A context recording telemetry, and the stream its statements run on.
    fn profiled() -> (Arc<QdpContext>, StreamId) {
        let tel = Arc::new(Telemetry::new());
        tel.enable();
        let ctx = QdpContext::builder(Geometry::symmetric(4))
            .telemetry(tel)
            .build();
        let stream = ctx.device().current_stream();
        (ctx, stream)
    }

    /// The flushes of a deferred CG iteration (the `cg_model` body):
    /// `tmp = M p; ap = M† tmp; ⟨p, ap⟩ | x += αp; r −= α ap; ‖r‖² |`
    /// with `p = r + βp` pending into the next iteration's first flush.
    fn cg_flushes(stream: StreamId) -> Vec<Vec<Stmt<'static>>> {
        let stmt = |target, expr| Stmt::new(target, Cow::Owned(expr), Subset::All, stream);
        let f = |id| Expr::Field(fermion(id));
        let temp = |id, kind| FieldRef {
            id,
            kind,
            ft: FloatType::F64,
        };
        let axpy = |op, a, s: f64, b| bin(op, f(a), bin(BinaryOp::Mul, Expr::real(s), f(b)));
        let solve = vec![
            stmt(fermion(TMP), wilson(P, ProjSign::Minus)),
            stmt(fermion(AP), wilson(TMP, ProjSign::Plus)),
            stmt(
                temp(20, ElemKind::Complex),
                bin(BinaryOp::LocalInnerProduct, f(P), f(AP)),
            ),
        ];
        let update = vec![
            stmt(fermion(X), axpy(BinaryOp::Add, X, 0.1, P)),
            stmt(fermion(R), axpy(BinaryOp::Sub, R, 0.1, AP)),
            stmt(
                temp(21, ElemKind::Real),
                Expr::Unary(UnaryOp::LocalNorm2, Box::new(f(R))),
            ),
        ];
        let mut next = vec![stmt(fermion(P), axpy(BinaryOp::Add, R, 0.7, P))];
        next.extend(solve.iter().cloned());
        let last = vec![stmt(fermion(P), axpy(BinaryOp::Add, R, 0.7, P))];
        vec![solve, update, next, last]
    }

    #[test]
    fn recorded_summary_is_the_walked_one() {
        let mixed = FieldRef {
            ft: FloatType::F32,
            ..fermion(30)
        };
        let (_, stream) = profiled();
        let stmt = |target, expr| Stmt::new(target, Cow::Owned(expr), Subset::All, stream);
        let mut stmts: Vec<Stmt> = cg_flushes(stream).concat();
        stmts.push(stmt(mixed, wilson(31, ProjSign::Minus)));
        stmts.push(stmt(fermion(P), wilson(P, ProjSign::Plus)));
        for s in &stmts {
            // the short-circuiting predicates are walks of their own
            for leaf in s.sig.leaves.iter().chain([&s.target]) {
                let shifted = s.shifted().any(|id| id == leaf.id);
                assert_eq!(shifted, s.expr.reads_under_shift(leaf.id));
            }
            assert_eq!(s.ft, max_ft(s.expr.float_type(), s.target.ft));
            assert_eq!(s.sig.nested_shift, s.expr.has_nested_shift());
        }
        let hazards: Vec<u64> = stmts[0].sig.hazards().map(|r| r.id).collect();
        assert_eq!(hazards, [P, U[0], U[1], U[2], U[3]]);
        assert!(stmts.last().unwrap().self_shift());
    }

    /// `e` with every field leaf renumbered by its slot in the group table
    /// `leaves` (ids in first-visit order) and every scalar value zeroed:
    /// what a kernel key keeps of a statement.
    fn canonical(e: &Expr, leaves: &mut Vec<u64>) -> Expr {
        let mut field = |r: &FieldRef| {
            let slot = leaves.iter().position(|&id| id == r.id).unwrap_or_else(|| {
                leaves.push(r.id);
                leaves.len() - 1
            });
            FieldRef { id: slot as u64, ..*r }
        };
        match e {
            Expr::Field(r) => Expr::Field(field(r)),
            Expr::Scalar { complex, .. } => Expr::Scalar {
                re: 0.0,
                im: 0.0,
                complex: *complex,
            },
            Expr::CloverApply { diag, tri, child } => {
                let (diag, tri) = (field(diag), field(tri));
                Expr::CloverApply {
                    diag,
                    tri,
                    child: Box::new(canonical(child, leaves)),
                }
            }
            Expr::Unary(op, c) => Expr::Unary(*op, Box::new(canonical(c, leaves))),
            Expr::Binary(op, a, b) => {
                let a = Box::new(canonical(a, leaves));
                Expr::Binary(*op, a, Box::new(canonical(b, leaves)))
            }
            Expr::Shift { mu, dir, child } => Expr::Shift {
                mu: *mu,
                dir: *dir,
                child: Box::new(canonical(child, leaves)),
            },
            Expr::GammaMul { gamma, child } => Expr::GammaMul {
                gamma: *gamma,
                child: Box::new(canonical(child, leaves)),
            },
            Expr::SpinProject { proj, child } => Expr::SpinProject {
                proj: *proj,
                child: Box::new(canonical(child, leaves)),
            },
            Expr::SpinReconstruct { proj, child } => Expr::SpinReconstruct {
                proj: *proj,
                child: Box::new(canonical(child, leaves)),
            },
        }
    }

    /// A test-side rendering of a group's kernel key through the formatter:
    /// the launch environment, then per statement its canonical expression,
    /// target type, role and compute precision.
    fn reference_key(ctx: &QdpContext, group: &[Stmt], mapped: bool, split: [bool; 4]) -> String {
        let env = (ctx.geometry().vol(), ctx.layout(), mapped, split, ctx.opt_level());
        let mut leaves = Vec::new();
        let stmts: Vec<String> = group
            .iter()
            .map(|s| {
                let e = canonical(&s.expr, &mut leaves);
                let (t, role) = (s.target, if s.reduce { "reduce" } else { "assign" });
                format!("{e:?} -> {:?}:{:?} {role} at {:?}", t.kind, t.ft, s.ft)
            })
            .collect();
        format!("{env:?} [{}]", stmts.join(" ; "))
    }

    /// The kernel cache compares a group's token key and names the kernel
    /// after its hash. Over the CG body's statements alone and as flushed
    /// groups, an inner product as a reduction, a single-precision target,
    /// two groups that differ only in which earlier leaf a statement reads,
    /// every subset mapping and several split masks, on contexts that
    /// differ in optimizer level, layout or volume: equal tokens come
    /// exactly with equal reference keys, and with equal names.
    #[test]
    fn group_token_keys_are_equal_exactly_when_reference_keys_are() {
        let mut by_tokens: HashMap<Vec<u32>, (String, String)> = HashMap::new();
        let mut by_reference: HashMap<String, Vec<u32>> = HashMap::new();
        let mut by_name: HashMap<String, Vec<u32>> = HashMap::new();
        let geom = Geometry::symmetric;
        let contexts = [
            QdpContext::builder(geom(4)).build(),
            QdpContext::builder(geom(4)).opt_level(OptLevel::None).build(),
            QdpContext::builder(geom(4)).layout(LayoutKind::AoS).build(),
            QdpContext::builder(geom(2)).build(),
        ];
        for ctx in &contexts {
            let stream = ctx.device().current_stream();
            let flushes = cg_flushes(stream);
            let mut groups: Vec<Vec<Stmt>> =
                flushes.iter().flatten().map(|s| vec![s.clone()]).collect();
            groups.extend(flushes);
            let ip = bin(
                BinaryOp::LocalInnerProduct,
                Expr::Field(fermion(P)),
                Expr::Field(fermion(AP)),
            );
            let partials = FieldRef {
                id: 0,
                kind: ElemKind::Complex,
                ft: FloatType::F64,
            };
            groups.push(vec![Stmt::reduction(partials, Cow::Owned(ip), Subset::All, stream)]);
            let single = FieldRef {
                ft: FloatType::F32,
                ..fermion(30)
            };
            let dslash = Cow::Owned(wilson(P, ProjSign::Minus));
            groups.push(vec![Stmt::new(single, dslash, Subset::All, stream)]);
            // `{r = p+ap; tmp = 2*p}` and `{r = p+ap; tmp = 2*ap}`: only the
            // second statement's leaf map tells them apart.
            for read in [P, AP] {
                let sum = bin(BinaryOp::Add, Expr::Field(fermion(P)), Expr::Field(fermion(AP)));
                let twice = bin(BinaryOp::Mul, Expr::real(2.0), Expr::Field(fermion(read)));
                groups.push(vec![
                    Stmt::new(fermion(R), Cow::Owned(sum), Subset::All, stream),
                    Stmt::new(fermion(TMP), Cow::Owned(twice), Subset::All, stream),
                ]);
            }
            let masks = [[false; 4], [true, false, false, false], [false, false, false, true]];
            for group in &groups {
                for subset_mapped in [false, true] {
                    for split in masks {
                        let keyed = KeyedGroup::new(ctx, group, subset_mapped, split);
                        let reference = reference_key(ctx, group, subset_mapped, split);
                        let name = keyed.plan(ctx, group).unwrap().name;
                        let tokens = keyed.key;
                        let pair = (reference.clone(), name.clone());
                        if let Some(seen) = by_tokens.insert(tokens.clone(), pair.clone()) {
                            assert_eq!(seen, pair, "equal tokens");
                        }
                        if let Some(seen) = by_reference.insert(reference, tokens.clone()) {
                            assert_eq!(seen, tokens, "equal reference keys, different tokens");
                        }
                        if let Some(seen) = by_name.insert(name, tokens.clone()) {
                            assert_eq!(seen, tokens, "equal names, different tokens");
                        }
                    }
                }
            }
        }
        // Every context, mapping and mask is a kernel of its own; only the
        // statements repeated across the CG flushes share keys.
        assert!(by_reference.len() > 4 * 2 * 3 * 10, "{} keys", by_reference.len());
    }

    /// The planner's groups and bailouts over the CG body, pinned.
    #[test]
    fn cg_body_plans_pinned_groups() {
        let (ctx, stream) = profiled();
        let ranges: Vec<Vec<(usize, usize)>> = cg_flushes(stream)
            .iter()
            .map(|stmts| {
                let groups = plan_groups(&ctx, stmts);
                groups.iter().map(|g| (g.start, g.end)).collect()
            })
            .collect();
        assert_eq!(
            ranges,
            [
                vec![(0, 1), (1, 3)],
                vec![(0, 3)],
                vec![(0, 1), (1, 2), (2, 4)],
                vec![(0, 1)]
            ]
        );
        let report = ctx.profile_report();
        let bailouts: Vec<(&str, u64)> = report
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("fuse.bailout"))
            .map(|(name, &n)| (name.as_str(), n))
            .collect();
        assert_eq!(
            bailouts,
            [
                ("fuse.bailout.shift-of-group-target", 3),
                ("fuse.bailouts", 3)
            ]
        );
    }
}
