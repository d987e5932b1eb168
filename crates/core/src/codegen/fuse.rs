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
//! Independent reduction temporaries recorded back-to-back (e.g.
//! [`FusionScope::norm2_batch`]) fuse the same way into one multi-output
//! kernel, and their tree-reduction passes are accounted as a single
//! combined pass.
//!
//! Fusion is on by default; `QDP_FUSE=0` ([`crate::QdpConfig::fuse`] =
//! false) is a group budget of 1 on the same planner: every statement and
//! every reduction temporary launches alone — the per-expression kernels
//! and launch counts, bit-exactly — and no bailout is ever counted.

use crate::context::QdpContext;
use crate::eval::{
    eval_statements, max_ft, reduce_batch, render_statements, CoreError, KeyedGroup,
};
use crate::field::{Lattice, QExpr, SiteElem, SiteReal};
use qdp_expr::{BinaryOp, Expr, FieldRef, UnaryOp};
use qdp_gpu_sim::StreamId;
use qdp_layout::Subset;
use qdp_types::{Complex, ElemKind, FloatType, Real, TypeShape};
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

/// One recorded deferred statement: `target ← expr` over `subset` on
/// `stream`.
#[derive(Debug, Clone)]
pub(crate) struct Stmt {
    target: FieldRef,
    expr: Expr,
    subset: Subset,
    stream: StreamId,
}

fn compute_ft(s: &Stmt) -> FloatType {
    max_ft(s.expr.float_type(), s.target.ft)
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
        let hazards: Vec<u64> = s
            .expr
            .leaves_under_any_shift()
            .iter()
            .map(|r| r.id)
            .collect();
        GroupState {
            subset: s.subset,
            stream: s.stream,
            ft: compute_ft(s),
            targets: vec![s.target.id],
            self_shift: hazards.contains(&s.target.id),
            hazards,
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
        if compute_ft(s) != self.ft {
            return Err(Split::Bailout("float-type"));
        }
        let shifted = s.expr.leaves_under_any_shift();
        if self.self_shift || shifted.iter().any(|r| r.id == s.target.id) {
            return Err(Split::Bailout("self-shift"));
        }
        if shifted.iter().any(|r| self.targets.contains(&r.id)) {
            return Err(Split::Bailout("shift-of-group-target"));
        }
        if self.hazards.contains(&s.target.id) {
            return Err(Split::Bailout("target-shifted-earlier"));
        }
        if self.targets.contains(&s.target.id) {
            return Err(Split::Bailout("aliased-target"));
        }
        self.targets.push(s.target.id);
        for r in &shifted {
            if !self.hazards.contains(&r.id) {
                self.hazards.push(r.id);
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
/// statements over `subset`, under a caller-chosen kernel name — on an
/// attached context, the §V halo kernel of a full-lattice group that
/// shifts along a split dimension, as the schedule without overlap
/// launches it over the whole lattice. Pure codegen (nothing is compiled,
/// cached or launched) — the multi-statement twin of
/// [`crate::codegen_ptx`], used by the golden-snapshot tests.
pub fn codegen_fused_ptx(
    ctx: &QdpContext,
    stmts: &[(FieldRef, Expr)],
    subset: Subset,
    kernel_name: &str,
) -> Result<String, CoreError> {
    let refs: Vec<(FieldRef, &Expr)> = stmts.iter().map(|(t, e)| (*t, e)).collect();
    let split = ctx
        .attached_rank()
        .filter(|mr| subset == Subset::All && refs.iter().any(|(_, e)| mr.crosses_ranks(e)))
        .map_or([false; 4], |mr| mr.split_dims());
    let plan = KeyedGroup::new(ctx, &refs, subset != Subset::All, split).plan(ctx, &refs)?;
    let exprs: Vec<&Expr> = stmts.iter().map(|(_, e)| e).collect();
    render_statements(&plan, &exprs, kernel_name)
}

/// Plan `stmts` into groups and launch each group as one kernel, in record
/// order (groups are uniform in subset and stream by construction).
fn flush_stmts(ctx: &QdpContext, stmts: &[Stmt]) -> Result<(), CoreError> {
    let tel = ctx.telemetry();
    for g in plan_groups(ctx, stmts) {
        let group = &stmts[g];
        if group.len() >= 2 {
            tel.count("fuse.groups", 1);
            tel.count("fuse.launches_saved", (group.len() - 1) as u64);
        }
        let refs: Vec<(FieldRef, &Expr)> = group.iter().map(|s| (s.target, &s.expr)).collect();
        eval_statements(ctx, &refs, group[0].subset, group[0].stream)?;
    }
    Ok(())
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
        .map(|(target, expr)| Stmt {
            target: *target,
            expr: expr.clone(),
            subset: Subset::All,
            stream,
        })
        .collect();
    flush_stmts(ctx, &stmts)
}

/// The one reduction body: record a site-local temporary per expression
/// behind `pending` (scratch its kernel writes whole when `subset` is
/// [`Subset::All`]), flush (the temp evaluations fuse with any pending
/// producers), run one combined reduction pass per budget-sized batch,
/// free the temporaries. An immediate reduction is a scope of one: nothing
/// pending, one expression.
pub(crate) fn reduce_recorded(
    ctx: &QdpContext,
    mut pending: Vec<Stmt>,
    exprs: Vec<(Expr, ElemKind)>,
    subset: Subset,
) -> Result<Vec<Vec<f64>>, CoreError> {
    let vol = ctx.geometry().vol();
    let stream = ctx.device().current_stream();
    let mut temps: Vec<(FieldRef, usize)> = Vec::with_capacity(exprs.len());
    for (expr, kind) in exprs {
        debug_assert!(matches!(kind, ElemKind::Real | ElemKind::Complex));
        let n_comp = TypeShape::of(kind).n_reals();
        let ft = expr.float_type();
        let bytes = vol * n_comp * ft.size_bytes();
        // A full-lattice temporary is written whole by its kernel before
        // the sum reads it, so its first touch skips the zero fill; a
        // subset's sum reads the zeros at the other sites.
        let id = match subset {
            Subset::All => ctx.cache().register_scratch(bytes),
            Subset::Even | Subset::Odd => ctx.cache().register(bytes),
        };
        let target = FieldRef { id, kind, ft };
        temps.push((target, n_comp));
        pending.push(Stmt {
            target,
            expr,
            subset,
            stream,
        });
    }
    let r = (|| {
        flush_stmts(ctx, &pending)?;
        let mut sums = Vec::with_capacity(temps.len());
        for batch in temps.chunks(group_budget(ctx)) {
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
    pending: Vec<Stmt>,
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
        self.pending.push(Stmt {
            target,
            expr,
            subset,
            stream: self.ctx.device().current_stream(),
        });
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
    pub fn norm2_of<E: SiteElem>(&mut self, q: &QExpr<E>) -> Result<f64, CoreError> {
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
        flush_stmts(&self.ctx, &stmts)
    }
}

impl Drop for FusionScope {
    fn drop(&mut self) {
        // Dropping the scope is the implicit barrier; errors here have
        // nowhere to surface, so callers who care flush explicitly.
        let _ = self.flush();
    }
}
