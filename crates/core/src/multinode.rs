//! Multi-rank evaluation: halo exchange and communication/computation
//! overlap (paper §V) over an arbitrary N-rank 4D decomposition.
//!
//! On distributed-memory systems the shift operations introduce data
//! dependencies on off-node grid points. For a statement group with shifts
//! — one statement, or a fused group of K ≥ 2 — the local sub-grid is
//! partitioned into **inner sites** and **face sites**: per split face a
//! gather kernel packs one message for the whole group — a slab per leaf
//! any statement reads under that shift, laid out by `face_messages` —
//! into contiguous GPU memory, it is sent (directly for CUDA-aware MPI,
//! staged through the host otherwise) into one receive buffer that the
//! group's kernel reads in place, the kernel is launched on the inner sites
//! while the transfer is in flight, and on the face sites once the data has
//! arrived.
//! Only shifts along split dimensions decode the remote flag.
//! Nested shifts ("shifts of shifts") are materialised into temporaries
//! first — the paper executes them non-overlapping. That materialisation is
//! also why plain face exchange suffices for correctness on a grid split in
//! several dimensions: every single-hop shift only reads the neighbour's
//! face slab (which includes the slab's corner sites, owned by the direct
//! neighbour), and multi-hop displacements go through temporaries.
//!
//! The rank belongs to the context: [`MultiRank::new`] attaches itself to
//! its [`QdpContext`], and from then on the ordinary entry points —
//! `Lattice::assign`, a `FusionScope` flush, every reduction — run this
//! schedule for a statement group that shifts along a split dimension and
//! allreduce their sums. The fusion planner groups statements as it does on
//! one rank. Application code never names a rank.
//!
//! Each split face `(mu, dir)` gets its **own comm stream** feeding the
//! fork/halo_done event schedule, so one slow face does not serialise the
//! others; the compute stream waits on every face's halo_done event before
//! the face kernel runs. All comm primitives return structured errors
//! ([`CoreError::Comm`]) so an injected rank failure is recoverable.

use crate::codegen::fuse::Stmt;
use crate::context::{QdpContext, TableKey};
use crate::eval::{self, CoreError, EvalReport, RemoteEnv, SiteSel};
use qdp_comm::cluster::RankHandle;
use qdp_expr::{Expr, FieldRef, KernelSignature, ShiftDir};
use qdp_gpu_sim::StreamId;
use qdp_layout::{Decomposition, Dir, FieldLayout, Geometry, RankGrid, Subset};
use qdp_types::FloatType;
use std::sync::Arc;

pub(crate) fn to_dir(d: ShiftDir) -> Dir {
    match d {
        ShiftDir::Forward => Dir::Forward,
        ShiftDir::Backward => Dir::Backward,
    }
}

/// The halo message of one split face `(mu, dir)`: for every leaf read
/// under that shift, a slab of `face_vol × n_reals` elements, component-major
/// over the face sites, at a byte offset into one contiguous buffer. The
/// gather packs it, the receive buffer holds it and the halo kernel reads
/// it in place; [`face_messages`] is the one place its layout is decided.
#[derive(Debug, Clone, PartialEq)]
pub struct FaceMessage {
    /// Dimension of the shift.
    pub mu: usize,
    /// Direction of the shift.
    pub dir: ShiftDir,
    /// Sites per slab: the face volume orthogonal to `mu`.
    pub face_vol: usize,
    /// `(leaf, byte offset of its slab)`, widest element first, so every
    /// slab is naturally aligned without padding.
    pub slabs: Vec<(FieldRef, usize)>,
    /// Message size in bytes.
    pub bytes: usize,
}

/// The halo messages of a statement group, read off its concatenated
/// signature: one per shift of the group's shift list along a dimension
/// `split` marks, in that order. Each leaf any statement reads under the
/// shift has one slab.
pub(crate) fn face_messages(
    sig: &KernelSignature,
    split: [bool; 4],
    geom: &Geometry,
) -> Vec<FaceMessage> {
    let message = |mu: usize, dir: ShiftDir| {
        let mut leaves: Vec<FieldRef> = sig.leaves_under(mu, dir).collect();
        // stable: equal widths keep visiting order
        leaves.sort_by_key(|l| std::cmp::Reverse(l.ft.size_bytes()));
        let face_vol = geom.face_vol(mu);
        let mut bytes = 0;
        let slabs = leaves
            .into_iter()
            .map(|leaf| {
                let offset = bytes;
                bytes += face_vol * leaf.shape().n_reals() * leaf.ft.size_bytes();
                (leaf, offset)
            })
            .collect();
        FaceMessage {
            mu,
            dir,
            face_vol,
            slabs,
            bytes,
        }
    };
    sig.shifts
        .iter()
        .filter(|&&(mu, _)| split[mu])
        .map(|&(mu, dir)| message(mu, dir))
        .collect()
}

/// One rank of a multi-rank QDP-JIT run: the rank grid, comm handle and
/// halo streams attached to a rank-local context.
pub struct MultiRank {
    ctx: Arc<QdpContext>,
    grid: RankGrid,
    /// Communication handle (public only because the frozen
    /// `crates/benchmark` barriers through it).
    pub handle: RankHandle,
    /// CUDA-aware MPI: transfers go GPU↔GPU without host staging (§V).
    cuda_aware: bool,
    /// Overlap communication with inner-site computation (§V) on the
    /// stream schedule: gathers + exchange on the per-face comm streams,
    /// inner kernel on `compute_stream`, event-wait before the face
    /// kernel. When false, the whole lattice is evaluated on the default
    /// stream after the exchange completes.
    overlap: bool,
    /// Stream carrying the inner-site and face compute kernels.
    compute_stream: StreamId,
    /// Per-face comm streams: `face_streams[mu][dir]` carries the gather
    /// kernel, send and receive for halo face `(mu, dir)`.
    face_streams: [[StreamId; 2]; 4],
}

impl MultiRank {
    /// Make `ctx` (a context over `decomp.local_geometry()`) rank
    /// `handle.rank` of the grid: the returned rank is attached to the
    /// context until it is dropped, and the handle records comm traffic
    /// into the context's telemetry registry. The five-argument shape is
    /// what the frozen `crates/benchmark` calls.
    #[must_use = "the rank detaches from its context when dropped"]
    pub fn new(
        ctx: Arc<QdpContext>,
        decomp: Decomposition,
        mut handle: RankHandle,
        cuda_aware: bool,
        overlap: bool,
    ) -> Arc<MultiRank> {
        assert_eq!(
            handle.n_ranks,
            decomp.n_ranks(),
            "cluster size does not match the rank grid"
        );
        handle.set_telemetry(Arc::clone(ctx.telemetry()));
        let compute_stream = ctx.device().create_stream("compute");
        let face_streams = std::array::from_fn(|mu| {
            let axis = ["x", "y", "z", "t"][mu];
            [
                ctx.device().create_stream(&format!("comm-{axis}+")),
                ctx.device().create_stream(&format!("comm-{axis}-")),
            ]
        });
        let mr = Arc::new(MultiRank {
            grid: RankGrid::new(decomp, handle.rank),
            ctx,
            handle,
            cuda_aware,
            overlap,
            compute_stream,
            face_streams,
        });
        mr.ctx.attach_rank(&mr);
        mr
    }

    /// Global decomposition backing the rank grid.
    pub fn decomp(&self) -> &Decomposition {
        self.grid.decomp()
    }

    /// Which dimensions the rank grid splits.
    pub(crate) fn split_dims(&self) -> [bool; 4] {
        self.grid.split_dims()
    }

    /// Does a statement with signature `sig` shift along a dimension split
    /// across ranks — i.e. does evaluating it need the halo schedule?
    pub(crate) fn crosses_ranks(&self, sig: &KernelSignature) -> bool {
        sig.shifts.iter().any(|&(mu, _)| self.decomp().is_split(mu))
    }

    /// Materialise nested shifts into temporaries: the rewritten
    /// expression, and whether it contains a shift. The temporaries' field
    /// ids are pushed onto `temps`, to be freed afterwards.
    fn materialize_nested(
        &self,
        e: &Expr,
        temps: &mut Vec<u64>,
    ) -> Result<(Expr, bool), CoreError> {
        let mut under = |c: &Expr| self.materialize_nested(c, temps);
        Ok(match e {
            Expr::Shift { mu, dir, child } => {
                let (c, shifted) = under(child)?;
                let c = if shifted {
                    // evaluate the shifted subexpression into a temporary
                    let t = Stmt::temporary(&self.ctx, c, StreamId::DEFAULT)?;
                    temps.push(t.target.id);
                    eval::eval_statements(&self.ctx, std::slice::from_ref(&t))?;
                    Expr::Field(t.target)
                } else {
                    c
                };
                let shift = Expr::Shift {
                    mu: *mu,
                    dir: *dir,
                    child: Box::new(c),
                };
                (shift, true)
            }
            Expr::Unary(op, c) => {
                let (c, shifted) = under(c)?;
                (Expr::Unary(*op, Box::new(c)), shifted)
            }
            Expr::Binary(op, a, b) => {
                let (a, sa) = under(a)?;
                let (b, sb) = under(b)?;
                (Expr::Binary(*op, Box::new(a), Box::new(b)), sa || sb)
            }
            Expr::GammaMul { gamma, child } => {
                let (c, shifted) = under(child)?;
                let gamma = *gamma;
                (Expr::GammaMul { gamma, child: Box::new(c) }, shifted)
            }
            Expr::SpinProject { proj, child } => {
                let (c, shifted) = under(child)?;
                let proj = *proj;
                (Expr::SpinProject { proj, child: Box::new(c) }, shifted)
            }
            Expr::SpinReconstruct { proj, child } => {
                let (c, shifted) = under(child)?;
                let proj = *proj;
                (Expr::SpinReconstruct { proj, child: Box::new(c) }, shifted)
            }
            Expr::CloverApply { diag, tri, child } => {
                let (c, shifted) = under(child)?;
                let (diag, tri) = (*diag, *tri);
                (Expr::CloverApply { diag, tri, child: Box::new(c) }, shifted)
            }
            Expr::Field(_) | Expr::Scalar { .. } => (e.clone(), false),
        })
    }

    /// `target ← expr` on this rank's context: exactly
    /// [`eval::eval`] over [`Subset::All`] (which reaches the halo schedule
    /// by itself). Kept only because the frozen `crates/benchmark`
    /// calls it — applications assign through `Lattice::assign`.
    pub fn eval(&self, target: FieldRef, expr: &Expr) -> Result<EvalReport, CoreError> {
        eval::eval(&self.ctx, target, expr, Subset::All)
    }

    /// The §V schedule for a full-lattice statement group — any group the
    /// fusion planner forms — that shifts along a split dimension: halo
    /// exchange, overlapping communication with inner-site computation when
    /// enabled. Reached from `eval::eval_statements`; SPMD — every rank must
    /// issue the structurally identical group. Nested shifts are
    /// materialised into temporaries first and the rewritten group goes
    /// back through `eval_statements`, which finds out whether it still
    /// needs the halo schedule. The group's reductions come last: each
    /// launch of the schedule writes its own consecutive range of their
    /// partials.
    pub(crate) fn eval_halo(&self, stmts: &[Stmt]) -> Result<EvalReport, CoreError> {
        if !stmts.iter().any(|s| s.sig.nested_shift) {
            return self.eval_flat(stmts);
        }
        let mut temps = Vec::new();
        let result = stmts
            .iter()
            .map(|s| Ok(s.with_expr(self.materialize_nested(&s.expr, &mut temps)?.0)))
            .collect::<Result<Vec<Stmt>, CoreError>>()
            .and_then(|flat| eval::eval_statements(&self.ctx, &flat));
        for id in temps {
            self.ctx.cache().unregister(id);
        }
        result
    }

    /// The schedule proper, for a group without nested shifts: gather and
    /// send one message per split face, then run the site plan around the
    /// receives. The group's tables are its statements' signatures
    /// concatenated.
    fn eval_flat(&self, stmts: &[Stmt]) -> Result<EvalReport, CoreError> {
        let geom = self.ctx.geometry().clone();
        let mut sig = KernelSignature::default();
        for s in stmts {
            sig.append(&s.sig);
        }
        let messages = face_messages(&sig, self.split_dims(), &geom);
        debug_assert!(
            !messages.is_empty() && !sig.nested_shift,
            "a flat halo group shifts along a split dimension and has no nested shift"
        );

        let t_start = self.ctx.device().now();
        let vol = geom.vol();
        let leaves = &sig.leaves;
        let device = self.ctx.device();
        // With overlap each face's gather, exchange and wait run on its own
        // comm stream and the kernels on the compute stream; without, all
        // of it runs on the default stream.
        let (stream, xfer_stream) = if self.overlap {
            (self.compute_stream, self.face_streams)
        } else {
            (StreamId::DEFAULT, [[StreamId::DEFAULT; 2]; 4])
        };
        let xfer_stream = |m: &FaceMessage| xfer_stream[m.mu][to_dir(m.dir).index()];

        // Make all leaves resident (the gather kernels read device data).
        // Under the stream schedule the targets are paged in here too, so the
        // synchronising default-stream §IV transfers are setup cost and the
        // fork event below covers the whole working set.
        let mut ids: Vec<u64> = leaves.iter().map(|l| l.id).collect();
        if self.overlap {
            ids.extend(stmts.iter().map(|s| s.target.id));
        }
        let ptrs = self.ctx.cache().assure_on_device(&ids)?;
        let leaf_ptr = |leaf: &FieldRef| {
            let i = leaves.iter().position(|l| l.id == leaf.id);
            ptrs[i.expect("a slab's leaf is one of the group's leaves")]
        };

        // Fork: gathers + exchange go on the per-face comm streams, kernels
        // on the compute stream; none may start before the working set is
        // ready on the (synchronising) default stream.
        if self.overlap {
            let ready = device.record_event(StreamId::DEFAULT);
            for m in &messages {
                device.stream_wait_event(xfer_stream(m), ready);
            }
            device.stream_wait_event(self.compute_stream, ready);
        }

        // --- gather + send one message per split (mu, dir) ---
        // For a Forward shift I need my forward neighbour's low slab, so I
        // send my own low slab backward; symmetrically for Backward.
        for m in &messages {
            let xfer_stream = xfer_stream(m);
            let send_dir = to_dir(m.dir).flip();
            let send_to = self.grid.face_neighbor(m.mu, send_dir);
            let face = geom.face_sites(m.mu, send_dir);

            // Pack each slab at its offset, component-major over the face
            // sites. In timing-only mode the payload is a placeholder of the
            // right size (the clocks still see the full traffic).
            let mut payload = Vec::with_capacity(m.bytes);
            if self.ctx.payload_execution() {
                let mem = device.memory();
                for &(leaf, offset) in &m.slabs {
                    debug_assert_eq!(payload.len(), offset);
                    let n_comp = leaf.shape().n_reals();
                    let layout = FieldLayout::new(self.ctx.layout(), vol, n_comp);
                    let base = leaf_ptr(&leaf);
                    for comp in 0..n_comp {
                        for &site in &face {
                            let src = base
                                + (layout.real_index(site as usize, comp) * leaf.ft.size_bytes())
                                    as u64;
                            match leaf.ft {
                                FloatType::F32 => payload
                                    .extend_from_slice(&mem.read_f32(src).to_le_bytes()),
                                FloatType::F64 => payload
                                    .extend_from_slice(&mem.read_f64(src).to_le_bytes()),
                            }
                        }
                    }
                }
            } else {
                payload.resize(m.bytes, 0u8);
            }

            // Account the gather kernel: one streaming pass over the face at
            // the message's element width, that of its first (widest) slab.
            let width = m.slabs.first().map_or(4, |(leaf, _)| leaf.ft.size_bytes());
            let iv_r = m.face_vol.max(1);
            let gather_shape = qdp_gpu_sim::KernelShape {
                threads: iv_r,
                read_bytes_per_thread: m.bytes / iv_r,
                write_bytes_per_thread: m.bytes / iv_r,
                flops_per_thread: 0,
                regs_per_thread: 24,
                access_bytes: width,
                site_stride: 1,
                double_precision: width == 8,
            };
            device
                .account_launch_on(&gather_shape, 128, xfer_stream)
                .map_err(CoreError::Launch)?;

            // Staged transfer: device → host before MPI (paper §V).
            if !self.cuda_aware {
                device.advance_stream(xfer_stream, device.transfer_time(payload.len()));
            }
            let now = device.stream_now(xfer_stream);
            let t_after = self.handle.send(send_to, payload, now)?;
            device.advance_stream_to(xfer_stream, t_after);
        }

        // The receive buffers: one allocation per message, which the halo
        // kernel reads in place.
        let mut remote = RemoteEnv::new();
        for m in &messages {
            let what = format_args!("halo receive buffer ({},{:?})", m.mu, m.dir);
            let p = self.ctx.alloc_or_oom(what, m.bytes).inspect_err(|_| {
                // free what we grabbed so an OOM mid-setup leaks nothing
                remote.values().for_each(|&p| device.free(p));
            })?;
            remote.insert((m.mu, m.dir), p);
        }

        // Everything past this point must free the receive buffers on both
        // the success and the error path (a comm failure mid-exchange must
        // not leak device memory), hence the immediately-run closure.
        let result = (|| -> Result<EvalReport, CoreError> {
            let faces: Vec<(usize, Dir)> =
                messages.iter().map(|m| (m.mu, to_dir(m.dir))).collect();
            // launch the group over a pinned site table, or over the whole
            // lattice, its partials from slot `base` on
            let launch = |sites: Option<TableKey>, base: usize| -> Result<EvalReport, CoreError> {
                let sel = match sites {
                    Some(key) => {
                        let (ptr, len) = self.ctx.pinned_table(key, stream)?;
                        SiteSel::List { ptr, len }
                    }
                    None => SiteSel::Subset(Subset::All),
                };
                let ctx = &self.ctx;
                eval::launch_statements(ctx, stmts, sel, stream, Some(&remote), base)
            };

            // The site plan. With overlap, the inner sites run on the compute
            // stream while every face's exchange is in flight on its own comm
            // stream, and per-face halo_done events order the face sites
            // after every arrival; `sync` joins the timelines, so the window
            // costs max(compute, slowest face), not their sum. Without,
            // nothing runs before the receives and the whole lattice runs on
            // the default stream after them.
            let tel = self.ctx.telemetry();
            let window = || tel.span("comm", "overlap_window").with_sim(t_start);
            let overlap_span = self.overlap.then(window);
            let inner = self
                .overlap
                .then(|| launch(Some(TableKey::Inner(faces.clone())), 0));
            let inner = inner.transpose()?;
            // Host-side receives stay in deterministic split order (the
            // per-(from,to) channels are FIFO, so this keeps message matching
            // well-defined even when forward and backward neighbour are the
            // same rank), but each face's wait is clocked on its own stream.
            let mut t_comm_end = t_start;
            for m in &messages {
                let st = xfer_stream(m);
                let from = self.grid.face_neighbor(m.mu, to_dir(m.dir));
                let (data, arrival) = self.handle.recv(from, device.stream_now(st))?;
                device.advance_stream_to(st, arrival);
                if !self.cuda_aware {
                    device.advance_stream(st, device.transfer_time(data.len()));
                }
                if self.ctx.payload_execution() {
                    device.memory().copy_from_host(remote[&(m.mu, m.dir)], &data);
                }
                if self.overlap {
                    let halo_done = device.record_event(st);
                    device.stream_wait_event(stream, halo_done);
                    t_comm_end = t_comm_end.max(device.stream_now(st));
                }
            }
            if let Some(span) = overlap_span {
                span.end_with_sim(t_comm_end);
            }
            let first = inner.as_ref().map_or(0, |r| r.partials);
            let outer = launch(self.overlap.then_some(TableKey::Face(faces)), first)?;
            let Some(inner) = inner else {
                return Ok(EvalReport {
                    sim_time: device.now() - t_start,
                    ..outer
                });
            };
            device.sync();
            // rates describe both launches, weighted like `threads`; the
            // kernel name and block size come from a launch that ran threads
            // (an empty inner-site list launches nothing)
            let (len_i, len_f) = (inner.threads, outer.threads);
            let weighted = |inner: f64, face: f64| {
                (inner * len_i as f64 + face * len_f as f64) / (len_i + len_f) as f64
            };
            let ran = if len_i > 0 { &inner } else { &outer };
            Ok(EvalReport {
                sim_time: device.now() - t_start,
                threads: len_i + len_f,
                bandwidth: weighted(inner.bandwidth, outer.bandwidth),
                flops_rate: weighted(inner.flops_rate, outer.flops_rate),
                partials: inner.partials + outer.partials,
                ..ran.clone()
            })
        })();

        for &p in remote.values() {
            device.free(p);
        }
        result
    }

    /// All-reduce a raw vector of partial sums across the rank grid,
    /// advancing the local device clock (the synchronising default stream)
    /// to the reduction's completion.
    pub fn allreduce(&self, values: &[f64]) -> Result<Vec<f64>, CoreError> {
        let device = self.ctx.device();
        let (sum, t) = self
            .handle
            .allreduce_sum(values, device.stream_now(StreamId::DEFAULT))?;
        device.advance_stream_to(StreamId::DEFAULT, t);
        Ok(sum)
    }
}

impl Drop for MultiRank {
    fn drop(&mut self) {
        self.ctx.detach_rank(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{shift, LatticeColorMatrix, LatticeFermion};
    use qdp_gpu_sim::DeviceConfig;
    use qdp_layout::LayoutKind;

    #[test]
    fn overlap_report_rates_describe_both_launches() {
        // The overlapped evaluation is an inner and a face launch of one
        // kernel; its reported bandwidth and flop rate must both lie between
        // the inner-only and face-only values (thread-weighted mean), not
        // pair one launch's bandwidth with the other's flop rate.
        let global = [8usize, 4, 4, 4];
        qdp_comm::run_cluster(2, qdp_comm::LinkModel::infiniband_qdr(), move |handle| {
            let decomp = Decomposition::new(global, [2, 1, 1, 1]);
            let ctx = QdpContext::new(
                DeviceConfig::k20m_ecc_on(),
                decomp.local_geometry(),
                LayoutKind::SoA,
            );
            ctx.set_payload_execution(false);
            let _rank = MultiRank::new(Arc::clone(&ctx), decomp, handle, true, true);
            let u = LatticeColorMatrix::<f64>::new(&ctx);
            let psi = LatticeFermion::<f64>::new(&ctx);
            let out = LatticeFermion::<f64>::new(&ctx);
            let e = u.q() * shift(psi.q(), 0, ShiftDir::Forward);
            // settle the auto-tuner so every launch below uses one block size
            for _ in 0..12 {
                out.assign(e.clone()).unwrap();
            }
            let both = out.assign(e.clone()).unwrap();

            // the same kernel over the inner and the face sites alone
            let geom = ctx.geometry().clone();
            let faces = vec![(0usize, Dir::Forward)];
            let halo = ctx
                .device()
                .alloc(geom.face_vol(0) * 24 * 8)
                .unwrap();
            let remote: RemoteEnv = [((0, ShiftDir::Forward), halo)].into_iter().collect();
            let alone = |key: TableKey| {
                let (ptr, len) = ctx.pinned_table(key, StreamId::DEFAULT).unwrap();
                let stmt = Stmt::new(
                    out.fref(),
                    std::borrow::Cow::Borrowed(e.raw()),
                    Subset::All,
                    StreamId::DEFAULT,
                );
                eval::launch_statements(
                    &ctx,
                    &[stmt],
                    SiteSel::List { ptr, len },
                    StreamId::DEFAULT,
                    Some(&remote),
                    0,
                )
                .unwrap()
            };
            let inner = alone(TableKey::Inner(faces.clone()));
            let face = alone(TableKey::Face(faces));
            ctx.device().free(halo);

            assert_eq!(both.threads, inner.threads + face.threads);
            assert_eq!(both.kernel_name, inner.kernel_name);
            // strictly between the two launches' values, at the same
            // (thread-weighted) point for both rates
            let check = |what: &str, got: f64, inner_v: f64, face_v: f64| {
                assert!(
                    got > inner_v.min(face_v) && got < inner_v.max(face_v),
                    "{what} {got} not between inner {inner_v} and face {face_v}"
                );
                let mean = (inner_v * inner.threads as f64 + face_v * face.threads as f64)
                    / both.threads as f64;
                assert!(
                    (got - mean).abs() <= 1e-12 * mean,
                    "{what} {got} is not the thread-weighted mean {mean}"
                );
            };
            check("bandwidth", both.bandwidth, inner.bandwidth, face.bandwidth);
            check("flop rate", both.flops_rate, inner.flops_rate, face.flops_rate);
        });
    }
}
