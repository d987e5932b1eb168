//! Multi-rank evaluation: halo exchange and communication/computation
//! overlap (paper §V) over an arbitrary N-rank 4D decomposition.
//!
//! On distributed-memory systems the shift operations introduce data
//! dependencies on off-node grid points. For an expression with shifts the
//! local sub-grid is partitioned into **inner sites** and **face sites**:
//! gather kernels pack the face data into contiguous GPU memory, it is sent
//! (directly for CUDA-aware MPI, staged through the host otherwise), the
//! compute kernel is launched on the inner sites while the transfer is in
//! flight, and the face sites are evaluated once the data has arrived.
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
//! schedule for a statement that shifts along a split dimension and
//! allreduce their sums. Application code never names a rank.
//!
//! Each split face `(mu, dir)` gets its **own comm stream** feeding the
//! fork/halo_done event schedule, so one slow face does not serialise the
//! others; the compute stream waits on every face's halo_done event before
//! the face kernel runs. All comm primitives return structured errors
//! ([`CoreError::Comm`]) so an injected rank failure is recoverable.

use crate::context::QdpContext;
use crate::eval::{self, CoreError, EvalParams, EvalReport, RemoteEnv};
use qdp_comm::cluster::RankHandle;
use qdp_expr::{Expr, FieldRef, ShiftDir};
use qdp_gpu_sim::sync::Mutex;
use qdp_gpu_sim::{DevicePtr, StreamId};
use qdp_layout::{Decomposition, Dir, FieldLayout, RankGrid};
use qdp_types::TypeShape;
use std::collections::HashMap;
use std::sync::Arc;

fn to_dir(d: ShiftDir) -> Dir {
    match d {
        ShiftDir::Forward => Dir::Forward,
        ShiftDir::Backward => Dir::Backward,
    }
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
    site_lists: Mutex<HashMap<String, (DevicePtr, usize)>>,
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
            site_lists: Mutex::new(HashMap::new()),
        });
        mr.ctx.attach_rank(&mr);
        mr
    }

    /// Global decomposition backing the rank grid.
    pub fn decomp(&self) -> &Decomposition {
        self.grid.decomp()
    }

    /// Does `expr` shift along a dimension split across ranks — i.e. does
    /// evaluating it need the halo schedule?
    pub(crate) fn crosses_ranks(&self, expr: &Expr) -> bool {
        expr.shifts()
            .iter()
            .any(|&(mu, _)| self.decomp().is_split(mu))
    }

    /// The comm stream dedicated to halo face `(mu, dir)`.
    fn face_stream(&self, mu: usize, dir: ShiftDir) -> StreamId {
        self.face_streams[mu][match dir {
            ShiftDir::Forward => 0,
            ShiftDir::Backward => 1,
        }]
    }

    /// Upload (and cache) a site-list table; the upload is ordered on
    /// `stream` (first call per key only — the table is pinned after that,
    /// until the `MultiRank` is dropped).
    fn site_list(
        &self,
        key: &str,
        sites: &[u32],
        stream: StreamId,
    ) -> Result<(DevicePtr, usize), CoreError> {
        let mut map = self.site_lists.lock();
        if let Some(v) = map.get(key) {
            return Ok(*v);
        }
        let bytes: Vec<u8> = sites.iter().flat_map(|s| s.to_le_bytes()).collect();
        let requested = bytes.len().max(4);
        let ptr = self.ctx.device().alloc(requested).map_err(|_| {
            let mem = self.ctx.device().memory();
            CoreError::DeviceOom {
                what: format!("site list {key}"),
                requested,
                used: mem.used(),
                free: mem.free(),
            }
        })?;
        self.ctx.device().h2d_async(ptr, &bytes, stream);
        map.insert(key.to_string(), (ptr, sites.len()));
        Ok((ptr, sites.len()))
    }

    /// Materialise nested shifts into temporaries (returns rewritten
    /// expression and the temp field ids to free afterwards).
    fn materialize_nested(
        &self,
        e: &Expr,
        temps: &mut Vec<u64>,
    ) -> Result<Expr, CoreError> {
        Ok(match e {
            Expr::Shift { mu, dir, child } => {
                let c = self.materialize_nested(child, temps)?;
                let c = if !c.shifts().is_empty() {
                    // evaluate the shifted subexpression into a temporary
                    let kind = c.kind()?;
                    let ft = c.float_type();
                    let shape = TypeShape::of(kind);
                    let bytes =
                        self.ctx.geometry().vol() * shape.n_reals() * ft.size_bytes();
                    let id = self.ctx.cache().register(bytes);
                    temps.push(id);
                    let tref = FieldRef { id, kind, ft };
                    self.eval_halo(tref, &c)?;
                    Expr::Field(tref)
                } else {
                    c
                };
                Expr::Shift {
                    mu: *mu,
                    dir: *dir,
                    child: Box::new(c),
                }
            }
            Expr::Unary(op, c) => {
                Expr::Unary(*op, Box::new(self.materialize_nested(c, temps)?))
            }
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(self.materialize_nested(a, temps)?),
                Box::new(self.materialize_nested(b, temps)?),
            ),
            Expr::GammaMul { gamma, child } => Expr::GammaMul {
                gamma: *gamma,
                child: Box::new(self.materialize_nested(child, temps)?),
            },
            Expr::CloverApply { diag, tri, child } => Expr::CloverApply {
                diag: *diag,
                tri: *tri,
                child: Box::new(self.materialize_nested(child, temps)?),
            },
            other => other.clone(),
        })
    }

    /// `target ← expr` on this rank's context: exactly
    /// [`eval::eval`] with default parameters (which reaches the halo
    /// schedule by itself). Kept only because the frozen `crates/benchmark`
    /// calls it — applications assign through `Lattice::assign`.
    pub fn eval(&self, target: FieldRef, expr: &Expr) -> Result<EvalReport, CoreError> {
        eval::eval(&self.ctx, target, expr, &EvalParams::new())
    }

    /// The §V schedule for one full-lattice statement that shifts along a
    /// split dimension: halo exchange, overlapping communication with
    /// inner-site computation when enabled. Reached from
    /// `eval::eval_statements`; SPMD — every rank must issue the
    /// structurally identical statement.
    pub(crate) fn eval_halo(
        &self,
        target: FieldRef,
        expr: &Expr,
    ) -> Result<EvalReport, CoreError> {
        let mut temps = Vec::new();
        let expr = self.materialize_nested(expr, &mut temps)?;
        let result = self.eval_flat(target, &expr);
        for id in temps {
            self.ctx.cache().unregister(id);
        }
        result
    }

    fn eval_flat(&self, target: FieldRef, expr: &Expr) -> Result<EvalReport, CoreError> {
        let shifts = expr.shifts();
        let split: Vec<(usize, ShiftDir)> = shifts
            .iter()
            .copied()
            .filter(|&(mu, _)| self.grid.decomp().is_split(mu))
            .collect();
        if split.is_empty() {
            return eval::eval(&self.ctx, target, expr, &EvalParams::new());
        }

        let t_start = self.ctx.device().now();
        let geom = self.ctx.geometry().clone();
        let vol = geom.vol();
        let leaves = expr.leaves();
        let device = self.ctx.device();

        // Make all leaves resident (the gather kernels read device data).
        // Under the stream schedule the target is paged in here too, so the
        // synchronising default-stream §IV transfers are setup cost and the
        // fork event below covers the whole working set.
        let mut ids: Vec<u64> = leaves.iter().map(|l| l.id).collect();
        if self.overlap {
            ids.push(target.id);
        }
        let ptrs = self.ctx.cache().assure_on_device(&ids)?;
        let leaf_ptrs = &ptrs[..leaves.len()];

        // Fork: gathers + exchange go on the per-face comm streams, kernels
        // on the compute stream; none may start before the working set is
        // ready on the (synchronising) default stream.
        if self.overlap {
            let ready = device.record_event(StreamId::DEFAULT);
            for &(mu, dir) in &split {
                device.stream_wait_event(self.face_stream(mu, dir), ready);
            }
            device.stream_wait_event(self.compute_stream, ready);
        }

        let mut split_dims = [false; 4];
        for &(mu, _) in &split {
            split_dims[mu] = true;
        }

        // --- gather + send per split (mu, dir) ---
        // For a Forward shift I need my forward neighbour's low slab, so I
        // send my own low slab backward; symmetrically for Backward.
        let mut pending: Vec<((usize, ShiftDir), usize, usize)> = Vec::new(); // (key, recv_from, bytes)
        for &(mu, dir) in &split {
            let xfer_stream = if self.overlap {
                self.face_stream(mu, dir)
            } else {
                StreamId::DEFAULT
            };
            let (send_face_dir, send_to, recv_from) = match dir {
                ShiftDir::Forward => (
                    Dir::Backward,
                    self.grid.face_neighbor(mu, Dir::Backward),
                    self.grid.face_neighbor(mu, Dir::Forward),
                ),
                ShiftDir::Backward => (
                    Dir::Forward,
                    self.grid.face_neighbor(mu, Dir::Forward),
                    self.grid.face_neighbor(mu, Dir::Backward),
                ),
            };
            let face = geom.face_sites(mu, send_face_dir);
            let iv_r = face.len();

            // Only the leaves referenced under this shift need their slabs
            // moved (e.g. the dslash's forward term ships one spinor, not
            // the whole gauge field).
            let used = expr.leaves_under_shift(mu, dir);

            // Gather each used leaf's slab into one contiguous message,
            // laid out like the receive buffer: [leaf][comp*IVr + slot].
            // In timing-only mode the payload is a placeholder of the right
            // size (the clocks still see the full traffic).
            let functional = self.ctx.payload_execution();
            let mut payload = Vec::new();
            let mut gather_bytes = 0usize;
            for (li, leaf) in leaves.iter().enumerate() {
                if !used.iter().any(|r| r.id == leaf.id) {
                    continue;
                }
                let shape = leaf.shape();
                let n_comp = shape.n_reals();
                let esize = leaf.ft.size_bytes();
                let layout = FieldLayout::new(self.ctx.layout(), vol, n_comp);
                let base = leaf_ptrs[li];
                let mem = device.memory();
                if functional {
                    for comp in 0..n_comp {
                        for &site in face.iter() {
                            let src =
                                base + (layout.real_index(site as usize, comp) * esize) as u64;
                            let mut buf = [0u8; 8];
                            match esize {
                                4 => buf[..4]
                                    .copy_from_slice(&mem.read_f32(src).to_le_bytes()),
                                _ => buf[..8]
                                    .copy_from_slice(&mem.read_f64(src).to_le_bytes()),
                            }
                            payload.extend_from_slice(&buf[..esize]);
                        }
                    }
                } else {
                    payload.resize(payload.len() + iv_r * n_comp * esize, 0u8);
                }
                gather_bytes += iv_r * n_comp * esize;
            }

            // Account the gather kernel (one streaming pass over the face).
            let gather_shape = qdp_gpu_sim::KernelShape {
                threads: iv_r.max(1),
                read_bytes_per_thread: gather_bytes / iv_r.max(1),
                write_bytes_per_thread: gather_bytes / iv_r.max(1),
                flops_per_thread: 0,
                regs_per_thread: 24,
                access_bytes: 4,
                site_stride: 1,
                double_precision: false,
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
            pending.push(((mu, dir), recv_from, gather_bytes));
        }

        // Build the remote environment: receive buffers per (mu,dir,leaf).
        let mut recv_bufs: HashMap<(usize, ShiftDir), Vec<DevicePtr>> = HashMap::new();
        let mut allocations: Vec<DevicePtr> = Vec::new();
        for &(mu, dir) in &split {
            let iv_r = geom.face_vol(mu);
            let used = expr.leaves_under_shift(mu, dir);
            let mut bufs = Vec::with_capacity(leaves.len());
            for leaf in &leaves {
                if !used.iter().any(|r| r.id == leaf.id) {
                    bufs.push(0); // never dereferenced: leaf not read under this shift
                    continue;
                }
                let bytes = iv_r * leaf.shape().n_reals() * leaf.ft.size_bytes();
                let p = match device.alloc(bytes) {
                    Ok(p) => p,
                    Err(_) => {
                        // free what we grabbed so an OOM mid-setup leaks nothing
                        for q in allocations.drain(..) {
                            device.free(q);
                        }
                        let mem = device.memory();
                        return Err(CoreError::DeviceOom {
                            what: format!("halo receive buffer ({mu},{dir:?})"),
                            requested: bytes,
                            used: mem.used(),
                            free: mem.free(),
                        });
                    }
                };
                allocations.push(p);
                bufs.push(p);
            }
            recv_bufs.insert((mu, dir), bufs);
        }
        let remote = RemoteEnv {
            split_dims,
            recv: recv_bufs.clone(),
        };

        // Everything past this point must free the receive buffers on both
        // the success and the error path (a comm failure mid-exchange must
        // not leak device memory), hence the immediately-run closure.
        let result = (|| -> Result<EvalReport, CoreError> {
            let faces_for_inner: Vec<(usize, Dir)> =
                split.iter().map(|&(mu, d)| (mu, to_dir(d))).collect();

            // scatter one face's arrived payload into its receive buffers
            let scatter = |mu: usize, dir: ShiftDir, data: &[u8]| {
                let bufs = &recv_bufs[&(mu, dir)];
                let mut off = 0usize;
                for (li, leaf) in leaves.iter().enumerate() {
                    if bufs[li] == 0 {
                        continue; // leaf not communicated for this shift
                    }
                    let n = geom.face_vol(mu) * leaf.shape().n_reals() * leaf.ft.size_bytes();
                    device.memory().copy_from_host(bufs[li], &data[off..off + n]);
                    off += n;
                }
            };

            // receive one face's halo, clocked on stream `st`
            let receive_face = |st: StreamId,
                                mu: usize,
                                dir: ShiftDir,
                                recv_from: usize|
             -> Result<(), CoreError> {
                let now = device.stream_now(st);
                let (data, arrival) = self.handle.recv(recv_from, now)?;
                device.advance_stream_to(st, arrival);
                if !self.cuda_aware {
                    device.advance_stream(st, device.transfer_time(data.len()));
                }
                if self.ctx.payload_execution() {
                    scatter(mu, dir, &data);
                }
                Ok(())
            };

            if self.overlap {
                // The §V overlap window on real streams: the inner kernel
                // runs on the compute stream while each face's exchange is
                // in flight on its own comm stream; per-face halo_done
                // events order the face kernel after every arrival. `sync`
                // joins the timelines — the window costs max(compute,
                // slowest face), not their sum.
                let overlap_span = self
                    .ctx
                    .telemetry()
                    .span("comm", "overlap_window")
                    .with_sim(t_start);
                let key_inner = format!("inner{:?}", faces_for_inner);
                let inner_sites = geom.inner_sites(&faces_for_inner);
                let (ptr_i, len_i) =
                    self.site_list(&key_inner, &inner_sites, self.compute_stream)?;
                let inner_report = eval::eval(
                    &self.ctx,
                    target,
                    expr,
                    &EvalParams::new()
                        .device_sites(ptr_i, len_i)
                        .remote(&remote)
                        .stream(self.compute_stream),
                )?;
                // Host-side receives stay in deterministic split order (the
                // per-(from,to) channels are FIFO, so this keeps message
                // matching well-defined even when forward and backward
                // neighbour are the same rank), but each face's wait is
                // clocked on its own stream.
                let mut t_comm_end = t_start;
                for &((mu, dir), recv_from, _bytes) in &pending {
                    let st = self.face_stream(mu, dir);
                    receive_face(st, mu, dir, recv_from)?;
                    let halo_done = device.record_event(st);
                    device.stream_wait_event(self.compute_stream, halo_done);
                    t_comm_end = t_comm_end.max(device.stream_now(st));
                }
                overlap_span.end_with_sim(t_comm_end);
                // face kernel after every halo has arrived
                let key_face = format!("face{:?}", faces_for_inner);
                let face_sites = geom.face_union(&faces_for_inner);
                let (ptr_f, len_f) =
                    self.site_list(&key_face, &face_sites, self.compute_stream)?;
                let face_report = eval::eval(
                    &self.ctx,
                    target,
                    expr,
                    &EvalParams::new()
                        .device_sites(ptr_f, len_f)
                        .remote(&remote)
                        .stream(self.compute_stream),
                )?;
                device.sync();
                // rates describe both launches, weighted like `threads`
                let weighted = |inner: f64, face: f64| {
                    (inner * len_i as f64 + face * len_f as f64) / (len_i + len_f) as f64
                };
                Ok(EvalReport {
                    kernel_name: inner_report.kernel_name,
                    block_size: inner_report.block_size,
                    sim_time: device.now() - t_start,
                    threads: len_i + len_f,
                    bandwidth: weighted(inner_report.bandwidth, face_report.bandwidth),
                    flops_rate: weighted(inner_report.flops_rate, face_report.flops_rate),
                })
            } else {
                // No overlap: receive every face on the default stream,
                // then evaluate the whole lattice.
                for &((mu, dir), recv_from, _bytes) in &pending {
                    receive_face(StreamId::DEFAULT, mu, dir, recv_from)?;
                }
                let full = eval::eval(
                    &self.ctx,
                    target,
                    expr,
                    &EvalParams::new().remote(&remote),
                )?;
                Ok(EvalReport {
                    sim_time: device.now() - t_start,
                    ..full
                })
            }
        })();

        for p in allocations {
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
        // detach, and release the pinned site-list tables — N-rank sweeps
        // construct hundreds of MultiRanks against long-lived contexts
        self.ctx.detach_rank(self);
        let mut map = self.site_lists.lock();
        for (_, (ptr, _)) in map.drain() {
            self.ctx.device().free(ptr);
        }
    }
}
