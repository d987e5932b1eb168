//! Stage probes: after the traced ops, replay each pipeline stage by direct
//! calls into the layer's public functions and time it from outside.
//!
//! Every probe is a `probe.<layer>.<stage>` span; its metric is the lower
//! decile of its repetitions, warm. Repetitions are sized to a time budget
//! (at least [`MIN_REPS`], at most [`MAX_REPS`]) so a traced run stays about
//! as long as an untraced one; the two-rank probes always make [`MAX_REPS`].
//!
//! Kernel classes are the public calls whose kernels dominate the
//! workloads: `dslash` = `WilsonDirac::apply`, `axpy` = fermion `x + a·p`
//! assign, `norm2` = `Lattice::norm2`, `gauge_force` = `force::gauge_force`,
//! `link_update` = `u ← expm(dt·p)·u` assign, `plaquette` =
//! `GaugeField::plaquette`.

use crate::spans::Recorder;
use crate::stats;
use crate::workloads::cg_model::CgFields;
use crate::workloads::{
    cg_model, cg_solve, core_err, hmc_gauge, jit_cold, multirank_hmc, PhaseCfg, PhaseOut,
};
use chroma_mini::fermion::WilsonDirac;
use chroma_mini::force::gauge_force;
use chroma_mini::gauge::{gaussian_fermion, refresh_momenta, taproj, GaugeField};
use qdp_comm::{run_cluster, LinkModel};
use qdp_core::multinode::MultiRank;
use qdp_core::prelude::*;
use qdp_core::{expm, plan_codegen, real, render_ptx, shift, trace};
use qdp_expr::{Expr, FieldRef};
use qdp_gpu_sim::KernelShape;
use qdp_jit::{lower_kernel, CompileRequest, KernelCache};
use qdp_layout::Decomposition;
use qdp_ptx::emit::emit_module;
use qdp_ptx::optimize_module;
use qdp_ptx::parse::parse_module;
use qdp_rng::{SeedableRng, StdRng};
use qdp_types::Fermion;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const MIN_REPS: usize = 5;
pub const MAX_REPS: usize = 20;
/// Wall budget of one probe's repetitions.
const PROBE_BUDGET: Duration = Duration::from_millis(250);

/// What the probes of one traced run measured.
#[derive(Default)]
pub struct ProbeOut {
    pub metrics: BTreeMap<String, f64>,
}

impl ProbeOut {
    fn put(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }
}

/// Time `f` repeatedly under span `name`; returns the per-call samples in
/// microseconds. One untimed call first (warm), then at least [`MIN_REPS`]
/// and at most [`MAX_REPS`] timed ones within [`PROBE_BUDGET`].
pub fn sample_us<T>(rec: &Recorder, name: &str, mut f: impl FnMut() -> T) -> Vec<f64> {
    std::hint::black_box(f());
    let mut us = Vec::with_capacity(MAX_REPS);
    let started = Instant::now();
    while us.len() < MAX_REPS && (us.len() < MIN_REPS || started.elapsed() < PROBE_BUDGET) {
        let _s = rec.enter(name);
        let t0 = Instant::now();
        std::hint::black_box(f());
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    us
}

/// Lower decile of [`sample_us`].
fn probe_us<T>(rec: &Recorder, name: &str, f: impl FnMut() -> T) -> f64 {
    stats::p10(&sample_us(rec, name, f))
}

/// [`sample_us`] for a call that can fail: the first error ends the probe.
fn try_sample_us<T, E>(
    rec: &Recorder,
    name: &str,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<Vec<f64>, E> {
    let mut first_err = None;
    let us = sample_us(rec, name, || {
        if first_err.is_none() {
            first_err = f().err();
        }
    });
    first_err.map_or(Ok(us), Err)
}

/// [`try_sample_us`] with exactly [`MAX_REPS`] timed calls. The ranks of a
/// collective probe must all make the same number of calls, which a private
/// time budget per rank cannot promise; and a simulated-clock sample must
/// not depend on how many calls the host had time for.
fn try_sample_fixed_us<T, E>(
    rec: &Recorder,
    name: &str,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<Vec<f64>, E> {
    f()?;
    let mut us = Vec::with_capacity(MAX_REPS);
    for _ in 0..MAX_REPS {
        let _s = rec.enter(name);
        let t0 = Instant::now();
        f()?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(us)
}

// ---------------------------------------------------------------------------
// kernel classes
// ---------------------------------------------------------------------------

/// The public-call kernel classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Dslash,
    Axpy,
    Norm2,
    GaugeForce,
    LinkUpdate,
    Plaquette,
}

pub const FERMION_CLASSES: [Class; 3] = [Class::Dslash, Class::Axpy, Class::Norm2];
pub const GAUGE_CLASSES: [Class; 3] = [Class::GaugeForce, Class::LinkUpdate, Class::Plaquette];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Dslash => "dslash",
            Class::Axpy => "axpy",
            Class::Norm2 => "norm2",
            Class::GaugeForce => "gauge_force",
            Class::LinkUpdate => "link_update",
            Class::Plaquette => "plaquette",
        }
    }
}

/// One generated kernel of a class: what it is evaluated into, from what,
/// and how many payload threads one launch of it has.
struct Statement {
    target: FieldRef,
    expr: Expr,
    subset_mapped: bool,
    threads: usize,
    /// Launches of this kernel per class call.
    launches: usize,
}

/// Fields and operator the class calls run on.
pub struct ClassBench {
    ctx: Arc<QdpContext>,
    g: GaugeField,
    m: WilsonDirac,
    p: Multi1d<LatticeColorMatrix<f64>>,
    psi: LatticeFermion<f64>,
    x: LatticeFermion<f64>,
    out: LatticeFermion<f64>,
    scalar: LatticeReal<f64>,
}

const PROBE_BETA: f64 = 5.6;
const PROBE_DT: f64 = 0.01;

impl ClassBench {
    /// Seeded fields on a fresh context over an `l⁴` lattice.
    pub fn new(cfg: &PhaseCfg<'_>, l: usize, payload: bool) -> ClassBench {
        let ctx = QdpContext::builder(Geometry::symmetric(l))
            .config(cfg.qdp_config())
            .build();
        ctx.set_payload_execution(payload);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x70_72_6f_62_65);
        let g = if payload {
            GaugeField::warm(&ctx, &mut rng, 0.3)
        } else {
            GaugeField::hot(&ctx, &mut rng)
        };
        ClassBench {
            m: WilsonDirac::new(&g, cg_solve::MASS, None),
            p: refresh_momenta(&ctx, &mut rng),
            psi: gaussian_fermion(&ctx, &mut rng),
            x: gaussian_fermion(&ctx, &mut rng),
            out: LatticeFermion::new(&ctx),
            scalar: LatticeReal::new(&ctx),
            g,
            ctx,
        }
    }

    /// The public call of `class`.
    pub fn call(&self, class: Class) -> Result<(), CoreError> {
        match class {
            Class::Dslash => self.m.apply(&self.out, &self.psi).map(drop),
            Class::Axpy => self.out.assign(self.x.q() + 0.37 * self.psi.q()).map(drop),
            Class::Norm2 => self.psi.norm2().map(drop),
            Class::GaugeForce => gauge_force(&self.g, PROBE_BETA).map(drop),
            Class::LinkUpdate => self.g.u[0]
                .assign(expm(PROBE_DT * self.p[0].q()) * self.g.u[0].q())
                .map(drop),
            Class::Plaquette => self.g.plaquette().map(drop),
        }
    }

    /// The hit path of the residency walk: `assure_on_device` over the
    /// working set of a dslash whose fields are all resident, µs.
    fn assure_resident_us(&self, rec: &Recorder) -> Result<f64, CoreError> {
        self.call(Class::Dslash)?;
        let ids: Vec<u64> = [self.out.id(), self.psi.id()]
            .into_iter()
            .chain(self.m.u.iter().map(|u| u.id()))
            .collect();
        let us = try_sample_us(rec, "probe.cache.assure_resident", || {
            self.ctx.cache().assure_on_device(&ids)
        })?;
        Ok(stats::p10(&us))
    }

    /// The kernels `call(class)` launches, as (target, expression) pairs.
    fn statements(&self, class: Class) -> Vec<Statement> {
        let vol = self.ctx.geometry().vol();
        let one = |target: FieldRef, expr: Expr| Statement {
            target,
            expr,
            subset_mapped: false,
            threads: vol,
            launches: 1,
        };
        match class {
            // both checkerboards share one subset-mapped kernel
            Class::Dslash => vec![Statement {
                target: self.out.fref(),
                expr: self.m.apply_expr(self.psi.q()).0,
                subset_mapped: true,
                threads: vol / 2,
                launches: 2,
            }],
            Class::Axpy => vec![one(self.out.fref(), (self.x.q() + 0.37 * self.psi.q()).0)],
            Class::Norm2 => vec![one(
                self.scalar.fref(),
                Expr::Unary(qdp_expr::UnaryOp::LocalNorm2, Box::new(self.psi.q().0)),
            )],
            Class::GaugeForce => (0..4)
                .map(|mu| {
                    let e = (-PROBE_BETA / 3.0) * taproj(self.g.u[mu].q() * self.g.staple_expr(mu));
                    one(self.g.u[mu].fref(), e.0)
                })
                .collect(),
            Class::LinkUpdate => vec![one(
                self.g.u[0].fref(),
                (expm(PROBE_DT * self.p[0].q()) * self.g.u[0].q()).0,
            )],
            Class::Plaquette => (0..4)
                .flat_map(|mu| ((mu + 1)..4).map(move |nu| (mu, nu)))
                .map(|(mu, nu)| {
                    one(
                        self.scalar.fref(),
                        real(trace(self.g.plaquette_expr(mu, nu))).0,
                    )
                })
                .collect(),
        }
    }

    /// PTX text and plan of one statement, exactly as the launch path
    /// generates them.
    fn codegen(&self, st: &Statement) -> Result<(qdp_core::CodegenPlan, String), CoreError> {
        let plan = plan_codegen(&self.ctx, st.target, &st.expr, st.subset_mapped, false)?;
        let ptx = render_ptx(&plan, &st.expr, &plan.name)?;
        Ok((plan, ptx))
    }
}

/// Per-class results of the payload-on/payload-off replay.
#[derive(Default)]
struct ExecProbe {
    /// Class → interpreter ns per payload thread.
    exec_ns_per_site: BTreeMap<&'static str, f64>,
    /// Generated kernel name → (class, payload threads per launch).
    kernels: BTreeMap<String, (&'static str, usize)>,
    /// Mean host cost of one launch with the payload off, µs.
    host_us_per_launch: f64,
    exec_ns_per_inst: f64,
}

/// Warm eval of each class with payload execution on and off. The
/// difference is the interpreter; the payload-off time per launch is the
/// host path.
fn exec_probe(
    cfg: &PhaseCfg<'_>,
    l: usize,
    classes: &[Class],
    with_payload: bool,
    out: &mut ProbeOut,
) -> Result<ExecProbe, String> {
    let rec = cfg.rec;
    let bench = ClassBench::new(cfg, l, with_payload);
    let mut res = ExecProbe::default();
    let (mut host_us, mut exec_ns_total, mut inst_work) = (Vec::new(), 0.0, 0.0);
    for &class in classes {
        let name = class.name();
        let timed = |label: &str| {
            try_sample_us(rec, &format!("probe.jit.{label}.{name}"), || {
                bench.call(class)
            })
            .map_err(core_err)
        };
        let on_us = if with_payload {
            bench.ctx.set_payload_execution(true);
            bench.call(class).map_err(core_err)?; // compile + first tuner trials
            stats::p10(&timed("exec_on")?)
        } else {
            0.0
        };
        bench.ctx.set_payload_execution(false);
        let l0 = bench.ctx.device().stats().launches;
        let off = timed("exec_off")?;
        let launches = (bench.ctx.device().stats().launches - l0) as f64 / (off.len() + 1) as f64;
        let off_us = stats::p10(&off);
        host_us.push(off_us / launches.max(1.0));

        let (mut threads, mut insts) = (0usize, 0usize);
        for st in bench.statements(class) {
            let (plan, ptx) = bench.codegen(&st).map_err(core_err)?;
            let kernel = bench
                .ctx
                .kernels()
                .compile(
                    CompileRequest::new(&ptx)
                        .opt_level(plan.opt)
                        .name(&plan.name),
                )
                .map_err(|e| format!("{e}"))?;
            threads += st.threads * st.launches;
            insts += kernel.code.len();
            inst_work += (kernel.code.len() * st.threads * st.launches) as f64;
            res.kernels.insert(plan.name, (name, st.threads));
        }
        if with_payload {
            let exec_ns = ((on_us - off_us) * 1e3).max(0.0);
            exec_ns_total += exec_ns;
            let per_site = exec_ns / threads as f64;
            out.put(&format!("jit.exec_ns_per_site.{name}"), per_site);
            res.exec_ns_per_site.insert(name, per_site);
            if class == Class::Norm2 {
                out.put("core.reduce_ms", on_us / 1e3);
            }
        }
        out.put(&format!("jit.insts.{name}"), insts as f64);
    }
    res.host_us_per_launch = stats::mean(&host_us);
    res.exec_ns_per_inst = if inst_work > 0.0 {
        exec_ns_total / inst_work
    } else {
        0.0
    };
    out.put("core.host_us_per_launch", res.host_us_per_launch);
    if with_payload {
        out.put("jit.exec_ns_per_inst", res.exec_ns_per_inst);
    }
    Ok(res)
}

/// The ledger: how much of the measured op the probed costs explain.
///
/// `attributed = launches·host_us_per_launch + Σ covered launches ·
/// threads · exec_ns_per_site + page traffic · page_cycle_us/2`; what is
/// left of `wall.op_ms_p50` is the residual, reported as measured.
fn ledger(phase: &PhaseOut, exec: &ExecProbe, page_cycle_us: f64, out: &mut ProbeOut) {
    let Some(delta) = &phase.delta else { return };
    let ops = phase.wall_ms.len().max(1) as f64;
    let mut covered = 0u64;
    let mut exec_ms = 0.0;
    for (kernel, &launches) in &delta.kernel_launches {
        if let Some(&(class, threads)) = exec.kernels.get(kernel) {
            covered += launches;
            let per_site = exec.exec_ns_per_site.get(class).copied().unwrap_or(0.0);
            exec_ms += launches as f64 * threads as f64 * per_site / 1e6;
        }
    }
    let host_ms = delta.launches as f64 * exec.host_us_per_launch / 1e3;
    let paging_ms = (delta.page_ins + delta.page_outs) as f64 * page_cycle_us / 2.0 / 1e3;
    let attributed = (host_ms + exec_ms + paging_ms) / ops;
    let p50 = stats::p50(&phase.wall_ms);
    out.put(
        "ledger.kernel_coverage_frac",
        if delta.launches > 0 {
            covered as f64 / delta.launches as f64
        } else {
            0.0
        },
    );
    out.put(
        "ledger.residual_frac",
        if p50 > 0.0 {
            1.0 - attributed / p50
        } else {
            0.0
        },
    );
}

// ---------------------------------------------------------------------------
// per-layer probes
// ---------------------------------------------------------------------------

/// `cache`: the hit path of the residency walk, and a full host↔device
/// cycle of one link field.
fn cache_probe(cfg: &PhaseCfg<'_>, l: usize, out: &mut ProbeOut) -> Result<f64, String> {
    let rec = cfg.rec;
    let bench = ClassBench::new(cfg, l, true);
    out.put(
        "cache.assure_resident_us",
        bench.assure_resident_us(rec).map_err(core_err)?,
    );
    let cache = bench.ctx.cache();
    // a full cycle of one link field: device copy newer → host read pages
    // it out → host write invalidates the device copy → page back in
    let link = &bench.g.u[0];
    let cycle = try_sample_us(rec, "probe.cache.page_cycle", || {
        cache.mark_device_dirty(link.id())?;
        let v = link.get(0);
        link.set(0, v);
        cache.assure_on_device(&[link.id()])
    })
    .map_err(|e| format!("{e}"))?;
    let cycle = stats::p10(&cycle);
    out.put("cache.page_cycle_us", cycle);
    Ok(cycle)
}

/// `quda`: the hand-written native dslash and CG on the same system.
fn quda_probe(cfg: &PhaseCfg<'_>, dslash_exec_ns: f64, out: &mut ProbeOut) {
    let rec = cfg.rec;
    let (ctx, g, _m, mut rng) = cg_solve::bring_up(cfg);
    let vol = ctx.geometry().vol();
    let host_g = quda_sim::HostGauge {
        links: (0..4)
            .map(|mu| (0..vol).map(|s| g.u[mu].get(s)).collect())
            .collect(),
        geom: ctx.geometry().clone(),
    };
    let b: Vec<Fermion<f64>> = gaussian_fermion(&ctx, &mut rng).to_vec();
    let dslash_us = probe_us(rec, "probe.quda.host_dslash", || {
        quda_sim::host_dslash(&host_g, &b)
    });
    let per_site = dslash_us * 1e3 / vol as f64;
    out.put("quda.host_dslash_ns_per_site", per_site);
    let cg_us = probe_us(rec, "probe.quda.host_cg", || {
        quda_sim::host_cg(
            &host_g,
            cg_solve::MASS,
            &b,
            cg_solve::TOL,
            cg_solve::MAX_ITERS,
        )
    });
    out.put("quda.host_cg_ms", cg_us / 1e3);
    out.put(
        "jit.interp_slowdown_x",
        if per_site > 0.0 {
            dslash_exec_ns / per_site
        } else {
            0.0
        },
    );
}

/// `expr`, `core` plan, JIT cache hit, the residency walk's hit path and the
/// launch accounting of `gpusim`, on the 16⁴ system of `cg_model`.
fn host_path_probe(cfg: &PhaseCfg<'_>, out: &mut ProbeOut) -> Result<(), String> {
    let rec = cfg.rec;
    let bench = ClassBench::new(cfg, cg_model::L, false);
    out.put(
        "cache.assure_resident_us",
        bench.assure_resident_us(rec).map_err(core_err)?,
    );
    let st = &bench.statements(Class::Dslash)[0];
    out.put(
        "expr.build_us",
        probe_us(rec, "probe.expr.build", || {
            bench.m.apply_expr(bench.psi.q())
        }),
    );
    out.put(
        "expr.key_us",
        probe_us(rec, "probe.expr.key", || st.expr.kernel_key()),
    );
    out.put(
        "core.plan_us",
        probe_us(rec, "probe.core.plan", || {
            plan_codegen(&bench.ctx, st.target, &st.expr, st.subset_mapped, false)
        }),
    );
    let (plan, ptx) = bench.codegen(st).map_err(core_err)?;
    let request = || {
        CompileRequest::new(&ptx)
            .opt_level(plan.opt)
            .name(&plan.name)
    };
    bench
        .ctx
        .kernels()
        .compile(request())
        .map_err(|e| format!("{e}"))?;
    out.put(
        "jit.cache_hit_us",
        probe_us(rec, "probe.jit.cache_hit", || {
            bench.ctx.kernels().compile(request())
        }),
    );
    let shape = KernelShape {
        threads: bench.ctx.geometry().vol(),
        read_bytes_per_thread: 1440,
        write_bytes_per_thread: 192,
        flops_per_thread: 1320,
        regs_per_thread: 64,
        access_bytes: 8,
        site_stride: 1,
        double_precision: true,
    };
    let device = bench.ctx.device();
    out.put(
        "gpusim.account_us",
        probe_us(rec, "probe.gpusim.account", || {
            device.account_launch_on(&shape, 128, StreamId::DEFAULT)
        }),
    );
    Ok(())
}

/// The compile pipeline, stage by stage, over the kernels of all six
/// classes at 4⁴: `render_ptx` → `parse_module` → `optimize_module` →
/// `emit_module` → `lower_kernel`, then `KernelCache::compile` as a miss.
fn pipeline_probe(cfg: &PhaseCfg<'_>, out: &mut ProbeOut) -> Result<(), String> {
    let rec = cfg.rec;
    let bench = ClassBench::new(cfg, 4, false);
    let mut sum: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut bytes, mut insts_in, mut insts_out, mut kernels) = (0usize, 0usize, 0usize, 0usize);
    for class in FERMION_CLASSES.into_iter().chain(GAUGE_CLASSES) {
        for st in bench.statements(class) {
            let (plan, ptx) = bench.codegen(&st).map_err(core_err)?;
            let parsed = parse_module(&ptx).map_err(|e| format!("{e}"))?;
            let mut optimized = parsed.clone();
            optimize_module(&mut optimized, plan.opt);
            bytes += ptx.len();
            kernels += 1;
            insts_in += parsed.kernels.iter().map(|k| k.body.len()).sum::<usize>();
            insts_out += optimized
                .kernels
                .iter()
                .map(|k| k.body.len())
                .sum::<usize>();
            let mut add = |stage: &'static str, us: f64| *sum.entry(stage).or_insert(0.0) += us;
            add(
                "core.render_us",
                probe_us(rec, "probe.core.render", || {
                    render_ptx(&plan, &st.expr, &plan.name)
                }),
            );
            add(
                "ptx.parse_us",
                probe_us(rec, "probe.ptx.parse", || parse_module(&ptx)),
            );
            add(
                "ptx.opt_us",
                // the clone is part of the sample: subtract it below
                probe_us(rec, "probe.ptx.opt", || {
                    let mut m = parsed.clone();
                    optimize_module(&mut m, plan.opt)
                }) - probe_us(rec, "probe.ptx.opt_baseline", || parsed.clone()),
            );
            add(
                "ptx.emit_us",
                probe_us(rec, "probe.ptx.emit", || emit_module(&optimized)),
            );
            add(
                "jit.lower_us",
                probe_us(rec, "probe.jit.lower", || {
                    optimized
                        .kernels
                        .iter()
                        .map(lower_kernel)
                        .collect::<Vec<_>>()
                }),
            );
            add(
                "jit.compile_us_per_kernel",
                probe_us(rec, "probe.jit.compile_miss", || {
                    KernelCache::new().compile(
                        CompileRequest::new(&ptx)
                            .opt_level(plan.opt)
                            .name(&plan.name),
                    )
                }),
            );
        }
    }
    for (stage, us) in sum {
        let v = if stage == "jit.compile_us_per_kernel" {
            us / kernels as f64
        } else {
            us.max(0.0)
        };
        out.put(stage, v);
    }
    out.put("core.ptx_bytes", bytes as f64);
    out.put("ptx.insts_in", insts_in as f64);
    out.put("ptx.insts_out", insts_out as f64);
    out.put(
        "ptx.opt_eliminated_frac",
        if insts_in > 0 {
            1.0 - insts_out as f64 / insts_in as f64
        } else {
            0.0
        },
    );
    Ok(())
}

/// `comm` and `multinode`: a face-sized ping-pong over the rank handles,
/// and a two-rank covariant derivative against the same local volume on
/// one rank.
fn comm_probe(cfg: &PhaseCfg<'_>, out: &mut ProbeOut) -> Result<(), String> {
    let rec = cfg.rec;
    let silent = Recorder::new(false);
    let decomp = Decomposition::new(multirank_hmc::GLOBAL, multirank_hmc::RANK_DIMS);
    let local = decomp.local_geometry();
    // one face of colour matrices in double precision
    let face_bytes = local.vol() / local.dims()[0] * 18 * 8;
    let link = LinkModel::infiniband_qdr();
    out.put(
        "comm.face_transfer_sim_us",
        link.transfer_time(face_bytes) * 1e6,
    );

    let covariant = |g: &GaugeField, psi: &LatticeFermion<f64>| {
        (g.u[0].q() * shift(psi.q(), 0, ShiftDir::Forward)).0
    };
    let results = run_cluster(2, link, |handle| -> Result<(f64, f64, f64), CoreError> {
        let rec = if handle.rank == 0 { rec } else { &silent };
        let rank = handle.rank;
        let peer = 1 - rank;
        // placed as the workload's ranks are
        crate::affinity::share_one_core();
        // ping-pong: rank 0 sends first, rank 1 echoes
        let h = handle.clone();
        let roundtrip = try_sample_fixed_us(rec, "probe.comm.roundtrip", || {
            if rank == 0 {
                h.send(peer, vec![0u8; face_bytes], 0.0)?;
                h.recv(peer, 0.0)?;
            } else {
                let (data, _) = h.recv(peer, 0.0)?;
                h.send(peer, data, 0.0)?;
            }
            Ok::<(), qdp_comm::CommError>(())
        })?;
        let roundtrip = stats::p10(&roundtrip);
        handle.barrier()?;
        let ctx = QdpContext::builder(decomp.local_geometry())
            .device(DeviceConfig::k20m_ecc_on())
            .config(cfg.qdp_config())
            .build();
        let mr = MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, true);
        let g = GaugeField::from_links(
            &ctx,
            multirank_hmc::seeded_links(&ctx, &decomp, rank, cfg.seed),
        );
        let psi = gaussian_fermion(&ctx, &mut StdRng::seed_from_u64(cfg.seed + rank as u64));
        let dst = LatticeFermion::<f64>::new(&ctx);
        let e = covariant(&g, &psi);
        let mut sim = Vec::new();
        let wall = try_sample_fixed_us(rec, "probe.multinode.eval", || {
            mr.handle.barrier()?;
            let t0 = ctx.device().sync();
            mr.eval(dst.fref(), &e)?;
            sim.push(ctx.device().sync() - t0);
            Ok::<(), CoreError>(())
        })?;
        Ok((roundtrip, stats::p10(&wall), stats::p50(&sim) * 1e6))
    });
    let mut per_rank = Vec::new();
    for r in results {
        per_rank.push(r.map_err(core_err)?);
    }
    out.put("comm.roundtrip_us", per_rank[0].0);
    out.put("multinode.eval_us", per_rank[0].1);
    let eval_sim_us = per_rank.iter().map(|r| r.2).fold(0.0, f64::max);
    out.put("multinode.eval_sim_us", eval_sim_us);

    // the same local volume with no neighbour: what the exchange exposes
    let ctx = QdpContext::builder(local)
        .device(DeviceConfig::k20m_ecc_on())
        .config(cfg.qdp_config())
        .build();
    let single = Decomposition::single(ctx.geometry().dims());
    let g = GaugeField::from_links(
        &ctx,
        multirank_hmc::seeded_links(&ctx, &single, 0, cfg.seed),
    );
    let psi = gaussian_fermion(&ctx, &mut StdRng::seed_from_u64(cfg.seed));
    let dst = LatticeFermion::<f64>::new(&ctx);
    let mut sim = Vec::new();
    try_sample_fixed_us(rec, "probe.multinode.eval_single_rank", || {
        let t0 = ctx.device().sync();
        dst.assign(g.u[0].q() * shift(psi.q(), 0, ShiftDir::Forward))?;
        sim.push(ctx.device().sync() - t0);
        Ok::<(), CoreError>(())
    })
    .map_err(core_err)?;
    out.put(
        "multinode.comm_exposed_sim_us",
        eval_sim_us - stats::p50(&sim) * 1e6,
    );
    Ok(())
}

/// Share of the op's wall time spent interpreting payloads:
/// `1 − payload-off op wall / op wall`, lower deciles on both sides. The
/// payload-off side is always a replay on a context whose payload execution
/// the probe switches off itself, so a workload that is meant to bypass the
/// interpreter and does not shows here.
fn exec_share(payload_off_us: &[f64], phase: &PhaseOut) -> f64 {
    let op = stats::p10(&phase.wall_ms);
    if op > 0.0 {
        (1.0 - stats::p10(payload_off_us) / 1e3 / op).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// The probes of `workload`, run after its traced ops.
pub fn run_probes(
    workload: &str,
    cfg: &PhaseCfg<'_>,
    phase: &PhaseOut,
) -> Result<ProbeOut, String> {
    let rec = cfg.rec;
    let mut out = ProbeOut::default();
    match workload {
        "hmc_gauge" => {
            let exec = exec_probe(cfg, hmc_gauge::L, &GAUGE_CLASSES, true, &mut out)?;
            let cycle = cache_probe(cfg, hmc_gauge::L, &mut out)?;
            ledger(phase, &exec, cycle, &mut out);
            // the same trajectory with the payload off: all that is left is
            // the host path
            let (ctx, g, mut rng) = hmc_gauge::bring_up(cfg);
            ctx.set_payload_execution(false);
            let silent = Recorder::new(false);
            let off = try_sample_us(rec, "probe.jit.payload_off_op", || {
                hmc_gauge::decomposed_trajectory(&g, &mut rng, &silent)
            })
            .map_err(core_err)?;
            out.put("jit.exec_share", exec_share(&off, phase));
        }
        "cg_solve" => {
            let exec = exec_probe(cfg, cg_solve::L, &FERMION_CLASSES, true, &mut out)?;
            ledger(phase, &exec, 0.0, &mut out);
            quda_probe(
                cfg,
                exec.exec_ns_per_site.get("dslash").copied().unwrap_or(0.0),
                &mut out,
            );
            // CG's control flow needs real values, so the payload-off
            // stand-in is the cg_model statement sequence at 4⁴, repeated
            // for as many iterations as the measured solves took
            let iters = phase
                .layer
                .get("solver.iters_per_solve")
                .copied()
                .unwrap_or(0.0)
                .round() as usize;
            let ctx = QdpContext::builder(Geometry::symmetric(cg_solve::L))
                .config(cfg.qdp_config())
                .build();
            ctx.set_payload_execution(false);
            let fields =
                CgFields::generate(&ctx, &mut StdRng::seed_from_u64(cfg.seed), cg_solve::MASS);
            let off = try_sample_us(rec, "probe.jit.payload_off_op", || {
                fields.replay(iters, 0.1, 0.7)
            })
            .map_err(core_err)?;
            out.put("jit.exec_share", exec_share(&off, phase));
        }
        "cg_model" => {
            let exec = exec_probe(cfg, cg_model::L, &FERMION_CLASSES, false, &mut out)?;
            ledger(phase, &exec, 0.0, &mut out);
            host_path_probe(cfg, &mut out)?;
            let ctx = QdpContext::builder(Geometry::symmetric(cg_model::L))
                .config(cfg.qdp_config())
                .build();
            ctx.set_payload_execution(false);
            let fields =
                CgFields::generate(&ctx, &mut StdRng::seed_from_u64(cfg.seed), cg_model::MASS);
            let off = try_sample_us(rec, "probe.jit.payload_off_op", || {
                fields.replay(cg_model::ITERS_PER_OP, 0.1, 0.7)
            })
            .map_err(core_err)?;
            out.put("jit.exec_share", exec_share(&off, phase));
        }
        "jit_cold" => {
            pipeline_probe(cfg, &mut out)?;
            let off = try_sample_us(rec, "probe.jit.payload_off_op", || {
                jit_cold::replay_op(cfg, false)
            })?;
            out.put("jit.exec_share", exec_share(&off, phase));
        }
        "multirank_hmc" => comm_probe(cfg, &mut out)?,
        _ => {}
    }
    Ok(out)
}
