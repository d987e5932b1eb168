//! End-to-end telemetry: a real lattice workload driven until the
//! auto-tuner settles must leave its whole story in the profile report —
//! trial vs settled launches, the tuned block size, launch-failure halving,
//! JIT hit ratio, cache traffic, eval spans — and in the Chrome trace.

use qdp_core::prelude::*;
use qdp_core::SiteElem;
use qdp_gpu_sim::Device;
use qdp_jit::autotune::TuneState;
use qdp_jit::{launch_tuned_on, CompiledKernel, KernelCache, LaunchArg};
use qdp_ptx::emit::emit_module;
use qdp_ptx::inst::{BinOp, Inst, Operand};
use qdp_ptx::module::{KernelBuilder, Module};
use qdp_ptx::types::{PtxType, RegClass};
use qdp_rng::{SeedableRng, StdRng};
use qdp_telemetry::Telemetry;
use qdp_types::su3::random_su3;
use qdp_types::PScalar;
use std::sync::Arc;

fn profiled_ctx() -> (Arc<QdpContext>, Arc<Telemetry>) {
    let tel = Arc::new(Telemetry::new());
    tel.enable();
    let ctx = QdpContext::builder(Geometry::symmetric(4))
        .telemetry(Arc::clone(&tel))
        .build();
    (ctx, tel)
}

/// Drive one expression kernel until its tuner settles, then a few more
/// launches at the settled block size. Returns the kernel's name and the
/// PTX text its launches ran (rendered, not compiled).
fn run_settling_workload(ctx: &Arc<QdpContext>) -> (String, String) {
    let mut rng = StdRng::seed_from_u64(41);
    let u2 = LatticeColorMatrix::<f64>::from_fn(ctx, |_| PScalar(random_su3::<f64>(&mut rng)));
    let u3 = LatticeColorMatrix::<f64>::from_fn(ctx, |_| PScalar(random_su3::<f64>(&mut rng)));
    // Host-written, so its first kernel reference is a page-in (a
    // never-written field would be zero-filled on the device instead).
    let out = LatticeColorMatrix::<f64>::from_fn(ctx, |_| PScalar(random_su3::<f64>(&mut rng)));
    let e = u2.q() * u3.q();
    for _ in 0..16 {
        out.assign(e.clone()).unwrap();
    }
    let report = ctx.profile_report();
    assert_eq!(report.kernels.len(), 1, "one expression → one kernel");
    (report.kernels[0].name.clone(), launched_ptx(ctx, &out, &e))
}

/// The PTX text `target.assign(e)` launches (rendered, not compiled).
fn launched_ptx<E: SiteElem>(ctx: &QdpContext, target: &Lattice<E>, e: &QExpr<E>) -> String {
    let plan = qdp_core::plan_codegen(ctx, target.fref(), e.raw(), false, false).unwrap();
    qdp_core::render_ptx(&plan, e.raw(), &plan.name).unwrap()
}

/// The launched kernel `name`, fetched from the context's kernel cache.
fn cached_kernel(ctx: &QdpContext, name: &str) -> Arc<CompiledKernel> {
    ctx.kernels()
        .by_name(name)
        .expect("the launched kernel is cached")
}

/// A launched kernel's tuning record.
fn record(k: &CompiledKernel) -> TuneState {
    k.tuning.lock().clone().expect("a launched kernel has a tuning record")
}

#[test]
fn profile_report_shows_tuner_settling() {
    let (ctx, _tel) = profiled_ctx();
    let (name, _) = run_settling_workload(&ctx);
    let report = ctx.profile_report();
    let row = report.kernel(&name).expect("kernel row");

    // The tuner probed on early payload launches, then settled.
    assert_eq!(row.launches, 16);
    assert!(row.trial_launches > 0, "probing launches must be recorded");
    assert!(
        row.launches > row.trial_launches,
        "some launches must be at the settled configuration"
    );
    assert!(row.settled, "tuner should settle within 16 launches");

    // The report's block size is the tuner's settled choice, verbatim.
    let st = record(&cached_kernel(&ctx, &name));
    assert!(st.settled);
    assert_eq!(row.block_size, st.current);
    assert_eq!(row.trial_launches, st.probes as u64);

    // One translation, fifteen cache hits.
    assert_eq!(row.jit_misses, 1);
    assert_eq!(row.jit_hits, 15);
    assert!((report.jit.hit_ratio() - 15.0 / 16.0).abs() < 1e-12);

    // The performance model fed the row: sim time, bytes, bandwidth.
    assert!(row.sim_time > 0.0);
    assert!(row.bytes > 0);
    assert!(row.bandwidth > 0.0);
}

/// A kernel launched through `Lattice::assign` and fetched again by its
/// name is the launched kernel: its code is the lowering of the text the
/// statement renders to, the fetch translates nothing, and its record is
/// the one the launches settled.
#[test]
fn a_kernel_fetched_by_name_carries_its_launches_record() {
    let (ctx, _tel) = profiled_ctx();
    let (name, ptx) = run_settling_workload(&ctx);
    let (misses, len) = (ctx.kernels().stats().misses, ctx.kernels().len());
    let k = cached_kernel(&ctx, &name);
    assert_eq!(k.code, qdp_jit::compile_ptx(&ptx).unwrap()[0].code);
    assert_eq!(
        (ctx.kernels().stats().misses, ctx.kernels().len()),
        (misses, len)
    );
    let st = record(&k);
    assert!(st.settled);
    let report = ctx.profile_report();
    let row = report.kernel(&name).expect("kernel row");
    assert_eq!((row.block_size, row.trial_launches), (st.current, st.probes as u64));
}

/// Two threads launching one kernel on a shared context walk one record:
/// every trial launch either of them made is one of its probes.
#[test]
fn threads_sharing_a_kernel_share_one_record() {
    let (ctx, _tel) = profiled_ctx();
    let mut rng = StdRng::seed_from_u64(43);
    let u2 = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| PScalar(random_su3::<f64>(&mut rng)));
    let u3 = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| PScalar(random_su3::<f64>(&mut rng)));
    let outs = [LatticeColorMatrix::<f64>::new(&ctx), LatticeColorMatrix::<f64>::new(&ctx)];
    std::thread::scope(|s| {
        for out in &outs {
            let e = u2.q() * u3.q();
            s.spawn(move || {
                for _ in 0..8 {
                    out.assign(e.clone()).unwrap();
                }
            });
        }
    });
    let report = ctx.profile_report();
    assert_eq!(report.kernels.len(), 1, "one expression → one kernel");
    let row = &report.kernels[0];
    assert_eq!(row.launches, 16);
    let st = record(&cached_kernel(&ctx, &row.name));
    assert!(st.settled, "the shared record settles within 16 launches");
    assert_eq!(st.probes as u64, row.trial_launches);
}

#[test]
fn profile_report_shows_eval_spans_and_cache_traffic() {
    let (ctx, _tel) = profiled_ctx();
    run_settling_workload(&ctx);
    let report = ctx.profile_report();

    let eval = report.span("eval/eval").expect("eval span");
    assert_eq!(eval.count, 16);
    assert!(eval.wall > 0.0);
    assert!(eval.sim > 0.0, "eval spans must carry the simulated clock");
    // codegen runs once: launches 2..16 hit the kernel cache
    let cg = report.span("eval/codegen").expect("codegen span");
    assert_eq!(cg.count, 1);

    // Three fields were registered with the software cache and paged in.
    assert_eq!(report.counter("cache.fields_registered"), 3);
    assert!(report.counter("cache.page_ins") >= 3);
    assert!(report.counter("cache.page_in_bytes") > 0);
    // h2d transfers from the page-ins reached the device track.
    assert!(report.counter("device.h2d_copies") >= 3);
}

/// `out[i] = 2*in[i]` with heavy artificial register pressure, so the first
/// launch at block 1024 exhausts the register file (same construction as
/// the jit crate's launch tests).
fn high_pressure_kernel() -> String {
    let mut b = KernelBuilder::new("pressure_f64");
    let p_out = b.param("out", PtxType::U64);
    let p_in = b.param("in", PtxType::U64);
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
    let base_i = b.ld_param(&p_in, PtxType::U64);
    let addr_i = b.bin(BinOp::Add, PtxType::U64, base_i.into(), off.into());
    let v = b.fresh(RegClass::F64);
    b.push(Inst::LdGlobal {
        ty: PtxType::F64,
        dst: v,
        addr: addr_i,
        offset: 0,
    });
    let mut r = b.bin(BinOp::Mul, PtxType::F64, v.into(), Operand::ImmF(2.0));
    let extras: Vec<_> = (0..90)
        .map(|i| b.mov(PtxType::F64, Operand::ImmF(i as f64 * 1.0e-30)))
        .collect();
    for e in extras {
        r = b.bin(BinOp::Add, PtxType::F64, r.into(), e.into());
    }
    let base_o = b.ld_param(&p_out, PtxType::U64);
    let addr_o = b.bin(BinOp::Add, PtxType::U64, base_o.into(), off.into());
    b.push(Inst::StGlobal {
        ty: PtxType::F64,
        addr: addr_o,
        offset: 0,
        src: r.into(),
    });
    b.bind_label(&exit);
    emit_module(&Module::with_kernel(b.finish()))
}

#[test]
fn launch_failure_halving_is_visible_in_report() {
    let tel = Arc::new(Telemetry::new());
    tel.enable();
    let device = Device::with_telemetry(DeviceConfig::k20x_ecc_off(), Arc::clone(&tel));
    let cache = KernelCache::with_telemetry(Arc::clone(&tel));
    let k = cache
        .compile(qdp_jit::CompileRequest::new(&high_pressure_kernel()))
        .unwrap();
    assert!(k.regs_per_thread > 150, "kernel must not fit at block 1024");

    let n = 4096usize;
    let p_in = device.alloc(n * 8).unwrap();
    let p_out = device.alloc(n * 8).unwrap();
    let out = launch_tuned_on(
        &device,
        None,
        &k,
        &[
            LaunchArg::Ptr(p_out),
            LaunchArg::Ptr(p_in),
            LaunchArg::U32(n as u32),
        ],
        n,
        1,
        false,
        StreamId::DEFAULT,
    )
    .unwrap();
    assert!(out.failed_attempts >= 1);

    let report = tel.profile_report();
    let row = report.kernel("pressure_f64").expect("kernel row");
    assert_eq!(row.launch_failures, out.failed_attempts as u64);
    assert!(row.block_size < 1024, "halving must be reflected in the row");
    assert_eq!(
        report.counter("jit.launch_failures"),
        out.failed_attempts as u64
    );
    // Tuner state agrees with what telemetry reported. (st.current is
    // already halved again for the next probe, so compare the launch.)
    let st = record(&k);
    assert_eq!(st.launch_failures, out.failed_attempts);
    assert_eq!(row.block_size, out.block_size);
}

#[test]
fn chrome_trace_contains_kernel_and_span_events() {
    let tel = Arc::new(Telemetry::new());
    tel.enable();
    let path = std::env::temp_dir().join(format!("qdp_core_trace_{}.json", std::process::id()));
    tel.enable_trace(&path);
    let ctx = QdpContext::builder(Geometry::symmetric(4))
        .telemetry(Arc::clone(&tel))
        .build();
    run_settling_workload(&ctx);
    tel.flush_trace().expect("trace should be written once");

    let text = std::fs::read_to_string(&path).unwrap();
    let v = qdp_telemetry::json::parse(&text).unwrap();
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let n_kernel = events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("kernel"))
        .count();
    let n_eval = events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("eval"))
        .count();
    let n_xfer = events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("xfer"))
        .count();
    assert_eq!(n_kernel, 16, "one device event per launch");
    assert!(n_eval >= 16, "host-side eval spans must be traced");
    assert!(n_xfer >= 3, "page-in h2d transfers must be traced");
    std::fs::remove_file(&path).ok();
}
