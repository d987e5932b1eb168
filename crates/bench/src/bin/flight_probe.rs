//! CI probe for the flight recorder: perform a few healthy launches, then
//! force a launch failure and verify the black box hit the disk.
//!
//! Usage: `flight_probe <dump-dir>` — prints the dump path on success so
//! the caller can hand it to `trace_check --flight`.

use qdp_gpu_sim::{Device, DeviceConfig, StreamId};
use qdp_jit::{launch_tuned_on, AutoTuner, CompileRequest, KernelCache, LaunchArg};
use qdp_ptx::emit::emit_module;
use qdp_ptx::inst::{BinOp, Inst, Operand};
use qdp_ptx::module::{KernelBuilder, Module};
use qdp_ptx::types::{PtxType, RegClass};
use qdp_telemetry::Telemetry;
use std::sync::Arc;

/// `out[i] = 2*in[i]` over f64 — a minimal launchable kernel.
fn double_kernel() -> String {
    let mut b = KernelBuilder::new("probe_double_f64");
    let p_out = b.param("out", PtxType::U64);
    let p_in = b.param("in", PtxType::U64);
    let p_n = b.param("n", PtxType::U32);
    let tid = b.global_tid();
    let n = b.ld_param(&p_n, PtxType::U32);
    let exit = b.guard(tid, n);
    let off = b.fresh(RegClass::B64);
    b.push(Inst::MulWide {
        src_ty: PtxType::U32,
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
    let r = b.bin(BinOp::Mul, PtxType::F64, v.into(), Operand::ImmF(2.0));
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

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    std::fs::create_dir_all(&dir).expect("create dump dir");

    let tel = Arc::new(Telemetry::new());
    tel.set_flight_dir(&dir);
    let device = Device::with_telemetry(DeviceConfig::k20x_ecc_off(), Arc::clone(&tel));
    let tuner = AutoTuner::new(device.config().max_threads_per_block);
    let cache = KernelCache::with_telemetry(Arc::clone(&tel));
    let k = cache.compile(CompileRequest::new(&double_kernel())).unwrap();

    let n = 4096usize;
    let p_in = device.alloc(n * 8).unwrap();
    let p_out = device.alloc(n * 8).unwrap();
    let args = [
        LaunchArg::Ptr(p_out),
        LaunchArg::Ptr(p_in),
        LaunchArg::U32(n as u32),
    ];
    for _ in 0..4 {
        launch_tuned_on(&device, &tuner, &k, &args, n, 1, true, StreamId::DEFAULT).unwrap();
    }
    // The forced failure: an empty grid is rejected by the launch model,
    // which dumps the flight ring before returning the error.
    let err = launch_tuned_on(&device, &tuner, &k, &args, 0, 1, false, StreamId::DEFAULT);
    assert!(err.is_err(), "zero-thread launch must fail");

    let path = dir.join(format!("qdp-flight-{}.json", std::process::id()));
    assert!(path.is_file(), "flight dump missing at {}", path.display());
    println!("{}", path.display());
}
