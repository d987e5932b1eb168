//! Tuned kernel launches: the auto-tuner picks the block size, the device
//! accounts the simulated time, and the interpreter performs the payload
//! work — all on the same launch, per the paper's "tuning is carried out on
//! the payload compute launches" (§VII).

use crate::autotune::AutoTuner;
use crate::exec::{run_grid, LaunchArg};
use crate::lower::CompiledKernel;
use qdp_gpu_sim::{Device, KernelShape, LaunchError, LaunchTiming, StreamId};

/// Result of a tuned launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchOutcome {
    /// Block size the tuner selected.
    pub block_size: u32,
    /// Device timing for the launch.
    pub timing: LaunchTiming,
    /// Number of failed launch attempts before this one succeeded.
    pub failed_attempts: u32,
}

/// Build the performance-model shape of a kernel launch.
pub fn kernel_shape(kernel: &CompiledKernel, threads: usize, site_stride: usize) -> KernelShape {
    KernelShape {
        threads,
        read_bytes_per_thread: kernel.read_bytes,
        write_bytes_per_thread: kernel.write_bytes,
        flops_per_thread: kernel.flops,
        regs_per_thread: kernel.regs_per_thread,
        access_bytes: kernel.access_bytes,
        site_stride,
        double_precision: kernel.double_precision,
    }
}

/// Launch `kernel` over `threads` payload threads with auto-tuned block
/// size. The simulated execution time is accounted on `stream`'s timeline,
/// so launches on different streams overlap. When `execute` is set, the
/// payload is computed functionally in device memory, immediately (the
/// simulation is functional-first; only *time* is stream-ordered); the
/// simulated clock advances either way.
#[allow(clippy::too_many_arguments)]
pub fn launch_tuned_on(
    device: &Device,
    tuner: &AutoTuner,
    kernel: &CompiledKernel,
    args: &[LaunchArg],
    threads: usize,
    site_stride: usize,
    execute: bool,
    stream: StreamId,
) -> Result<LaunchOutcome, LaunchError> {
    let shape = kernel_shape(kernel, threads, site_stride);
    let telemetry = device.telemetry();
    let mut failed = 0u32;
    loop {
        let block = tuner.block_for(&kernel.name);
        let trial = !tuner.is_settled(&kernel.name);
        match device.account_launch_on(&shape, block, stream) {
            Ok(timing) => {
                if execute {
                    let n_blocks = threads.div_ceil(block as usize) as u32;
                    run_grid(kernel, args, device.memory(), n_blocks, block);
                }
                tuner.report(&kernel.name, block, timing.time);
                let settled = tuner.is_settled(&kernel.name);
                if trial && settled {
                    // The tuner just settled on this kernel's block size —
                    // a decision worth keeping in the black box.
                    telemetry.record_flight(
                        "tuner_settle",
                        &kernel.name,
                        &[("block", block as f64)],
                    );
                }
                if telemetry.enabled() || telemetry.flight_enabled() {
                    telemetry.record_launch_full(&qdp_telemetry::LaunchRecord {
                        kernel: &kernel.name,
                        block,
                        trial,
                        settled,
                        sim_t0: device.stream_now(stream) - timing.time,
                        sim_dur: timing.time,
                        read_bytes: (threads * kernel.read_bytes) as u64,
                        write_bytes: (threads * kernel.write_bytes) as u64,
                        flops: shape.total_flops() as u64,
                        stream: stream.0,
                        ld_transactions: timing.ld_transactions,
                        st_transactions: timing.st_transactions,
                        occupancy: timing.occupancy,
                        waves: timing.waves as u64,
                        overhead: timing.overhead,
                        double_precision: kernel.double_precision,
                    });
                }
                return Ok(LaunchOutcome {
                    block_size: block,
                    timing,
                    failed_attempts: failed,
                });
            }
            Err(e @ LaunchError::EmptyGrid) | Err(e @ LaunchError::BlockTooLarge { .. }) => {
                telemetry.record_flight("launch_fail", &kernel.name, &[("block", block as f64)]);
                telemetry.dump_flight("launch_failure");
                return Err(e);
            }
            Err(e @ LaunchError::OutOfRegisters { .. }) => {
                failed += 1;
                telemetry.record_launch_failure(&kernel.name, block);
                if tuner.launch_failed(&kernel.name).is_none() {
                    // Unrecoverable: even the minimum block exhausts the
                    // register file. Dump the black box before erroring out.
                    telemetry.dump_flight("launch_failure");
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CompileRequest, KernelCache};
    use qdp_gpu_sim::DeviceConfig;
    use qdp_ptx::emit::emit_module;
    use qdp_ptx::inst::{BinOp, Inst, Operand};
    use qdp_ptx::module::{KernelBuilder, Module};
    use qdp_ptx::types::{PtxType, RegClass};

    /// `out[i] = 2 * in[i]` over f64, with some artificial register
    /// pressure to exercise launch failures at block 1024.
    fn double_kernel(extra_regs: u32) -> String {
        let mut b = KernelBuilder::new("double_f64");
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
        let mut r = b.bin(BinOp::Mul, PtxType::F64, v.into(), Operand::ImmF(2.0));
        // create live register pressure: many simultaneously live values
        // folded into the result at the end
        let extras: Vec<_> = (0..extra_regs)
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
    fn tuned_launch_executes_payload() {
        let device = Device::new(DeviceConfig::k20x_ecc_off());
        let tuner = AutoTuner::new(device.config().max_threads_per_block);
        let cache = KernelCache::new();
        let k = cache.compile(CompileRequest::new(&double_kernel(0))).unwrap();

        let n = 500usize;
        let p_in = device.alloc(n * 8).unwrap();
        let p_out = device.alloc(n * 8).unwrap();
        for i in 0..n {
            device.memory().write_f64(p_in + 8 * i as u64, i as f64);
        }
        let out = launch_tuned_on(
            &device,
            &tuner,
            &k,
            &[
                LaunchArg::Ptr(p_out),
                LaunchArg::Ptr(p_in),
                LaunchArg::U32(n as u32),
            ],
            n,
            1,
            true,
            StreamId::DEFAULT,
        )
        .unwrap();
        assert!(out.timing.time > 0.0);
        for i in 0..n {
            assert_eq!(device.memory().read_f64(p_out + 8 * i as u64), 2.0 * i as f64);
        }
    }

    #[test]
    fn resource_pressure_triggers_halving() {
        let device = Device::new(DeviceConfig::k20x_ecc_off());
        let tuner = AutoTuner::new(device.config().max_threads_per_block);
        let cache = KernelCache::new();
        // ~100 f64 regs → 200 32-bit equivalents → needs block ≤ 65536/200 ≈ 327
        let k = cache.compile(CompileRequest::new(&double_kernel(90))).unwrap();
        assert!(k.regs_per_thread > 150);

        let n = 4096usize;
        let p_in = device.alloc(n * 8).unwrap();
        let p_out = device.alloc(n * 8).unwrap();
        let out = launch_tuned_on(
            &device,
            &tuner,
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
        assert!(out.failed_attempts >= 1, "expected at least one halving");
        assert!(out.block_size < 1024);
    }

    #[test]
    fn repeated_launches_settle_on_best_block() {
        let device = Device::new(DeviceConfig::k20x_ecc_off());
        let tuner = AutoTuner::new(device.config().max_threads_per_block);
        let cache = KernelCache::new();
        let k = cache.compile(CompileRequest::new(&double_kernel(0))).unwrap();
        let n = 100_000usize;
        let p_in = device.alloc(n * 8).unwrap();
        let p_out = device.alloc(n * 8).unwrap();
        let args = [
            LaunchArg::Ptr(p_out),
            LaunchArg::Ptr(p_in),
            LaunchArg::U32(n as u32),
        ];
        for _ in 0..12 {
            launch_tuned_on(&device, &tuner, &k, &args, n, 1, false, StreamId::DEFAULT).unwrap();
            if tuner.is_settled(&k.name) {
                break;
            }
        }
        assert!(tuner.is_settled(&k.name), "tuner should settle");
        let settled_block = tuner.block_for(&k.name);
        // the model's best block for streaming kernels is ≥ 128 (paper §VII)
        assert!(
            settled_block >= 64,
            "settled block {settled_block} below 64"
        );
    }
}
