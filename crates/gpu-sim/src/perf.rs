//! The device timing model.
//!
//! The paper's kernels are "simple streaming kernels" (§VII), memory
//! bandwidth bound (§VIII-B), so execution time is modelled as
//!
//! ```text
//! t = t_launch + max(t_mem, t_flop) · tail
//! t_mem  = bytes / B_eff
//! B_eff  = min( B_peak · sustained · coalescing ,  little's-law limit )
//! ```
//!
//! The Little's-law limit `resident_threads · MLP · access_bytes / latency`
//! produces the paper's Figure 4/5 shape: sustained bandwidth climbs with
//! volume while too few threads are resident to hide memory latency, then
//! turns over at a "shoulder" and plateaus at `sustained · B_peak` (79 % of
//! peak on K20x). Double precision saturates at smaller volumes because each
//! thread keeps twice the bytes in flight — exactly the paper's observation
//! (shoulder ≈ 16⁴ SP vs ≈ 12⁴ DP).
//!
//! `tail` is wave quantisation: a grid executes in ⌈blocks / capacity⌉
//! waves, and a partially filled final wave wastes throughput.
//!
//! Occupancy obeys the GK110 resource limits: threads/SM, blocks/SM and the
//! register file. Kernels whose `block_size · regs_per_thread` exceeds the
//! register file **fail to launch** — the condition the paper's auto-tuner
//! (§VII) handles by halving the block size.

use crate::config::DeviceConfig;

/// Static shape of a kernel launch, extracted from the compiled kernel and
/// the launch parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelShape {
    /// Number of payload threads (sites).
    pub threads: usize,
    /// Global-memory bytes read per thread.
    pub read_bytes_per_thread: usize,
    /// Global-memory bytes written per thread.
    pub write_bytes_per_thread: usize,
    /// Floating-point operations per thread.
    pub flops_per_thread: usize,
    /// 32-bit register equivalents per thread.
    pub regs_per_thread: u32,
    /// Width of one scalar access in bytes (4 = SP, 8 = DP).
    pub access_bytes: usize,
    /// Site stride of the dominant field layout in elements: 1 for the SoA
    /// (coalesced) layout, `n_comp` for AoS.
    pub site_stride: usize,
    /// Does the kernel use double-precision arithmetic?
    pub double_precision: bool,
}

impl KernelShape {
    /// Total global-memory traffic in bytes.
    fn total_bytes(&self) -> usize {
        self.threads * (self.read_bytes_per_thread + self.write_bytes_per_thread)
    }

    /// Total floating-point operations.
    pub fn total_flops(&self) -> usize {
        self.threads * self.flops_per_thread
    }
}

/// Why a launch failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchError {
    /// `block_size` exceeds the architectural maximum.
    BlockTooLarge {
        /// Requested block size.
        requested: u32,
        /// Architectural maximum.
        max: u32,
    },
    /// The register file cannot hold even one block of this size
    /// (the paper: "some kernels may even exhaust resources and fail to
    /// launch altogether").
    OutOfRegisters {
        /// Registers required by one block.
        required: u32,
        /// Registers available per SM.
        available: u32,
    },
    /// Zero-thread launch.
    EmptyGrid,
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::BlockTooLarge { requested, max } => {
                write!(f, "block size {requested} exceeds maximum {max}")
            }
            LaunchError::OutOfRegisters { required, available } => {
                write!(f, "launch needs {required} registers/block, SM has {available}")
            }
            LaunchError::EmptyGrid => write!(f, "empty grid"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// The result of timing a launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchTiming {
    /// Simulated execution time in seconds (including launch overhead).
    pub time: f64,
    /// Effective sustained bandwidth achieved during the streaming phase
    /// (bytes/s) — what DRAM profiler counters would report while the
    /// kernel's waves execute. The fixed per-launch costs (host launch
    /// overhead, pipeline ramp) are charged to [`LaunchTiming::time`] but
    /// excluded here: a kernel that moves fewer bytes in proportionally
    /// less time must not read as a bandwidth *loss* merely because the
    /// constant costs amortise over less traffic.
    pub bandwidth: f64,
    /// Achieved flop rate during the streaming phase (flops/s).
    pub flops_rate: f64,
    /// Resident threads used by the occupancy model.
    pub resident_threads: usize,
    /// Number of grid waves.
    pub waves: u32,
    /// Blocks resident per SM.
    pub blocks_per_sm: u32,
    /// 128-byte global *load* transactions the DRAM controller services —
    /// the hardware-counter model. Strided (uncoalesced) access inflates
    /// this by the same waste factor that deflates effective bandwidth.
    pub ld_transactions: u64,
    /// 128-byte global *store* transactions (same model as loads).
    pub st_transactions: u64,
    /// Achieved occupancy: resident threads over the device's maximum
    /// resident threads, in (0, 1].
    pub occupancy: f64,
    /// Fixed per-launch cost (host launch overhead + per-wave pipeline
    /// ramp), seconds: `time - overhead` is the streaming-phase time the
    /// bandwidth/flop rates are measured over.
    pub overhead: f64,
}

/// Occupancy: resident blocks per SM under the three resource limits.
pub fn blocks_per_sm(cfg: &DeviceConfig, regs_per_thread: u32, block_size: u32) -> u32 {
    let by_threads = cfg.max_threads_per_sm / block_size.max(1);
    let regs_per_block = regs_per_thread.max(1) * block_size;
    let by_regs = cfg.regs_per_sm / regs_per_block.max(1);
    cfg.max_blocks_per_sm.min(by_threads).min(by_regs)
}

/// Validate a launch configuration, mirroring `cudaLaunchKernel` errors.
fn validate_launch(
    cfg: &DeviceConfig,
    shape: &KernelShape,
    block_size: u32,
) -> Result<(), LaunchError> {
    if shape.threads == 0 {
        return Err(LaunchError::EmptyGrid);
    }
    if block_size == 0 || block_size > cfg.max_threads_per_block {
        return Err(LaunchError::BlockTooLarge {
            requested: block_size,
            max: cfg.max_threads_per_block,
        });
    }
    let regs_per_block = shape.regs_per_thread.max(1) * block_size;
    if regs_per_block > cfg.regs_per_sm {
        return Err(LaunchError::OutOfRegisters {
            required: regs_per_block,
            available: cfg.regs_per_sm,
        });
    }
    Ok(())
}

/// Simulated execution time of a kernel launch.
pub fn launch_timing(
    cfg: &DeviceConfig,
    shape: &KernelShape,
    block_size: u32,
) -> Result<LaunchTiming, LaunchError> {
    validate_launch(cfg, shape, block_size)?;

    let blocks = shape.threads.div_ceil(block_size as usize);
    let bps = blocks_per_sm(cfg, shape.regs_per_thread, block_size);
    let capacity_blocks = (bps as usize * cfg.n_sm).max(1);
    let resident_threads = (capacity_blocks * block_size as usize).min(shape.threads);

    // Coalescing efficiency: SoA streams full cache lines; AoS wastes a
    // factor ~ stride (bounded by the 128 B transaction / access size).
    let max_waste = 128.0 / shape.access_bytes as f64;
    let coalescing = 1.0 / (shape.site_stride as f64).clamp(1.0, max_waste);

    // Peak sustainable bandwidth for this kernel.
    let sustained = cfg.peak_bandwidth * cfg.sustained_fraction * coalescing;

    // Little's law: bytes in flight / latency. Register-heavy kernels have
    // more instruction-level parallelism per thread (more independent
    // outstanding loads), which partially compensates their lower
    // occupancy — without this, big kernels (clover) would fall off the
    // universal curve the paper observes (Fig. 4/5).
    let mlp = (cfg.mem_level_parallelism * (1.0 + shape.regs_per_thread as f64 / 64.0))
        .clamp(cfg.mem_level_parallelism, 8.0 * cfg.mem_level_parallelism);
    let in_flight = resident_threads as f64 * mlp * shape.access_bytes as f64;
    let little = in_flight / cfg.mem_latency;

    let b_eff = sustained.min(little);

    let bytes = shape.total_bytes() as f64;
    let flops = shape.total_flops() as f64;
    let t_mem = bytes / b_eff;
    let t_flop = flops / cfg.peak_flops(shape.double_precision);

    // Wave quantisation.
    let waves_frac = blocks as f64 / capacity_blocks as f64;
    let waves = waves_frac.ceil().max(1.0);
    let tail = waves / waves_frac.max(f64::MIN_POSITIVE);
    // The tail penalty only applies to the throughput-limited part and
    // fades when a single wave doesn't even fill the machine.
    let tail = if blocks < capacity_blocks { 1.0 } else { tail };

    // Each wave refills the memory pipeline: a drain/ramp cost of a
    // fraction of the memory latency per wave (waves overlap partially).
    // This is what makes very small thread blocks (many waves) lose — the
    // paper finds blocks ≥ 128 saturate (§VII).
    let ramp = waves * cfg.mem_latency * 0.25;

    // Streaming phase: the wave-quantised throughput-limited part. The
    // constant costs (launch overhead, per-wave ramp) go into `time` only;
    // the throughput metrics are rates *during* the streaming phase, so
    // they are invariant under traffic reductions that shrink the kernel
    // (see `shrinking_traffic_never_reads_as_a_bandwidth_loss`).
    let t_stream = t_mem.max(t_flop) * tail;
    let t_exec = t_stream + ramp;
    let time = cfg.launch_overhead + t_exec;

    let (bandwidth, flops_rate) = if t_stream > 0.0 {
        (bytes / t_stream, flops / t_stream)
    } else {
        (0.0, 0.0)
    };

    // Hardware-counter model: DRAM transactions are 128 B; uncoalesced
    // access (site_stride > 1) touches 1/coalescing times the useful bytes.
    let read_bytes = (shape.threads * shape.read_bytes_per_thread) as f64;
    let write_bytes = (shape.threads * shape.write_bytes_per_thread) as f64;
    let ld_transactions = (read_bytes / coalescing / 128.0).ceil() as u64;
    let st_transactions = (write_bytes / coalescing / 128.0).ceil() as u64;
    let max_resident = (cfg.n_sm * cfg.max_threads_per_sm as usize).max(1);
    let occupancy = resident_threads as f64 / max_resident as f64;

    Ok(LaunchTiming {
        time,
        bandwidth,
        flops_rate,
        resident_threads,
        waves: waves as u32,
        blocks_per_sm: bps,
        ld_transactions,
        st_transactions,
        occupancy,
        overhead: cfg.launch_overhead + ramp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's `lcm` kernel shape at volume L⁴: 3 color matrices of
    /// 18 reals each (2 loads + 1 store).
    fn lcm_shape(l: usize, dp: bool) -> KernelShape {
        let w = if dp { 8 } else { 4 };
        KernelShape {
            threads: l * l * l * l,
            read_bytes_per_thread: 2 * 18 * w,
            write_bytes_per_thread: 18 * w,
            flops_per_thread: 198,
            regs_per_thread: if dp { 120 } else { 60 },
            access_bytes: w,
            site_stride: 1,
            double_precision: dp,
        }
    }

    #[test]
    fn large_volume_sustains_near_79_percent() {
        let cfg = DeviceConfig::k20x_ecc_off();
        let t = launch_timing(&cfg, &lcm_shape(28, false), 128).unwrap();
        let frac = t.bandwidth / cfg.peak_bandwidth;
        assert!(
            (0.70..=0.80).contains(&frac),
            "sustained fraction {frac} out of expected range"
        );
    }

    #[test]
    fn bandwidth_rises_with_volume() {
        let cfg = DeviceConfig::k20x_ecc_off();
        let mut prev = 0.0;
        for l in [2usize, 4, 8, 12, 16, 24] {
            let t = launch_timing(&cfg, &lcm_shape(l, false), 128).unwrap();
            assert!(
                t.bandwidth > prev * 0.95,
                "bandwidth not (roughly) monotone at L={l}: {} after {prev}",
                t.bandwidth
            );
            prev = t.bandwidth;
        }
    }

    #[test]
    fn dp_saturates_at_smaller_volume_than_sp() {
        // Find the smallest L where bandwidth exceeds 90% of its L=28 value.
        let cfg = DeviceConfig::k20x_ecc_off();
        let shoulder = |dp: bool| -> usize {
            let asym = launch_timing(&cfg, &lcm_shape(28, dp), 128).unwrap().bandwidth;
            for l in 2..=28 {
                let b = launch_timing(&cfg, &lcm_shape(l, dp), 128).unwrap().bandwidth;
                if b >= 0.9 * asym {
                    return l;
                }
            }
            28
        };
        let sp = shoulder(false);
        let dp = shoulder(true);
        assert!(dp < sp, "DP shoulder {dp} should be below SP shoulder {sp}");
    }

    #[test]
    fn aos_layout_is_much_slower() {
        let cfg = DeviceConfig::k20x_ecc_off();
        let soa = launch_timing(&cfg, &lcm_shape(16, false), 128).unwrap();
        let mut aos_shape = lcm_shape(16, false);
        aos_shape.site_stride = 18;
        let aos = launch_timing(&cfg, &aos_shape, 128).unwrap();
        assert!(
            soa.bandwidth > 5.0 * aos.bandwidth,
            "SoA {} vs AoS {}",
            soa.bandwidth,
            aos.bandwidth
        );
    }

    #[test]
    fn register_pressure_fails_launch_at_max_block() {
        let cfg = DeviceConfig::k20x_ecc_off();
        let mut shape = lcm_shape(16, true);
        shape.regs_per_thread = 120;
        // 120 regs * 1024 threads = 122880 > 65536 → fail, as §VII describes.
        let e = validate_launch(&cfg, &shape, 1024).unwrap_err();
        assert!(matches!(e, LaunchError::OutOfRegisters { .. }));
        // halving once (512 * 120 = 61440) fits
        validate_launch(&cfg, &shape, 512).unwrap();
    }

    #[test]
    fn tiny_blocks_underutilise() {
        let cfg = DeviceConfig::k20x_ecc_off();
        let b128 = launch_timing(&cfg, &lcm_shape(16, false), 128).unwrap();
        let b16 = launch_timing(&cfg, &lcm_shape(16, false), 16).unwrap();
        assert!(
            b128.bandwidth > b16.bandwidth,
            "128-thread blocks should beat 16-thread blocks"
        );
    }

    #[test]
    fn launch_overhead_dominates_tiny_grids() {
        let cfg = DeviceConfig::k20x_ecc_off();
        let t = launch_timing(&cfg, &lcm_shape(2, false), 128).unwrap();
        // 16 sites: launch overhead is most of the time.
        assert!(t.time >= cfg.launch_overhead);
        assert!(t.time < 5e-5, "tiny grid took {}", t.time);
    }

    #[test]
    fn shrinking_traffic_never_reads_as_a_bandwidth_loss() {
        // An optimizer pass that eliminates redundant loads shrinks
        // read_bytes_per_thread. The reported sustained bandwidth must not
        // drop because of it: the fixed launch/ramp costs would otherwise
        // amortise over fewer bytes and turn a strict win into an apparent
        // regression (the dslash opt-on < opt-off artifact).
        let cfg = DeviceConfig::k20x_ecc_off();
        let full = lcm_shape(8, true);
        let mut reduced = full;
        reduced.read_bytes_per_thread = full.read_bytes_per_thread * 3 / 4;
        let t_full = launch_timing(&cfg, &full, 256).unwrap();
        let t_red = launch_timing(&cfg, &reduced, 256).unwrap();
        assert!(t_red.time < t_full.time, "less traffic must be faster");
        assert!(
            t_red.bandwidth >= t_full.bandwidth * (1.0 - 1e-12),
            "reduced-traffic bandwidth {} fell below full-traffic {}",
            t_red.bandwidth,
            t_full.bandwidth
        );
    }

    #[test]
    fn hardware_counters_track_traffic_and_occupancy() {
        let cfg = DeviceConfig::k20x_ecc_off();
        let shape = lcm_shape(16, false);
        let t = launch_timing(&cfg, &shape, 128).unwrap();
        // coalesced SoA: transactions = bytes / 128, rounded up
        let reads = (shape.threads * shape.read_bytes_per_thread) as u64;
        let writes = (shape.threads * shape.write_bytes_per_thread) as u64;
        assert_eq!(t.ld_transactions, reads.div_ceil(128));
        assert_eq!(t.st_transactions, writes.div_ceil(128));
        assert!(t.occupancy > 0.0 && t.occupancy <= 1.0);
        assert!(t.overhead >= cfg.launch_overhead);
        assert!(t.overhead < t.time, "overhead must not swallow the launch");
        // AoS stride inflates transactions by the waste factor
        let mut aos = shape;
        aos.site_stride = 18;
        let ta = launch_timing(&cfg, &aos, 128).unwrap();
        assert!(
            ta.ld_transactions >= 17 * t.ld_transactions,
            "stride-18 loads must multiply transactions (got {} vs {})",
            ta.ld_transactions,
            t.ld_transactions
        );
    }

    #[test]
    fn rejects_bad_configs() {
        let cfg = DeviceConfig::k20x_ecc_off();
        let shape = lcm_shape(4, false);
        assert!(matches!(
            validate_launch(&cfg, &shape, 2048),
            Err(LaunchError::BlockTooLarge { .. })
        ));
        let empty = KernelShape {
            threads: 0,
            ..shape
        };
        assert!(matches!(
            validate_launch(&cfg, &empty, 128),
            Err(LaunchError::EmptyGrid)
        ));
    }

    #[test]
    fn occupancy_limits() {
        let cfg = DeviceConfig::k20x_ecc_off();
        // thread-limited: tiny kernels
        assert_eq!(blocks_per_sm(&cfg, 10, 128), 16); // capped by max blocks
        assert_eq!(blocks_per_sm(&cfg, 10, 256), 8); // 2048/256
        // register-limited
        assert_eq!(blocks_per_sm(&cfg, 64, 256), 4); // 65536/(64*256)=4
    }
}
