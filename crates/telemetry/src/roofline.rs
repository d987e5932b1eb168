//! Roofline analyzer (`QDP_PROFILE=1`): classifies every profiled kernel
//! as memory- or compute-bound and reports attained-vs-peak bandwidth and
//! FLOP rate, in the style of the paper's per-kernel bandwidth plots
//! (arXiv:1408.5925, Figs. 4–6).
//!
//! The roofline model bounds a kernel's attainable FLOP rate by
//! `min(peak_flops, AI * peak_bandwidth)` where `AI = flops / bytes` is the
//! arithmetic intensity. A kernel sits left of the ridge point
//! (`AI < peak_flops / peak_bandwidth`) when memory traffic, not the ALUs,
//! limits it. The Wilson dslash moves ~0.9 flop per byte in single
//! precision — far left of the K20x ridge (~15.8 flop/byte) — which is why
//! the paper's bandwidth plot plateaus at the sustained fraction of peak
//! (~79% with ECC off) rather than at the FLOP roof.
//!
//! Attained rates use the *streaming-phase* time (fixed launch overhead and
//! pipeline ramp excluded, [`KernelRow::stream_bandwidth`]) so the
//! large-volume plateau is visible even for kernels that were also launched
//! on small probe grids.

use crate::report::{KernelRow, ProfileReport};
use std::fmt;

/// Device peak rates the roofline is drawn against. Produced by the
/// device layer (`DeviceConfig::peaks()` in `qdp-gpu-sim`) — this crate
/// sits below it in the workspace graph, so the struct lives here.
#[derive(Debug, Clone)]
pub struct DevicePeaks {
    /// Device display name.
    pub name: String,
    /// Peak global-memory bandwidth, bytes/second.
    pub peak_bandwidth: f64,
    /// Peak single-precision FLOP rate, flops/second.
    pub peak_flops_sp: f64,
    /// Peak double-precision FLOP rate, flops/second.
    pub peak_flops_dp: f64,
    /// Sustained fraction of peak bandwidth a streaming kernel can reach
    /// (the paper's ~0.79 for the K20x with ECC off).
    pub sustained_fraction: f64,
}

impl DevicePeaks {
    /// Ridge-point arithmetic intensity, flops/byte: kernels below it are
    /// memory-bound.
    pub fn ridge(&self, double_precision: bool) -> f64 {
        self.peak_flops(double_precision) / self.peak_bandwidth
    }

    /// Peak FLOP rate for the given precision.
    pub fn peak_flops(&self, double_precision: bool) -> f64 {
        if double_precision {
            self.peak_flops_dp
        } else {
            self.peak_flops_sp
        }
    }
}

/// Roofline classification of one kernel.
#[derive(Debug, Clone)]
pub struct RooflineRow {
    /// Kernel name.
    pub name: String,
    /// Arithmetic intensity, flops/byte.
    pub intensity: f64,
    /// Ridge-point intensity for this kernel's precision, flops/byte.
    pub ridge: f64,
    /// Is the kernel left of the ridge (bandwidth-limited)?
    pub memory_bound: bool,
    /// Double precision?
    pub double_precision: bool,
    /// Attained streaming-phase bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Attained bandwidth as a fraction of *peak* (not sustained) bandwidth.
    pub frac_peak_bandwidth: f64,
    /// Attained FLOP rate, flops/second (streaming phase).
    pub flops_rate: f64,
    /// Attained FLOP rate as a fraction of the precision's peak.
    pub frac_peak_flops: f64,
    /// Share of simulated time lost to fixed launch costs.
    pub overhead_share: f64,
    /// Occupancy of the most recent launch.
    pub occupancy: f64,
}

impl RooflineRow {
    fn build(k: &KernelRow, peaks: &DevicePeaks) -> RooflineRow {
        let intensity = if k.bytes > 0 {
            k.flops as f64 / k.bytes as f64
        } else {
            f64::INFINITY
        };
        let ridge = peaks.ridge(k.double_precision);
        let bandwidth = k.stream_bandwidth();
        let t = k.stream_time();
        let flops_rate = if t > 0.0 { k.flops as f64 / t } else { 0.0 };
        RooflineRow {
            name: k.name.clone(),
            intensity,
            ridge,
            memory_bound: intensity < ridge,
            double_precision: k.double_precision,
            bandwidth,
            frac_peak_bandwidth: bandwidth / peaks.peak_bandwidth,
            flops_rate,
            frac_peak_flops: flops_rate / peaks.peak_flops(k.double_precision),
            overhead_share: k.overhead_share(),
            occupancy: k.occupancy,
        }
    }
}

/// Roofline report over every profiled kernel, sorted like the profile
/// table (descending simulated time).
#[derive(Debug, Clone)]
pub struct RooflineReport {
    /// Peaks the classification was drawn against.
    pub device: DevicePeaks,
    /// Per-kernel classification rows.
    pub rows: Vec<RooflineRow>,
}

impl RooflineReport {
    /// Classify every kernel in `report` against `peaks`. Kernels that
    /// never moved bytes or flops (pure bookkeeping) are skipped.
    pub fn build(report: &ProfileReport, peaks: &DevicePeaks) -> RooflineReport {
        RooflineReport {
            rows: report
                .kernels
                .iter()
                .filter(|k| k.bytes > 0 || k.flops > 0)
                .map(|k| RooflineRow::build(k, peaks))
                .collect(),
            device: peaks.clone(),
        }
    }

    /// Row for `name`, if that kernel was classified.
    pub fn row(&self, name: &str) -> Option<&RooflineRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

impl fmt::Display for RooflineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== QDP roofline ({}: {:.0} GB/s peak, {:.2}/{:.2} TF sp/dp, ridge {:.1}/{:.1} f/B) ===",
            self.device.name,
            self.device.peak_bandwidth / 1e9,
            self.device.peak_flops_sp / 1e12,
            self.device.peak_flops_dp / 1e12,
            self.device.ridge(false),
            self.device.ridge(true),
        )?;
        writeln!(
            f,
            "{:<26} {:>4} {:>9} {:>13} {:>8} {:>7} {:>9} {:>7} {:>5} {:>5}",
            "kernel", "prec", "AI f/B", "bound", "GB/s", "%peak", "GF/s", "%peak", "occ", "ovh%"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<26} {:>4} {:>9.3} {:>13} {:>8.1} {:>6.1}% {:>9.1} {:>6.1}% {:>5.2} {:>5.1}",
                r.name,
                if r.double_precision { "dp" } else { "sp" },
                r.intensity,
                if r.memory_bound { "memory-bound" } else { "compute-bound" },
                r.bandwidth / 1e9,
                r.frac_peak_bandwidth * 100.0,
                r.flops_rate / 1e9,
                r.frac_peak_flops * 100.0,
                r.occupancy,
                r.overhead_share * 100.0,
            )?;
        }
        write!(
            f,
            "==========================================================================="
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LaunchRecord, Telemetry};

    fn k20x_peaks() -> DevicePeaks {
        DevicePeaks {
            name: "K20x (ECC off)".to_string(),
            peak_bandwidth: 250e9,
            peak_flops_sp: 3.95e12,
            peak_flops_dp: 1.31e12,
            sustained_fraction: 0.79,
        }
    }

    #[test]
    fn ridge_separates_memory_and_compute_bound() {
        let peaks = k20x_peaks();
        let t = Telemetry::new();
        t.enable();
        // dslash-shaped: ~0.9 flop/byte in sp, streams at 79% of peak.
        t.record_launch_full(&LaunchRecord {
            kernel: "dslash",
            block: 128,
            trial: false,
            settled: true,
            sim_t0: 0.0,
            sim_dur: 1.05e-3,
            read_bytes: 180_000_000,
            write_bytes: 17_500_000,
            flops: 177_750_000,
            stream: 0,
            ld_transactions: 1_406_250,
            st_transactions: 136_718,
            occupancy: 1.0,
            waves: 4,
            overhead: 0.05e-3,
            double_precision: false,
        });
        // compute-heavy: 40 flop/byte in dp — right of the dp ridge (5.2).
        t.record_launch_full(&LaunchRecord {
            kernel: "chain_mul",
            block: 128,
            trial: false,
            settled: true,
            sim_t0: 0.0,
            sim_dur: 1.0e-3,
            read_bytes: 1_000_000,
            write_bytes: 0,
            flops: 40_000_000,
            stream: 0,
            ld_transactions: 7_812,
            st_transactions: 0,
            occupancy: 1.0,
            waves: 1,
            overhead: 0.0,
            double_precision: true,
        });
        let rl = RooflineReport::build(&t.profile_report(), &peaks);
        let d = rl.row("dslash").unwrap();
        assert!(d.memory_bound, "dslash must be memory-bound");
        assert!(!d.double_precision);
        assert!((d.intensity - 0.9).abs() < 0.01);
        // streaming bandwidth: 197.5 MB / 1.0 ms = 197.5 GB/s = 79% of peak
        assert!((d.frac_peak_bandwidth - 0.79).abs() < 0.005);
        let c = rl.row("chain_mul").unwrap();
        assert!(!c.memory_bound, "chain_mul must be compute-bound");
        assert!(c.intensity > c.ridge);
        let text = rl.to_string();
        assert!(text.contains("memory-bound"));
        assert!(text.contains("compute-bound"));
        assert!(text.contains("ridge"));
    }
}
