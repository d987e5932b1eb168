//! End-of-run profile report: a typed snapshot of the registry plus a
//! human-readable table (`Display`), in the spirit of the per-kernel
//! time/bandwidth breakdowns of the companion papers.

use std::collections::BTreeMap;
use std::fmt;

/// One row of the per-kernel table.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Mangled kernel name (`qdp_<hash>`).
    pub name: String,
    /// Successful launches.
    pub launches: u64,
    /// Launches made while the auto-tuner was still probing.
    pub trial_launches: u64,
    /// Failed launch attempts (resource exhaustion → block halving).
    pub launch_failures: u64,
    /// Block size of the most recent launch (the tuned size once settled).
    pub block_size: u32,
    /// Had the tuner settled by the last launch?
    pub settled: bool,
    /// Total simulated device time, seconds.
    pub sim_time: f64,
    /// Total bytes moved by this kernel (model estimate).
    pub bytes: u64,
    /// Total bytes read from global memory.
    pub read_bytes: u64,
    /// Total bytes written to global memory.
    pub write_bytes: u64,
    /// Total floating-point operations (model estimate).
    pub flops: u64,
    /// Total 128-byte global load transactions (hardware-counter model;
    /// includes the coalescing penalty for strided access).
    pub ld_transactions: u64,
    /// Total 128-byte global store transactions.
    pub st_transactions: u64,
    /// Occupancy of the most recent launch (resident / max resident).
    pub occupancy: f64,
    /// Total grid waves (SM passes) across launches.
    pub waves: u64,
    /// Total fixed launch cost (launch overhead + pipeline ramp), seconds.
    pub overhead: f64,
    /// Did the kernel run in double precision (most recent launch)?
    pub double_precision: bool,
    /// Achieved bandwidth over all launches, bytes/second of simulated time.
    pub bandwidth: f64,
    /// Kernel-cache hits for this kernel.
    pub jit_hits: u64,
    /// Kernel-cache misses (actual translations).
    pub jit_misses: u64,
    /// Wall-clock seconds spent translating this kernel (persist hits
    /// included).
    pub wall_compile_time: f64,
    /// Modelled (simulated nvcc/ptxas) translation seconds.
    pub modeled_compile_time: f64,
    /// Persistent-store hits (lowered with no modelled translation cost).
    pub persist_hits: u64,
    /// Was the tuned block size seeded from the persistent store?
    pub tuner_seeded: bool,
}

impl KernelRow {
    /// Simulated time in the streaming phase (total minus fixed launch
    /// costs) — the denominator of the paper's bandwidth plots.
    pub fn stream_time(&self) -> f64 {
        (self.sim_time - self.overhead).max(0.0)
    }

    /// Streaming-phase bandwidth, bytes/second: launch overhead and ramp
    /// excluded, comparable against the device's sustained peak.
    pub fn stream_bandwidth(&self) -> f64 {
        let t = self.stream_time();
        if t > 0.0 {
            self.bytes as f64 / t
        } else {
            0.0
        }
    }

    /// Share of simulated time lost to fixed launch costs, in [0, 1].
    pub fn overhead_share(&self) -> f64 {
        if self.sim_time > 0.0 {
            (self.overhead / self.sim_time).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Aggregate JIT-cache summary across all kernels.
#[derive(Debug, Clone, Default)]
pub struct JitSummary {
    /// Number of distinct kernels that were actually translated.
    pub distinct_kernels: u64,
    /// Total cache hits.
    pub hits: u64,
    /// Total cache misses.
    pub misses: u64,
    /// Failed translations (see `jit.compile_errors` counter too).
    pub compile_errors: u64,
    /// Total wall-clock translation seconds.
    pub wall_compile_time: f64,
    /// Total modelled translation seconds.
    pub modeled_compile_time: f64,
}

impl JitSummary {
    /// Hit ratio in [0, 1]; 0 when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, Copy)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median estimate (log-bucketed, ~12% relative error; exact for
    /// single-sample and constant series).
    pub p50: f64,
    /// 99th-percentile estimate (same bucketing).
    pub p99: f64,
}

impl HistSnapshot {
    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One aggregated span row (`cat/name`).
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// `cat/name` key.
    pub key: String,
    /// Times the span was entered.
    pub count: u64,
    /// Total wall seconds.
    pub wall: f64,
    /// Total simulated seconds (0 if the span never attached a sim clock).
    pub sim: f64,
}

/// Structured snapshot of everything the registry has recorded.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Per-kernel rows, sorted by descending simulated time.
    pub kernels: Vec<KernelRow>,
    /// JIT-cache aggregate.
    pub jit: JitSummary,
    /// All counters.
    pub counters: BTreeMap<String, u64>,
    /// All gauges.
    pub gauges: BTreeMap<String, f64>,
    /// All histograms.
    pub hists: BTreeMap<String, HistSnapshot>,
    /// Aggregated spans, sorted by key.
    pub spans: Vec<SpanRow>,
    /// Buffered trace events at snapshot time.
    pub trace_events: usize,
    /// Events dropped because the buffer cap was reached.
    pub dropped_events: u64,
}

impl ProfileReport {
    /// Row for `name`, if that kernel was seen.
    pub fn kernel(&self, name: &str) -> Option<&KernelRow> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Counter value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Span row for `key` (`cat/name`).
    pub fn span(&self, key: &str) -> Option<&SpanRow> {
        self.spans.iter().find(|s| s.key == key)
    }
}

fn eng(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e-3 && v.abs() < 1e4 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

fn bytes_h(b: u64) -> String {
    let b = b as f64;
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2} kB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== QDP profile report ====================================================="
        )?;
        writeln!(
            f,
            "JIT cache: {} distinct kernels, {} hits / {} misses ({:.1}% hit ratio), {} compile errors",
            self.jit.distinct_kernels,
            self.jit.hits,
            self.jit.misses,
            self.jit.hit_ratio() * 100.0,
            self.jit.compile_errors,
        )?;
        writeln!(
            f,
            "           wall compile {} s, modelled compile {} s",
            eng(self.jit.wall_compile_time),
            eng(self.jit.modeled_compile_time),
        )?;
        if !self.kernels.is_empty() {
            writeln!(
                f,
                "{:<26} {:>8} {:>6} {:>5} {:>6} {:>7} {:>11} {:>11} {:>8} {:>5} {:>5} {:>5} {:>5}",
                "kernel", "launches", "trial", "fail", "block", "settled", "sim time s", "bytes",
                "GB/s", "occ", "ovh%", "phit", "seed"
            )?;
            for k in &self.kernels {
                writeln!(
                    f,
                    "{:<26} {:>8} {:>6} {:>5} {:>6} {:>7} {:>11} {:>11} {:>8.1} {:>5.2} {:>5.1} {:>5} {:>5}",
                    k.name,
                    k.launches,
                    k.trial_launches,
                    k.launch_failures,
                    k.block_size,
                    if k.settled { "yes" } else { "no" },
                    eng(k.sim_time),
                    bytes_h(k.bytes),
                    k.bandwidth / 1e9,
                    k.occupancy,
                    k.overhead_share() * 100.0,
                    k.persist_hits,
                    if k.tuner_seeded { "yes" } else { "no" },
                )?;
            }
        }
        if !self.counters.is_empty() {
            writeln!(f, "--- counters ---")?;
            for (name, v) in &self.counters {
                writeln!(f, "{name:<40} {v}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "--- gauges ---")?;
            for (name, v) in &self.gauges {
                writeln!(f, "{:<40} {}", name, eng(*v))?;
            }
        }
        if !self.hists.is_empty() {
            writeln!(f, "--- histograms (count / mean / p50 / p99 / min / max) ---")?;
            for (name, h) in &self.hists {
                writeln!(
                    f,
                    "{:<40} {:>7} {:>11} {:>11} {:>11} {:>11} {:>11}",
                    name,
                    h.count,
                    eng(h.mean()),
                    eng(h.p50),
                    eng(h.p99),
                    eng(if h.count == 0 { 0.0 } else { h.min }),
                    eng(if h.count == 0 { 0.0 } else { h.max }),
                )?;
            }
        }
        if !self.spans.is_empty() {
            writeln!(f, "--- spans (count / wall s / sim s) ---")?;
            for s in &self.spans {
                writeln!(
                    f,
                    "{:<40} {:>7} {:>11} {:>11}",
                    s.key,
                    s.count,
                    eng(s.wall),
                    eng(s.sim),
                )?;
            }
        }
        if self.dropped_events > 0 {
            writeln!(
                f,
                "WARNING: {} trace events dropped (buffer cap)",
                self.dropped_events
            )?;
        }
        write!(
            f,
            "==========================================================================="
        )
    }
}

pub(crate) fn build(inner: &crate::Inner) -> ProfileReport {
    let mut jit = JitSummary::default();
    let mut kernels: Vec<KernelRow> = inner
        .kernels
        .iter()
        .map(|(name, k)| {
            jit.hits += k.jit_hits;
            jit.misses += k.jit_misses;
            if k.jit_misses > 0 {
                jit.distinct_kernels += 1;
            }
            jit.wall_compile_time += k.wall_compile_time;
            jit.modeled_compile_time += k.modeled_compile_time;
            KernelRow {
                name: name.clone(),
                launches: k.launches,
                trial_launches: k.trial_launches,
                launch_failures: k.launch_failures,
                block_size: k.block_size,
                settled: k.settled,
                sim_time: k.sim_time,
                bytes: k.bytes,
                read_bytes: k.read_bytes,
                write_bytes: k.write_bytes,
                flops: k.flops,
                ld_transactions: k.ld_transactions,
                st_transactions: k.st_transactions,
                occupancy: k.occupancy,
                waves: k.waves,
                overhead: k.overhead,
                double_precision: k.double_precision,
                bandwidth: if k.sim_time > 0.0 {
                    k.bytes as f64 / k.sim_time
                } else {
                    0.0
                },
                jit_hits: k.jit_hits,
                jit_misses: k.jit_misses,
                wall_compile_time: k.wall_compile_time,
                modeled_compile_time: k.modeled_compile_time,
                persist_hits: k.persist_hits,
                tuner_seeded: k.tuner_seeded,
            }
        })
        .collect();
    kernels.sort_by(|a, b| b.sim_time.total_cmp(&a.sim_time));
    jit.compile_errors = inner
        .counters
        .get("jit.compile_errors")
        .copied()
        .unwrap_or(0);
    ProfileReport {
        kernels,
        jit,
        counters: inner.counters.clone(),
        gauges: inner.gauges.clone(),
        hists: inner
            .hists
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    HistSnapshot {
                        count: h.count,
                        sum: h.sum,
                        min: h.min,
                        max: h.max,
                        p50: h.quantile(0.50),
                        p99: h.quantile(0.99),
                    },
                )
            })
            .collect(),
        spans: inner
            .spans
            .iter()
            .map(|(key, s)| SpanRow {
                key: key.clone(),
                count: s.count,
                wall: s.wall,
                sim: s.sim,
            })
            .collect(),
        trace_events: inner.events.len(),
        dropped_events: inner.dropped_events,
    }
}

#[cfg(test)]
mod tests {
    use crate::{LaunchRecord, Telemetry};

    #[test]
    fn display_renders_all_sections() {
        let t = Telemetry::new();
        t.enable();
        t.record_compile("qdp_abc", false, 1e-3, 0.2);
        t.record_launch_full(&LaunchRecord {
            kernel: "qdp_abc",
            block: 256,
            settled: true,
            sim_dur: 2e-3,
            read_bytes: 1_000_000,
            flops: 10,
            ..Default::default()
        });
        t.count("cache.spill_bytes", 4096);
        t.gauge("device.mem_used", 1e6);
        t.observe("comm.send_s", 2e-6);
        {
            let _s = t.span("hmc", "trajectory");
        }
        let text = t.profile_report().to_string();
        assert!(text.contains("QDP profile report"));
        assert!(text.contains("qdp_abc"));
        assert!(text.contains("hit ratio"));
        assert!(text.contains("cache.spill_bytes"));
        assert!(text.contains("device.mem_used"));
        assert!(text.contains("comm.send_s"));
        assert!(text.contains("hmc/trajectory"));
    }
}
