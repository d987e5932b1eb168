//! The six workloads and what they share: phase configuration, per-op
//! sampling on both clocks, and before/after snapshots of the public stats
//! structs.
//!
//! A *phase* is one set-up followed by a fixed list of ops. Every op is a
//! deterministic function of `(seed, op index)`; op counts are fixed (never
//! time-boxed), so every count and every simulated-clock number repeats
//! exactly for a given seed. Warm-up ops belong to set-up.

pub mod cg_model;
pub mod cg_solve;
pub mod hmc_gauge;
pub mod jit_cold;
pub mod multirank_hmc;
pub mod serve_mix;

use crate::spans::Recorder;
use qdp_cache::CacheStats;
use qdp_core::prelude::*;
use qdp_gpu_sim::DeviceStats;
use qdp_jit::KernelCacheStats;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One workload's fixed sizing.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Warm-up ops, part of `setup_s`.
    pub warmup: usize,
    /// Set-ups per untraced run, sized so that they take about four seconds
    /// together; `setup_s` combines them part by part (`run::setup_floor_s`).
    pub setup_reps: usize,
    /// Measured ops at the reference run length ([`REFERENCE_SECONDS`]).
    pub ops: usize,
    /// Fewest measured ops a run may be scaled down to.
    pub min_ops: usize,
    /// The one-sentence reason the workload exists.
    pub why: &'static str,
}

/// The run length the per-workload op counts are sized for, on the seed
/// commit with two cores. `--seconds` scales the op count linearly from
/// here; the count stays a pure function of the arguments.
pub const REFERENCE_SECONDS: u64 = 10;

/// All workloads, in reporting order.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    hmc_gauge::SPEC,
    cg_solve::SPEC,
    cg_model::SPEC,
    jit_cold::SPEC,
    serve_mix::SPEC,
    multirank_hmc::SPEC,
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Measured ops for a run of `seconds`.
pub fn ops_for(spec: &WorkloadSpec, seconds: u64) -> usize {
    let scaled = (spec.ops as u64 * seconds.max(1) + REFERENCE_SECONDS / 2) / REFERENCE_SECONDS;
    (scaled as usize).max(spec.min_ops)
}

/// What one phase is asked to do.
pub struct PhaseCfg<'a> {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Warm-up ops (inside set-up).
    pub warmup: usize,
    /// Measured ops; 0 = set-up only.
    pub ops: usize,
    /// Traced phase: benchmark spans on, program telemetry on, and
    /// `hmc_gauge` runs the trajectory decomposed into its public pieces.
    pub traced: bool,
    /// Span store (disabled in untraced phases).
    pub rec: &'a Recorder,
    /// Private directory for stores and checkpoints; removed by the caller.
    pub scratch: &'a Path,
}

impl PhaseCfg<'_> {
    /// The runtime configuration every workload starts from: the defaults,
    /// never the environment, with program telemetry on only when traced.
    pub fn qdp_config(&self) -> QdpConfig {
        let mut cfg = QdpConfig::new();
        cfg.telemetry.profile = self.traced;
        cfg
    }
}

/// What one phase measured.
#[derive(Default)]
pub struct PhaseOut {
    /// Wall seconds of the set-up, part by part: context build + field
    /// generation first, then each warm-up op (the first of which compiles
    /// cold).
    pub setup_parts_s: Vec<f64>,
    /// Host wall time of each measured op, ms.
    pub wall_ms: Vec<f64>,
    /// Simulated critical-path time of each measured op, ms (empty where
    /// the workload has no single simulated timeline).
    pub sim_ms: Vec<f64>,
    /// Ops whose oracle failed.
    pub failed: u64,
    /// Why they failed (first few).
    pub failures: Vec<String>,
    /// Stats-struct deltas across the measured ops.
    pub delta: Option<Delta>,
    /// Workload-specific per-layer metrics, by registry name.
    pub layer: BTreeMap<String, f64>,
    /// Bit patterns of the op results, in op order: the determinism and
    /// decomposition oracles compare these between phases.
    pub history: Vec<u64>,
}

impl PhaseOut {
    /// Record an oracle failure against the op count.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }

    /// Fail unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// Times a set-up part by part, so that repeated set-ups can be combined
/// part by part (`run::setup_floor_s`).
pub struct SetupClock {
    last: Instant,
    parts_s: Vec<f64>,
}

impl SetupClock {
    pub fn start() -> SetupClock {
        SetupClock {
            last: Instant::now(),
            parts_s: Vec::new(),
        }
    }

    /// The part that began at the previous call (or at `start`) ends here.
    pub fn part_done(&mut self) {
        let now = Instant::now();
        self.parts_s.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    pub fn finish(self) -> Vec<f64> {
        self.parts_s
    }
}

/// Times ops on both clocks: host wall time, and the simulated device time
/// that `Device::sync()` (the join of every stream front) advanced by.
pub struct OpClock<'a> {
    rec: &'a Recorder,
    /// Wall ms per op.
    pub wall_ms: Vec<f64>,
    /// Simulated ms per op.
    pub sim_ms: Vec<f64>,
}

impl<'a> OpClock<'a> {
    /// A clock that also opens an `op` span per op on `rec`.
    pub fn new(rec: &'a Recorder, ops: usize) -> OpClock<'a> {
        OpClock {
            rec,
            wall_ms: Vec::with_capacity(ops),
            sim_ms: Vec::with_capacity(ops),
        }
    }

    /// Run op `i` under the clocks. `sim_now` reads the simulated clock.
    pub fn op<T>(&mut self, i: usize, sim_now: impl Fn() -> f64, f: impl FnOnce() -> T) -> T {
        let sim0 = sim_now();
        let span = self.rec.enter_op("op", Some(i));
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed();
        drop(span);
        self.wall_ms.push(wall.as_secs_f64() * 1e3);
        self.sim_ms.push((sim_now() - sim0) * 1e3);
        out
    }
}

/// Cumulative public statistics of one context at one instant.
#[derive(Clone, Default)]
pub struct Snapshot {
    device: DeviceStats,
    cache: CacheStats,
    jit: KernelCacheStats,
    counters: BTreeMap<String, u64>,
    /// Per kernel: (launches, simulated s, overhead s, settled).
    kernels: BTreeMap<String, (u64, f64, f64, bool)>,
}

impl Snapshot {
    /// Read every stats struct of `ctx`.
    pub fn take(ctx: &QdpContext) -> Snapshot {
        let report = ctx.profile_report();
        Snapshot {
            device: ctx.device().stats(),
            cache: ctx.cache().stats(),
            jit: ctx.kernels().stats(),
            kernels: report
                .kernels
                .iter()
                .map(|k| {
                    (
                        k.name.clone(),
                        (k.launches, k.sim_time, k.overhead, k.settled),
                    )
                })
                .collect(),
            counters: report.counters,
        }
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &Snapshot) -> Delta {
        let d = |f: fn(&Snapshot) -> u64| f(self) - f(before);
        let mut kernel_launches = BTreeMap::new();
        let (mut sim, mut overhead) = (0.0, 0.0);
        let (mut settled, mut seen) = (0usize, 0usize);
        for (name, &(launches, t, ovh, is_settled)) in &self.kernels {
            let (l0, t0, o0, _) = before.kernels.get(name).copied().unwrap_or_default();
            if launches > l0 {
                kernel_launches.insert(name.clone(), launches - l0);
                sim += t - t0;
                overhead += ovh - o0;
                seen += 1;
                settled += is_settled as usize;
            }
        }
        Delta {
            launches: d(|s| s.device.launches),
            h2d_bytes: d(|s| s.device.h2d_bytes),
            d2h_bytes: d(|s| s.device.d2h_bytes),
            kernel_sim_s: self.device.kernel_time - before.device.kernel_time,
            transfer_sim_s: self.device.transfer_time - before.device.transfer_time,
            cache_hits: d(|s| s.cache.hits),
            page_ins: d(|s| s.cache.page_ins),
            page_outs: d(|s| s.cache.page_outs),
            spills: d(|s| s.cache.spills),
            jit_hits: d(|s| s.jit.hits),
            jit_misses: d(|s| s.jit.misses),
            persist_hits: d(|s| s.jit.persist_hits),
            modeled_compile_s: self.jit.modeled_compile_time - before.jit.modeled_compile_time,
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v - before.counters.get(k).copied().unwrap_or(0)))
                .filter(|(_, v)| *v > 0)
                .collect(),
            kernel_launches,
            profiled_sim_s: sim,
            profiled_overhead_s: overhead,
            tuner_settled_frac: if seen == 0 {
                0.0
            } else {
                settled as f64 / seen as f64
            },
        }
    }
}

/// Differences of the public stats structs across the measured ops.
#[derive(Clone, Default)]
pub struct Delta {
    pub launches: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub kernel_sim_s: f64,
    pub transfer_sim_s: f64,
    pub cache_hits: u64,
    pub page_ins: u64,
    pub page_outs: u64,
    pub spills: u64,
    pub jit_hits: u64,
    pub jit_misses: u64,
    pub persist_hits: u64,
    pub modeled_compile_s: f64,
    /// Program telemetry counters that moved (traced phases only: the
    /// registry records nothing while telemetry is off).
    pub counters: BTreeMap<String, u64>,
    /// Launches per generated kernel name (traced phases only).
    pub kernel_launches: BTreeMap<String, u64>,
    /// Σ simulated kernel time over the profiled launches.
    pub profiled_sim_s: f64,
    /// Σ fixed launch cost (launch overhead + ramp) over the same launches.
    pub profiled_overhead_s: f64,
    /// Share of the kernels launched whose block size has settled.
    pub tuner_settled_frac: f64,
}

impl Delta {
    /// A telemetry counter's movement (0 when it did not move).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold another context's delta in (multi-context workloads).
    pub fn add(&mut self, o: &Delta) {
        self.launches += o.launches;
        self.h2d_bytes += o.h2d_bytes;
        self.d2h_bytes += o.d2h_bytes;
        self.kernel_sim_s += o.kernel_sim_s;
        self.transfer_sim_s += o.transfer_sim_s;
        self.cache_hits += o.cache_hits;
        self.page_ins += o.page_ins;
        self.page_outs += o.page_outs;
        self.spills += o.spills;
        self.jit_hits += o.jit_hits;
        self.jit_misses += o.jit_misses;
        self.persist_hits += o.persist_hits;
        self.modeled_compile_s += o.modeled_compile_s;
        for (k, v) in &o.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &o.kernel_launches {
            *self.kernel_launches.entry(k.clone()).or_insert(0) += v;
        }
        self.profiled_sim_s += o.profiled_sim_s;
        self.profiled_overhead_s += o.profiled_overhead_s;
        // a share, not a sum: keep the lower one
        self.tuner_settled_frac = self.tuner_settled_frac.min(o.tuner_settled_frac);
    }
}

/// Run one phase of workload `name`.
pub fn run_phase(name: &str, cfg: &PhaseCfg<'_>) -> Result<PhaseOut, String> {
    match name {
        "hmc_gauge" => hmc_gauge::run(cfg),
        "cg_solve" => cg_solve::run(cfg),
        "cg_model" => cg_model::run(cfg),
        "jit_cold" => jit_cold::run(cfg),
        "serve_mix" => serve_mix::run(cfg),
        "multirank_hmc" => multirank_hmc::run(cfg),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// `e` as text, for phase errors.
pub fn core_err(e: CoreError) -> String {
    format!("{e}")
}
