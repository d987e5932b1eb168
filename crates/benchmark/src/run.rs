//! One benchmark process: parse the arguments, run the untraced or the
//! traced variant of one workload, assemble the metrics.

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::probes;
use crate::report::RunResult;
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{self, Delta, PhaseCfg, PhaseOut};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Command-line arguments of a run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Run length the op count is scaled for.
    pub seconds: u64,
    pub trace: bool,
    /// Where the report file goes (default `<out_dir>/report-…json`).
    pub report: Option<PathBuf>,
    /// Where the spans file goes (default `<out_dir>/spans-<workload>.json`).
    pub spans: Option<PathBuf>,
    /// Directory for everything the benchmark writes.
    pub out_dir: PathBuf,
    /// Measured op count of the in-process self-tests. The command line
    /// cannot set it: there the count is a pure function of `--seconds`.
    pub ops: Option<usize>,
    /// Warm-up op count of the in-process self-tests.
    pub warmup: Option<usize>,
    /// Set-up repetitions of the in-process self-tests.
    pub setup_reps: Option<usize>,
}

impl Args {
    /// Defaults for `workload`.
    pub fn new(workload: &str) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 1,
            seconds: workloads::REFERENCE_SECONDS,
            trace: false,
            report: None,
            spans: None,
            out_dir: PathBuf::from(".bench_out"),
            ops: None,
            warmup: None,
            setup_reps: None,
        }
    }
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload as `args` say.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let spec = workloads::spec(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let ops = args
        .ops
        .unwrap_or_else(|| workloads::ops_for(&spec, args.seconds));
    let warmup = args.warmup.unwrap_or(spec.warmup);
    let scratch = Scratch(
        args.out_dir
            .join(format!("{}-{}", spec.name, std::process::id())),
    );
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;

    let mut result = if args.trace {
        traced(args, warmup, ops, &scratch.0)?
    } else {
        let setup_reps = args.setup_reps.unwrap_or(spec.setup_reps);
        untraced(args, setup_reps, warmup, ops, &scratch.0)?
    };
    result.workload = spec.name.to_string();
    result.seed = args.seed;
    result.traced = args.trace;
    result.correct = result.failed == 0;
    result.notes.push(format!(
        "ops {ops} (warm-up {warmup}), fixed by --seconds {}; available_parallelism {}",
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    if spec.name == "serve_mix" {
        result.notes.push(
            "closed loop, one client thread, 4 jobs outstanding on 2 workers; no rate sweep".into(),
        );
    }

    let report = args.report.clone().unwrap_or_else(|| {
        args.out_dir.join(format!(
            "report-{}-seed{}-trace{}.json",
            spec.name, args.seed, args.trace as u8
        ))
    });
    std::fs::write(&report, result.report_json())
        .map_err(|e| format!("{}: {e}", report.display()))?;
    Ok(result)
}

fn phase_failures(result: &mut RunResult, phase: &PhaseOut) {
    result.failed += phase.failed;
    result.notes.extend(phase.failures.iter().cloned());
}

/// The wall-clock statistics every run reports beside the gated minimum.
fn wall_stats(wall_ms: &[f64]) -> BTreeMap<&'static str, f64> {
    let (pct, tail) = stats::tail(wall_ms);
    let total_s: f64 = wall_ms.iter().sum::<f64>() / 1e3;
    BTreeMap::from([
        ("wall.op_ms_p10", stats::p10(wall_ms)),
        ("wall.op_ms_p50", stats::p50(wall_ms)),
        ("wall.op_ms_tail", tail),
        ("wall.tail_pct", pct),
        ("wall.ops", wall_ms.len() as f64),
        (
            "wall.ops_per_s",
            if total_s > 0.0 {
                wall_ms.len() as f64 / total_s
            } else {
                0.0
            },
        ),
        ("wall.cv", stats::cv(wall_ms)),
    ])
}

/// `setup_s` of repeated set-ups: every part of the set-up (the bring-up,
/// then each warm-up op) at its fastest over the repetitions, summed. For the
/// reason `wall_op_ms_min` is the fastest op — interference only adds time —
/// and part by part because a whole set-up of several ops in a row is
/// rarely undisturbed from end to end (README "Noise study").
pub fn setup_floor_s(reps: &[Vec<f64>]) -> f64 {
    let parts = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..parts)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// End-to-end metrics: tracing off, program telemetry off.
fn untraced(
    args: &Args,
    setup_reps: usize,
    warmup: usize,
    ops: usize,
    scratch: &Path,
) -> Result<RunResult, String> {
    let rec = Recorder::new(false);
    let cfg = |ops: usize| PhaseCfg {
        seed: args.seed,
        warmup,
        ops,
        traced: false,
        rec: &rec,
        scratch,
    };
    let mut setups = Vec::with_capacity(setup_reps);
    for _ in 1..setup_reps {
        setups.push(workloads::run_phase(&args.workload, &cfg(0))?.setup_parts_s);
    }
    let phase = workloads::run_phase(&args.workload, &cfg(ops))?;
    setups.push(phase.setup_parts_s.clone());
    let whole: Vec<f64> = setups.iter().map(|parts| parts.iter().sum()).collect();

    let mut result = RunResult {
        attempted: ops as u64,
        ..RunResult::default()
    };
    phase_failures(&mut result, &phase);
    result.put(
        "wall_op_ms_min",
        stats::percentile(&phase.wall_ms, 0.0),
        "ms",
    );
    result.put("setup_s", setup_floor_s(&setups), "s");
    result.put("peak_rss_mb", peak_rss_mb(), "MB");
    debug_assert_eq!(result.metrics.len(), END_TO_END.len());

    // for the report file: the simulated clock and the ungated wall stats
    let mut extra = wall_stats(&phase.wall_ms);
    extra.insert("sim.op_ms", stats::mean(&phase.sim_ms));
    for (name, value) in extra {
        let unit = metrics::per_layer(name).map_or("", |p| p.unit);
        result.put_extra(name, value, unit);
    }
    // kept for the noise study: the statistics the minima were chosen against
    result.put_extra("setup.s_min", stats::percentile(&whole, 0.0), "s");
    result.put_extra("setup.s_p50", stats::p50(&whole), "s");
    result.put_extra(
        "wall.op_ms_p05",
        stats::percentile(&phase.wall_ms, 0.05),
        "ms",
    );
    result.put_extra(
        "wall.op_ms_p25",
        stats::percentile(&phase.wall_ms, 0.25),
        "ms",
    );
    Ok(result)
}

/// Per-op counts every workload with a context reports, from the deltas of
/// the public stats structs.
fn count_metrics(delta: &Delta, ops: f64, out: &mut BTreeMap<String, f64>) {
    let per_op = |v: f64| v / ops;
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    put("gpusim.launches_per_op", per_op(delta.launches as f64));
    put(
        "gpusim.kernel_sim_ms_per_op",
        per_op(delta.kernel_sim_s * 1e3),
    );
    put(
        "gpusim.transfer_sim_ms_per_op",
        per_op(delta.transfer_sim_s * 1e3),
    );
    put(
        "gpusim.h2d_kb_per_op",
        per_op(delta.h2d_bytes as f64 / 1024.0),
    );
    put(
        "gpusim.d2h_kb_per_op",
        per_op(delta.d2h_bytes as f64 / 1024.0),
    );
    put(
        "gpusim.launch_overhead_frac",
        if delta.profiled_sim_s > 0.0 {
            delta.profiled_overhead_s / delta.profiled_sim_s
        } else {
            0.0
        },
    );
    put(
        "gpusim.stream_syncs_per_op",
        per_op(delta.counter("stream.syncs") as f64),
    );
    put("cache.hits_per_op", per_op(delta.cache_hits as f64));
    put("cache.page_ins_per_op", per_op(delta.page_ins as f64));
    put("cache.page_outs_per_op", per_op(delta.page_outs as f64));
    put("cache.spills_per_op", per_op(delta.spills as f64));
    put(
        "cache.page_in_kb_per_op",
        per_op(delta.counter("cache.page_in_bytes") as f64 / 1024.0),
    );
    let touches = (delta.cache_hits + delta.page_ins) as f64;
    put(
        "cache.hit_ratio",
        if touches > 0.0 {
            delta.cache_hits as f64 / touches
        } else {
            0.0
        },
    );
    put("jit.cache_hits_per_op", per_op(delta.jit_hits as f64));
    put("jit.cache_misses_per_op", per_op(delta.jit_misses as f64));
    put("jit.persist_hits_per_op", per_op(delta.persist_hits as f64));
    put("jit.kernels_distinct", delta.kernel_launches.len() as f64);
    put("jit.tuner_settled_frac", delta.tuner_settled_frac);
    put(
        "core.fuse_groups_per_op",
        per_op(delta.counter("fuse.groups") as f64),
    );
    put(
        "core.fuse_launches_saved_per_op",
        per_op(delta.counter("fuse.launches_saved") as f64),
    );
    put(
        "core.fuse_bailouts_per_op",
        per_op(delta.counter("fuse.bailouts") as f64),
    );
    put(
        "comm.msgs_per_op",
        per_op(delta.counter("comm.sends") as f64),
    );
    put(
        "comm.kb_per_op",
        per_op(delta.counter("comm.send_bytes") as f64 / 1024.0),
    );
    put(
        "comm.allreduces_per_op",
        per_op(delta.counter("comm.allreduces") as f64),
    );
}

/// Per-layer metrics: benchmark spans on, program telemetry on.
fn traced(args: &Args, warmup: usize, ops: usize, scratch: &Path) -> Result<RunResult, String> {
    let silent = Recorder::new(false);
    let rec = Recorder::new(true);
    let run_span = rec.enter("run");

    // an untraced reference over the first third of the op list: the
    // baseline of telemetry.overhead_frac, and the history the traced ops
    // must reproduce bit for bit
    let ref_ops = ops.div_ceil(3);
    let traced_ops = ops - ref_ops;
    let cfg = |ops: usize, traced: bool, rec| PhaseCfg {
        seed: args.seed,
        warmup,
        ops,
        traced,
        rec,
        scratch,
    };
    let reference = workloads::run_phase(&args.workload, &cfg(ref_ops, false, &silent))?;
    let cfg = cfg(traced_ops, true, &rec);
    let phase = workloads::run_phase(&args.workload, &cfg)?;
    // counted before the probes: their repetition counts follow a time budget
    let spans_of_ops = rec.len();
    let probed = rec.time("probes", || {
        probes::run_probes(&args.workload, &cfg, &phase)
    })?;
    drop(run_span);

    let mut result = RunResult {
        attempted: traced_ops as u64,
        ..RunResult::default()
    };
    phase_failures(&mut result, &reference);
    phase_failures(&mut result, &phase);
    let common = reference.history.len().min(phase.history.len());
    if reference.history[..common] != phase.history[..common] {
        result.failed += 1;
        result
            .notes
            .push("traced ops did not reproduce the untraced ops' results bit for bit".into());
    }

    let n = traced_ops as f64;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if let Some(delta) = &phase.delta {
        count_metrics(delta, n, &mut values);
    }
    for (name, v) in wall_stats(&phase.wall_ms) {
        values.insert(name.to_string(), v);
    }
    values.insert("sim.op_ms".into(), stats::mean(&phase.sim_ms));
    let (p10_traced, p10_ref) = (stats::p10(&phase.wall_ms), stats::p10(&reference.wall_ms));
    values.insert(
        "telemetry.overhead_frac".into(),
        if p10_ref > 0.0 {
            p10_traced / p10_ref - 1.0
        } else {
            0.0
        },
    );
    // sub-op spans, as mean ms per measured op
    for (span, metric) in [
        ("hmc.refresh", "hmc.refresh_ms"),
        ("hmc.energy", "hmc.energy_ms"),
        ("hmc.force", "hmc.force_ms"),
        ("hmc.update_links", "hmc.update_links_ms"),
        ("hmc.axpy", "hmc.axpy_ms"),
        ("hmc.backup", "hmc.backup_ms"),
        ("hmc.reunit", "hmc.reunit_ms"),
        ("hmc.plaquette", "hmc.plaquette_ms"),
        ("checkpoint.save", "checkpoint.save_ms"),
    ] {
        values.insert(metric.to_string(), rec.op_total_us(span) / 1e3 / n);
    }
    values.extend(phase.layer.clone());
    values.extend(probed.metrics);
    values.insert("telemetry.spans_recorded".into(), spans_of_ops as f64);

    for p in PER_LAYER {
        let measured = p.on.contains(&args.workload.as_str());
        let v = if measured {
            values.get(p.name).copied().unwrap_or(0.0)
        } else {
            0.0
        };
        result.put(p.name, v, p.unit);
    }
    result.put_extra("wall.op_ms_p10.untraced_reference", p10_ref, "ms");

    let spans = args
        .spans
        .clone()
        .unwrap_or_else(|| args.out_dir.join(format!("spans-{}.json", args.workload)));
    rec.write_json(
        &spans,
        &[
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
        ],
    )
    .map_err(|e| format!("{}: {e}", spans.display()))?;
    result
        .notes
        .push(format!("spans written to {}", spans.display()));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_floor_takes_each_part_at_its_fastest() {
        // bring-up fastest in the second set-up, the warm-up op in the first
        let reps = [vec![0.30, 0.10], vec![0.20, 0.15], vec![0.25, 0.40]];
        assert!((setup_floor_s(&reps) - 0.30).abs() < 1e-15);
        // never slower than the fastest whole set-up
        assert!(setup_floor_s(&reps) <= 0.35);
        assert_eq!(setup_floor_s(&[]), 0.0);
    }
}
