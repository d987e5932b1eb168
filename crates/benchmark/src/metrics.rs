//! The metric registry: every name the benchmark prints, with its unit,
//! direction, bound and the workloads that measure it. `BENCHMARK.json` is
//! written from this file (`qdp-benchmark describe`) and a unit test holds
//! it to it. What each metric means, and which end-to-end number a per-layer
//! metric is predicted to move, is in `README.md`.
//!
//! Naming rule: `wall*` is host time, `sim*` (and everything called
//! `*_sim_*`) is the simulated device/link model. The two are never mixed
//! in one number.

/// Workload short codes used in the `on` lists below.
pub const H: &str = "hmc_gauge";
pub const S: &str = "cg_solve";
pub const M: &str = "cg_model";
pub const J: &str = "jit_cold";
pub const V: &str = "serve_mix";
pub const R: &str = "multirank_hmc";
/// Every workload.
pub const ALL: &[&str] = &[H, S, M, J, V, R];

/// An end-to-end metric: what a user of the system sees. Printed by the
/// untraced run, on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_op_ms_min",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: printed by the traced run. `on` lists the workloads
/// that measure it; everywhere else it is printed as 0 (the contract wants
/// every traced run to print every per-layer name).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub on: &'static [&'static str],
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        on,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // the simulated clock, end to end
    m("sim.op_ms", "sim_ms", "lower", ALL),
    // expr
    m("expr.build_us", "us", "lower", &[M]),
    m("expr.key_us", "us", "lower", &[M]),
    // core
    m("core.plan_us", "us", "lower", &[M]),
    m("core.render_us", "us", "lower", &[J]),
    m("core.ptx_bytes", "B", "lower", &[J]),
    m("core.host_us_per_launch", "us", "lower", &[H, S, M]),
    m("core.reduce_ms", "ms", "lower", &[S]),
    m("core.fuse_groups_per_op", "count", "higher", ALL),
    m("core.fuse_launches_saved_per_op", "count", "higher", ALL),
    m("core.fuse_bailouts_per_op", "count", "lower", ALL),
    // ptx
    m("ptx.parse_us", "us", "lower", &[J]),
    m("ptx.opt_us", "us", "lower", &[J]),
    m("ptx.emit_us", "us", "lower", &[J]),
    m("ptx.insts_in", "count", "lower", &[J]),
    m("ptx.insts_out", "count", "lower", &[J]),
    m("ptx.opt_eliminated_frac", "frac", "higher", &[J]),
    // jit
    m("jit.lower_us", "us", "lower", &[J]),
    m("jit.compile_us_per_kernel", "us", "lower", &[J]),
    m("jit.cache_hit_us", "us", "lower", &[M]),
    m("jit.cache_hits_per_op", "count", "lower", ALL),
    m("jit.cache_misses_per_op", "count", "lower", ALL),
    m("jit.persist_hits_per_op", "count", "higher", ALL),
    m("jit.kernels_distinct", "count", "lower", ALL),
    m("jit.modeled_compile_s", "sim_s", "lower", &[J]),
    m("jit.tuner_settled_frac", "frac", "higher", ALL),
    m("jit.cold_set_ms", "ms", "lower", &[J]),
    m("jit.persist_open_ms", "ms", "lower", &[J]),
    m("jit.persist_cold_op_ms", "ms", "lower", &[J]),
    m("jit.persist_warm_op_ms", "ms", "lower", &[J]),
    m("jit.persist_kb", "KB", "lower", &[J]),
    m("jit.exec_ns_per_site.dslash", "ns", "lower", &[S]),
    m("jit.exec_ns_per_site.axpy", "ns", "lower", &[S]),
    m("jit.exec_ns_per_site.norm2", "ns", "lower", &[S]),
    m("jit.exec_ns_per_site.gauge_force", "ns", "lower", &[H]),
    m("jit.exec_ns_per_site.link_update", "ns", "lower", &[H]),
    m("jit.exec_ns_per_site.plaquette", "ns", "lower", &[H]),
    m("jit.insts.dslash", "count", "lower", &[S]),
    m("jit.insts.axpy", "count", "lower", &[S]),
    m("jit.insts.norm2", "count", "lower", &[S]),
    m("jit.insts.gauge_force", "count", "lower", &[H]),
    m("jit.insts.link_update", "count", "lower", &[H]),
    m("jit.insts.plaquette", "count", "lower", &[H]),
    m("jit.exec_ns_per_inst", "ns", "lower", &[H, S]),
    m("jit.exec_share", "frac", "lower", &[H, S, M, J]),
    m("jit.interp_slowdown_x", "x", "lower", &[S]),
    // gpusim
    m("gpusim.launches_per_op", "count", "lower", ALL),
    m("gpusim.kernel_sim_ms_per_op", "sim_ms", "lower", ALL),
    m("gpusim.transfer_sim_ms_per_op", "sim_ms", "lower", ALL),
    m("gpusim.h2d_kb_per_op", "KB", "lower", ALL),
    m("gpusim.d2h_kb_per_op", "KB", "lower", ALL),
    m("gpusim.dslash_sim_gbps", "sim_GB/s", "higher", &[M]),
    m("gpusim.dslash_frac_of_peak", "frac", "higher", &[M]),
    m("gpusim.launch_overhead_frac", "frac", "lower", ALL),
    m("gpusim.stream_syncs_per_op", "count", "lower", ALL),
    m("gpusim.account_us", "us", "lower", &[M]),
    // cache
    m("cache.hits_per_op", "count", "higher", ALL),
    m("cache.page_ins_per_op", "count", "lower", ALL),
    m("cache.page_outs_per_op", "count", "lower", ALL),
    m("cache.spills_per_op", "count", "lower", ALL),
    m("cache.page_in_kb_per_op", "KB", "lower", ALL),
    m("cache.hit_ratio", "frac", "higher", ALL),
    m("cache.assure_resident_us", "us", "lower", &[H, M]),
    m("cache.page_cycle_us", "us", "lower", &[H]),
    // chroma-mini
    m("solver.iters_per_solve", "count", "lower", &[S]),
    m("solver.launches_per_iter", "count", "lower", &[S]),
    m("solver.wall_ms_per_iter", "ms", "lower", &[S]),
    m("solver.true_resid_max", "rel", "lower", &[S]),
    m("hmc.refresh_ms", "ms", "lower", &[H]),
    m("hmc.energy_ms", "ms", "lower", &[H]),
    m("hmc.force_ms", "ms", "lower", &[H]),
    m("hmc.update_links_ms", "ms", "lower", &[H]),
    m("hmc.axpy_ms", "ms", "lower", &[H]),
    m("hmc.backup_ms", "ms", "lower", &[H]),
    m("hmc.reunit_ms", "ms", "lower", &[H]),
    m("hmc.plaquette_ms", "ms", "lower", &[H]),
    m("hmc.accept_frac", "frac", "higher", &[H, R]),
    m("hmc.dh_abs_mean", "abs", "lower", &[H]),
    m("checkpoint.save_ms", "ms", "lower", &[R]),
    m("checkpoint.load_ms", "ms", "lower", &[R]),
    m("checkpoint.kb", "KB", "lower", &[R]),
    // comm / multinode
    m("comm.msgs_per_op", "count", "lower", &[R]),
    m("comm.kb_per_op", "KB", "lower", &[R]),
    m("comm.allreduces_per_op", "count", "lower", &[R]),
    m("comm.recv_wait_sim_ms_per_op", "sim_ms", "lower", &[R]),
    m("comm.roundtrip_us", "us", "lower", &[R]),
    m("comm.face_transfer_sim_us", "sim_us", "lower", &[R]),
    m("multinode.eval_us", "us", "lower", &[R]),
    m("multinode.eval_sim_us", "sim_us", "lower", &[R]),
    m("multinode.comm_exposed_sim_us", "sim_us", "lower", &[R]),
    // serve
    m("serve.submit_us", "us", "lower", &[V]),
    m("serve.service_ms.plaquette", "ms", "lower", &[V]),
    m("serve.service_ms.cg_solve", "ms", "lower", &[V]),
    m("serve.service_ms.hmc", "ms", "lower", &[V]),
    m("serve.job_ms_p50", "ms", "lower", &[V]),
    m("serve.job_ms_p99", "ms", "lower", &[V]),
    m("serve.queue_wait_ms_p50", "ms", "lower", &[V]),
    m("serve.jobs_per_s", "1/s", "higher", &[V]),
    m("serve.concurrency_gain", "x", "higher", &[V]),
    m("serve.rejected", "count", "lower", &[V]),
    m("serve.streams_used", "count", "higher", &[V]),
    // quda baseline
    m("quda.host_dslash_ns_per_site", "ns", "lower", &[S]),
    m("quda.host_cg_ms", "ms", "lower", &[S]),
    m("quda.host_cg_iters", "count", "lower", &[S]),
    // the benchmark's own books
    m("telemetry.overhead_frac", "frac", "lower", ALL),
    m("telemetry.spans_recorded", "count", "lower", ALL),
    m("wall.op_ms_p10", "ms", "lower", ALL),
    m("wall.op_ms_p50", "ms", "lower", ALL),
    m("wall.op_ms_tail", "ms", "lower", ALL),
    m("wall.tail_pct", "%", "higher", ALL),
    m("wall.ops", "count", "higher", ALL),
    m("wall.ops_per_s", "1/s", "higher", ALL),
    m("wall.cv", "frac", "lower", ALL),
    m("ledger.kernel_coverage_frac", "frac", "higher", &[H, S, M]),
    m("ledger.residual_frac", "frac", "lower", &[H, S, M]),
];

/// The text of `/BENCHMARK.json`, written from this registry.
pub fn describe() -> String {
    use crate::workloads::{REFERENCE_SECONDS, WORKLOADS};
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.name, e.unit, e.better, e.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|p| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                p.name, p.unit, p.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"-p\", \"qdp-benchmark\", \"--\"],\n  \"paths\": [\"crates/benchmark\"],\n  \"run_seconds\": {REFERENCE_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// Look a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        s.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_meets_the_benchmark_contract() {
        let mut seen = BTreeSet::new();
        for (name, unit, better) in END_TO_END
            .iter()
            .map(|e| (e.name, e.unit, e.better))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit, p.better)))
        {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} on {name}");
            assert!(better == "lower" || better == "higher", "{name}: {better}");
            assert!(seen.insert(name), "duplicate metric {name}");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for e in END_TO_END {
            assert!(
                e.bound > 0.0 && e.bound <= 0.25,
                "{}: bound {}",
                e.name,
                e.bound
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|e| e.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END.iter().map(|e| e.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        for p in PER_LAYER {
            assert!(!p.on.is_empty(), "{} is measured nowhere", p.name);
            for w in p.on {
                assert!(ALL.contains(w), "{}: unknown workload {w}", p.name);
            }
        }
    }

    #[test]
    fn clock_words_are_never_mixed() {
        for p in PER_LAYER {
            let sim_name = p.name.starts_with("sim.")
                || p.name.contains("_sim_")
                || p.name.contains("modeled");
            let sim_unit = p.unit.starts_with("sim_");
            assert_eq!(
                sim_name, sim_unit,
                "{}: a simulated-clock metric says so in both its name and its unit ({})",
                p.name, p.unit
            );
            assert!(
                !(p.name.starts_with("wall") && sim_unit),
                "{} mixes clocks",
                p.name
            );
        }
    }
}
