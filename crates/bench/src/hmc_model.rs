//! The strong-scaling replay of Figures 7/8: one production HMC trajectory
//! (V = 40³×256, 2+1 anisotropic clover, τ = 0.2) costed through the
//! discrete-event machine model for the paper's three software
//! configurations.

use chroma_mini::trace::{weights, TrajectorySpec};
use qdp_comm::MachineModel;
use quda_sim::{perf, Interface};

/// The three software configurations of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Chroma on XE CPUs only.
    CpuOnly,
    /// Chroma on CPUs, linear solves off-loaded to QUDA through the legacy
    /// interface (data copied and re-laid-out every solve).
    CpuQuda,
    /// Chroma on QDP-JIT/PTX + QUDA through the device interface — the
    /// paper's contribution.
    QdpJitQuda,
}

impl Config {
    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Config::CpuOnly => "CPU only (XE)",
            Config::CpuQuda => "CPU+QUDA",
            Config::QdpJitQuda => "QDP-JIT+QUDA",
        }
    }
}

/// Factor `n` into 4 near-equal factors ordered to match the global dims,
/// minimising the communication surface (greedy prime assignment).
fn decompose(n: usize, global: [usize; 4]) -> [usize; 4] {
    let mut dims = [1usize; 4];
    let mut primes = Vec::new();
    let mut m = n;
    let mut p = 2;
    while m > 1 {
        while m % p == 0 {
            primes.push(p);
            m /= p;
        }
        p += 1;
    }
    primes.sort_unstable_by(|a, b| b.cmp(a));
    for prime in primes {
        // split the dimension with the largest remaining local extent
        let mu = (0..4)
            .filter(|&mu| global[mu] % (dims[mu] * prime) == 0)
            .max_by_key(|&mu| global[mu] / dims[mu])
            .unwrap_or(3);
        dims[mu] *= prime;
    }
    dims
}

/// One row of the scaling table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingRow {
    /// Partition size (XE sockets or XK nodes).
    pub nodes: usize,
    /// Trajectory time in seconds.
    pub time: f64,
}

/// GPU strong-scaling half-volume: the local volume at which the HMC
/// kernel mix reaches half its asymptotic GPU throughput (occupancy, launch
/// and synchronisation overheads at small sub-grids — the reason the GPU
/// speedup drops from 11× at 128 nodes to 3.7× at 800, §VIII-D).
const GPU_V_HALF: f64 = 450_000.0;

/// CPU strong-scaling half-volume (per-core sub-grids shrink, message
/// counts grow — the reason the CPU curve flattens past 400 sockets).
const CPU_V_HALF: f64 = 17_000.0;

fn gpu_eff(lv: f64) -> f64 {
    lv / (lv + GPU_V_HALF)
}

fn cpu_eff(lv: f64) -> f64 {
    lv / (lv + CPU_V_HALF)
}

/// Trajectory time for a configuration on a partition.
pub fn trajectory_time(
    config: Config,
    machine: &MachineModel,
    spec: &TrajectorySpec,
) -> f64 {
    let n = machine.n_nodes;
    let global = [40usize, 40, 40, 256];
    let rank_dims = decompose(n, global);
    let local_dims: [usize; 4] = std::array::from_fn(|mu| global[mu] / rank_dims[mu]);
    let lv = local_dims.iter().product::<usize>() as f64;

    // halo geometry: spinor face bytes of the largest split direction, and
    // how many directions actually communicate
    let mut max_face_bytes = 0.0f64;
    let mut n_comm_dirs = 0usize;
    for mu in 0..4 {
        if rank_dims[mu] > 1 {
            n_comm_dirs += 2; // forward + backward
            let face_sites = lv / local_dims[mu] as f64;
            max_face_bytes = max_face_bytes.max(face_sites * weights::SPINOR_FACE_BYTES);
        }
    }

    let dslash_count = spec.total_dslash() as f64;
    let linalg_count = spec.total_linalg() as f64;
    let reductions = spec.total_reductions() as f64;
    let non_solve_bytes = spec.non_solve_bytes_per_site() * lv;
    let non_solve_ops = 2000.0; // distinct lattice expressions per trajectory

    let ce = cpu_eff(lv);
    let ge = gpu_eff(lv);

    // CPU building blocks: tuned dslash, generic-expression everything else
    let cpu_dslash = machine.cpu_stream(lv * weights::DSLASH_BYTES, lv * weights::DSLASH_FLOPS)
        / ce
        + machine.halo(max_face_bytes, n_comm_dirs, false);
    let cpu_linalg =
        machine.cpu_expr_stream(lv * weights::LINALG_BYTES, lv * weights::LINALG_FLOPS) / ce;
    let cpu_reduct =
        machine.allreduce() + machine.cpu_expr_stream(lv * 24.0 * 8.0, lv * 48.0) / ce;
    let cpu_non_solve = machine.cpu_expr_stream(non_solve_bytes, 0.0) / ce
        + non_solve_ops * machine.node.op_overhead
        + machine.halo(max_face_bytes, n_comm_dirs, false) * 32.0;

    match config {
        Config::CpuOnly => {
            dslash_count * cpu_dslash
                + linalg_count * cpu_linalg
                + reductions * cpu_reduct
                + cpu_non_solve
        }
        Config::CpuQuda | Config::QdpJitQuda => {
            // solves on the GPU with QUDA's tuned kernels; comm overlapped
            let compute = machine.gpu_stream(
                lv * perf::quda_dslash_bytes(true),
                lv * weights::DSLASH_FLOPS,
            ) / ge;
            let comm = machine.halo(max_face_bytes, n_comm_dirs, true);
            let gpu_dslash = compute.max(comm) + machine.node.op_overhead;
            let gpu_linalg =
                machine.gpu_stream(lv * weights::LINALG_BYTES, lv * weights::LINALG_FLOPS) / ge;
            let gpu_reduct =
                machine.allreduce() + machine.gpu_stream(lv * 24.0 * 8.0, lv * 48.0) / ge;
            let solve = dslash_count * gpu_dslash
                + linalg_count * gpu_linalg
                + reductions * gpu_reduct;
            match config {
                Config::CpuQuda => {
                    // legacy interface: copy + re-layout on every solve
                    let solves = (spec.md_steps * spec.force_evals_per_step * 2) as f64;
                    let iface = perf::interface_overhead(
                        Interface::Legacy,
                        &qdp_gpu_sim::DeviceConfig::xk_node_gpu(),
                        lv as usize,
                        true,
                        machine.node.cpu_expr_bandwidth,
                    );
                    solve + solves * iface + cpu_non_solve
                }
                _ => {
                    // QDP-JIT: non-solve work in generated kernels on the
                    // GPU, zero-copy device interface
                    let non_solve_compute = machine.gpu_stream(non_solve_bytes, 0.0) / ge
                        + non_solve_ops * machine.node.op_overhead;
                    let non_solve_comm =
                        machine.halo(max_face_bytes, n_comm_dirs, true) * 32.0;
                    solve + non_solve_compute.max(non_solve_comm)
                }
            }
        }
    }
}

/// Sweep the Fig. 7 partition sizes for one configuration.
pub fn scaling_curve(
    config: Config,
    nodes: &[usize],
    spec: &TrajectorySpec,
    titan: bool,
) -> Vec<ScalingRow> {
    nodes
        .iter()
        .map(|&n| {
            let machine = match (config, titan) {
                (Config::CpuOnly, _) => MachineModel::blue_waters_xe(n),
                (_, false) => MachineModel::blue_waters_xk(n),
                (_, true) => MachineModel::titan_xk(n),
            };
            ScalingRow {
                nodes: n,
                time: trajectory_time(config, &machine, spec),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose_splits_largest_dims() {
        let d = decompose(128, [40, 40, 40, 256]);
        assert_eq!(d.iter().product::<usize>(), 128);
        // t (256) absorbs the most factors
        assert!(d[3] >= d[0] && d[3] >= d[1] && d[3] >= d[2]);
        let d1 = decompose(1, [40, 40, 40, 256]);
        assert_eq!(d1, [1, 1, 1, 1]);
    }

    #[test]
    fn figure7_shape() {
        let spec = TrajectorySpec::production_40x256();
        let nodes = [128usize, 256, 400, 512, 800];
        let cpu = scaling_curve(Config::CpuOnly, &nodes, &spec, false);
        let cpu_quda = scaling_curve(Config::CpuQuda, &nodes, &spec, false);
        let jit = scaling_curve(Config::QdpJitQuda, &nodes, &spec, false);

        // ordering at every partition size: jit < cpu_quda < cpu
        for i in 0..nodes.len() {
            assert!(jit[i].time < cpu_quda[i].time, "at {} nodes", nodes[i]);
            assert!(cpu_quda[i].time < cpu[i].time, "at {} nodes", nodes[i]);
        }
        // speedup bands (paper: CPU+QUDA ≈2.2×@128 → ≈1.8×@800;
        // QDP-JIT+QUDA ≈11×@128 → ≈3.7×@800)
        let s_cq_128 = cpu[0].time / cpu_quda[0].time;
        let s_cq_800 = cpu[4].time / cpu_quda[4].time;
        let s_jit_128 = cpu[0].time / jit[0].time;
        let s_jit_800 = cpu[4].time / jit[4].time;
        assert!(
            (1.6..=3.0).contains(&s_cq_128),
            "CPU+QUDA @128 speedup {s_cq_128}"
        );
        assert!(
            (1.3..=2.4).contains(&s_cq_800),
            "CPU+QUDA @800 speedup {s_cq_800}"
        );
        assert!(
            (7.0..=15.0).contains(&s_jit_128),
            "QDP-JIT+QUDA @128 speedup {s_jit_128}"
        );
        assert!(
            (2.5..=6.0).contains(&s_jit_800),
            "QDP-JIT+QUDA @800 speedup {s_jit_800}"
        );
        // GPU speedup degrades with partition size (Amdahl/comm)
        assert!(s_jit_800 < s_jit_128 * 0.6);
        // and QDP-JIT ≈ 2× CPU+QUDA at 800 (paper)
        let two_x = cpu_quda[4].time / jit[4].time;
        assert!((1.4..=3.0).contains(&two_x), "2× claim: {two_x}");
    }

    #[test]
    fn titan_and_blue_waters_indistinguishable() {
        let spec = TrajectorySpec::production_40x256();
        let nodes = [128usize, 256, 512, 800];
        let bw = scaling_curve(Config::QdpJitQuda, &nodes, &spec, false);
        let ti = scaling_curve(Config::QdpJitQuda, &nodes, &spec, true);
        for (a, b) in bw.iter().zip(ti.iter()) {
            let rel = (a.time - b.time).abs() / a.time;
            assert!(rel < 0.05, "at {} nodes: {} vs {}", a.nodes, a.time, b.time);
        }
    }

    #[test]
    fn node_hours_reduced_by_factor_five() {
        // paper §VIII-D: at 128 nodes, 258 vs 52 node-hours ⇒ ≈5×
        let spec = TrajectorySpec::production_40x256();
        let cpu_quda = trajectory_time(
            Config::CpuQuda,
            &MachineModel::blue_waters_xk(128),
            &spec,
        );
        let jit = trajectory_time(
            Config::QdpJitQuda,
            &MachineModel::blue_waters_xk(128),
            &spec,
        );
        let ratio = cpu_quda / jit;
        assert!(
            (3.0..=8.0).contains(&ratio),
            "cost-reduction factor {ratio} (paper ≈5)"
        );
    }
}
