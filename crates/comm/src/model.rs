//! Discrete-event machine model for the strong-scaling studies (Figures
//! 7/8): per-node compute rates, interconnect, PCIe, collective costs.
//!
//! Blue Waters XE nodes hold 2 AMD 6276 "Interlagos" processors; XK nodes
//! hold 1 Interlagos + 1 GK110 Kepler accelerator (paper §VIII-A). The CPU
//! configurations of Fig. 7 are counted in *XE sockets*, the GPU ones in
//! *XK nodes*, exactly as in the paper's x-axis.

use crate::cluster::LinkModel;

/// Cost parameters of one node (or socket).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeModel {
    /// Human-readable name.
    pub name: String,
    /// Effective CPU streaming bandwidth (bytes/s) for hand-tuned lattice
    /// kernels (e.g. the SSE Wilson dslash Chroma uses on CPUs).
    pub cpu_bandwidth: f64,
    /// Effective CPU bandwidth of *generic expression-template* code — the
    /// QDP++ C++ path every non-tuned operation takes. Its being several
    /// times slower than the tuned kernels is precisely the Amdahl problem
    /// the paper's whole-application port removes (§I).
    pub cpu_expr_bandwidth: f64,
    /// Effective CPU flop rate (flops/s, DP).
    pub cpu_flops: f64,
    /// GPU streaming bandwidth, if an accelerator is present.
    pub gpu_bandwidth: Option<f64>,
    /// GPU flop rate, if present.
    pub gpu_flops: Option<f64>,
    /// PCIe bandwidth between host and accelerator.
    pub pcie_bandwidth: f64,
    /// PCIe transfer latency.
    pub pcie_latency: f64,
    /// Fixed overhead per lattice-wide operation (kernel launch / OpenMP
    /// loop start).
    pub op_overhead: f64,
}

impl NodeModel {
    /// One AMD 6276 Interlagos socket of a Blue Waters XE node: ~8 Bulldozer
    /// modules, DDR3 stream ≈ 18 GB/s effective, ≈ 60 GF DP effective on
    /// lattice kernels.
    fn xe_socket() -> NodeModel {
        NodeModel {
            name: "XE socket (Interlagos)".into(),
            cpu_bandwidth: 12.0e9,
            cpu_expr_bandwidth: 2.0e9,
            cpu_flops: 60.0e9,
            gpu_bandwidth: None,
            gpu_flops: None,
            pcie_bandwidth: 6.0e9,
            pcie_latency: 1.0e-5,
            op_overhead: 2.0e-6,
        }
    }

    /// One Blue Waters / Titan XK node: 1 Interlagos socket + 1 GK110 with
    /// ECC on (≈ 150 GB/s sustained, matching the paper's 75 % of 200 GB/s).
    fn xk_node() -> NodeModel {
        NodeModel {
            name: "XK node (Interlagos + GK110)".into(),
            cpu_bandwidth: 12.0e9,
            cpu_expr_bandwidth: 2.0e9,
            cpu_flops: 60.0e9,
            gpu_bandwidth: Some(150.0e9),
            gpu_flops: Some(1.0e12),
            pcie_bandwidth: 6.0e9,
            pcie_latency: 1.0e-5,
            op_overhead: 6.0e-6,
        }
    }
}

/// A homogeneous partition of `n_nodes` nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Per-node parameters.
    pub node: NodeModel,
    /// Partition size.
    pub n_nodes: usize,
    /// Interconnect.
    pub link: LinkModel,
}

impl MachineModel {
    /// Blue Waters XE partition counted in sockets.
    pub fn blue_waters_xe(sockets: usize) -> MachineModel {
        MachineModel {
            node: NodeModel::xe_socket(),
            n_nodes: sockets,
            link: LinkModel::gemini(),
        }
    }

    /// Blue Waters XK partition counted in nodes.
    pub fn blue_waters_xk(nodes: usize) -> MachineModel {
        MachineModel {
            node: NodeModel::xk_node(),
            n_nodes: nodes,
            link: LinkModel::gemini(),
        }
    }

    /// Titan XK partition: same node type, slightly different interconnect
    /// tuning — the paper finds the two machines "hardly distinguishable".
    pub fn titan_xk(nodes: usize) -> MachineModel {
        MachineModel {
            node: NodeModel::xk_node(),
            n_nodes: nodes,
            link: LinkModel {
                latency: 1.4e-6,
                bandwidth: 6.4e9,
                send_overhead: 0.5e-6,
            },
        }
    }

    /// Time of one lattice-wide streaming operation on the CPU (tuned
    /// kernel path).
    pub fn cpu_stream(&self, bytes: f64, flops: f64) -> f64 {
        self.node.op_overhead + (bytes / self.node.cpu_bandwidth).max(flops / self.node.cpu_flops)
    }

    /// Time of one generic expression-template operation on the CPU.
    pub fn cpu_expr_stream(&self, bytes: f64, flops: f64) -> f64 {
        self.node.op_overhead
            + (bytes / self.node.cpu_expr_bandwidth).max(flops / self.node.cpu_flops)
    }

    /// Time of one lattice-wide streaming operation on the GPU.
    pub fn gpu_stream(&self, bytes: f64, flops: f64) -> f64 {
        let bw = self.node.gpu_bandwidth.expect("node has no GPU");
        let fl = self.node.gpu_flops.expect("node has no GPU");
        self.node.op_overhead + (bytes / bw).max(flops / fl)
    }

    /// Host↔device transfer time.
    pub fn pcie(&self, bytes: f64) -> f64 {
        self.node.pcie_latency + bytes / self.node.pcie_bandwidth
    }

    /// Halo exchange of `bytes` per neighbour over `n_dirs` directions
    /// (sends proceed concurrently; the model charges the largest single
    /// message plus a per-message overhead). `staged` adds the PCIe hops of
    /// non-CUDA-aware MPI (paper §V).
    pub fn halo(&self, bytes_per_dir: f64, n_dirs: usize, staged: bool) -> f64 {
        if self.n_nodes == 1 || n_dirs == 0 {
            return 0.0;
        }
        let msg = self.link.transfer_time(bytes_per_dir as usize)
            + self.link.send_overhead * n_dirs as f64;
        // staging is pipelined per direction: the critical path pays the
        // PCIe hops of the largest message
        let stage = if staged {
            2.0 * self.pcie(bytes_per_dir)
        } else {
            0.0
        };
        msg + stage
    }

    /// Global reduction (butterfly): `2·⌈log₂ N⌉` latencies.
    pub fn allreduce(&self) -> f64 {
        if self.n_nodes <= 1 {
            return 0.0;
        }
        2.0 * (self.n_nodes as f64).log2().ceil() * self.link.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_presets() {
        let xe = NodeModel::xe_socket();
        assert!(xe.gpu_bandwidth.is_none());
        let xk = NodeModel::xk_node();
        assert_eq!(xk.gpu_bandwidth, Some(150.0e9));
        // the GPU is ~8x the socket's bandwidth — the core of Fig. 7's gap
        assert!(xk.gpu_bandwidth.unwrap() / xe.cpu_bandwidth > 5.0);
    }

    #[test]
    fn stream_costs_scale_with_bytes() {
        let m = MachineModel::blue_waters_xk(128);
        let t1 = m.gpu_stream(1.0e6, 0.0);
        let t2 = m.gpu_stream(2.0e6, 0.0);
        assert!(t2 > t1);
        // tiny ops are overhead-dominated
        let t0 = m.gpu_stream(1.0, 0.0);
        assert!(t0 >= m.node.op_overhead);
        // flop-bound when flops dominate
        let tf = m.gpu_stream(8.0, 1.0e9);
        assert!((tf - (m.node.op_overhead + 1.0e9 / 1.0e12)).abs() < 1e-9);
    }

    #[test]
    fn staged_halo_costs_more() {
        let m = MachineModel::blue_waters_xk(64);
        let direct = m.halo(1.0e6, 8, false);
        let staged = m.halo(1.0e6, 8, true);
        assert!(staged > direct);
        // single node: no communication
        let m1 = MachineModel::blue_waters_xk(1);
        assert_eq!(m1.halo(1.0e6, 8, false), 0.0);
    }

    #[test]
    fn allreduce_grows_logarithmically() {
        let t128 = MachineModel::blue_waters_xe(128).allreduce();
        let t1600 = MachineModel::blue_waters_xe(1600).allreduce();
        assert!(t1600 > t128);
        assert!(t1600 < 2.0 * t128, "log growth, not linear");
        assert_eq!(MachineModel::blue_waters_xe(1).allreduce(), 0.0);
    }

    #[test]
    fn titan_and_blue_waters_are_close() {
        let bw = MachineModel::blue_waters_xk(256);
        let ti = MachineModel::titan_xk(256);
        let t_bw = bw.gpu_stream(1.0e8, 1.0e9) + bw.halo(1.0e6, 8, false);
        let t_ti = ti.gpu_stream(1.0e8, 1.0e9) + ti.halo(1.0e6, 8, false);
        assert!((t_bw - t_ti).abs() / t_bw < 0.05, "within 5%");
    }
}
