//! # qdp-bench — harnesses regenerating every table and figure
//!
//! The `src/bin/*` binaries print the paper's rows/series (Table II,
//! Figs. 4–8), the ablations, and the probes `ci.sh` drives; the two
//! modules here are the shared kernel and HMC-model harnesses. See
//! DESIGN.md's experiment index and EXPERIMENTS.md for the recorded
//! outputs. Performance *claims* are judged by `qdp-benchmark compare`,
//! not here.

pub mod hmc_model;
pub mod kernels;

pub use hmc_model::{trajectory_time, Config, ScalingRow};
pub use kernels::{bench_kernel, TestFunction};
