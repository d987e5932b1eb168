//! # qdp-jit — the simulated driver JIT
//!
//! In the paper, PTX kernels are translated to GPU machine code by the JIT
//! compiler inside the NVIDIA Linux kernel driver (Fig. 2). This crate plays
//! that role for the simulated device:
//!
//! * [`lower`] parses **PTX text** (via `qdp-ptx`'s parser) and lowers it to
//!   a compact register-machine program ([`CompiledKernel`]) with resolved
//!   register slots, branch targets and parameter indices — the "GPU code"
//!   stage;
//! * [`exec`] executes a compiled kernel over a grid of thread blocks
//!   (parallel across blocks via `qdp_gpu_sim::par`, like blocks across SMs), reading and
//!   writing simulated device memory bit-exactly;
//! * [`cache`] is the compiled-kernel cache: each distinct PTX program is
//!   translated once (the paper measures 0.05–0.22 s per kernel, §III-D,
//!   and ~200 kernels ≈ 10–30 s per HMC trajectory, §VIII-D);
//! * [`autotune`] implements the paper's thread-block auto-tuner (§VII):
//!   start at the architectural maximum block size, halve on launch
//!   failure, then probe smaller sizes on payload launches until the
//!   execution time degrades by ≥ 33 %, and keep the best;
//! * [`launch`] ties it together: tuned, accounted, functionally executed
//!   kernel launches;
//! * [`persist`] is the on-disk kernel store shared by the JIT cache and
//!   the auto-tuner: optimized PTX and settled block sizes survive process
//!   exit, so a warm start performs zero optimizer passes, zero
//!   recompiles and zero tuner trials.

pub mod autotune;
pub mod cache;
pub mod exec;
pub mod launch;
pub mod lower;
pub mod persist;

pub use autotune::AutoTuner;
pub use cache::{CompileRequest, KernelCache, KernelCacheStats};
pub use exec::{run_grid, LaunchArg};
pub use launch::{launch_tuned_on, LaunchOutcome};
pub use lower::{
    compile_ptx, compile_ptx_opt, compile_ptx_opt_emit, lower_kernel, CompiledKernel, JitError,
};
pub use persist::{KernelStore, StoreConfig, FORMAT_VERSION, STORE_FILE};
