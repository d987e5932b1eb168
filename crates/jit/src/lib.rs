//! # qdp-jit — the simulated driver JIT
//!
//! In the paper, PTX kernels are translated to GPU machine code by the JIT
//! compiler inside the NVIDIA Linux kernel driver (Fig. 2). This crate plays
//! that role for the simulated device:
//!
//! * [`lower`] lowers a **PTX module** — the one the code generator built,
//!   or one parsed from PTX text by `qdp-ptx`'s parser — as written to a
//!   compact register-machine program ([`CompiledKernel`]) with registers
//!   allocated by live range onto columns, resolved exit branches and
//!   parameter indices — the "GPU code" stage;
//! * [`exec`] executes a compiled kernel over a grid of thread blocks,
//!   reading and writing simulated device memory bit-exactly: a block's
//!   threads run in tiles of [`exec::TILE`] lanes (each op across a tile's
//!   lanes in one loop), and a launch's tiles run on `qdp_gpu_sim::par`'s
//!   persistent pool like blocks across SMs — the calling thread takes
//!   part, a busy pool runs them inline, and a thread's CPU set is read at
//!   its first region;
//! * [`cache`] is the compiled-kernel cache: each distinct kernel is
//!   translated once (the paper measures 0.05–0.22 s per kernel, §III-D,
//!   and ~200 kernels ≈ 10–30 s per HMC trajectory, §VIII-D);
//! * [`autotune`] implements the paper's thread-block auto-tuner (§VII):
//!   start at the architectural maximum block size, halve on launch
//!   failure, then probe smaller sizes on payload launches until the
//!   execution time degrades by ≥ 33 %, and keep the best — one
//!   [`autotune::TuneState`] per compiled kernel, held by the kernel;
//! * [`launch`] ties it together: tuned, accounted, functionally executed
//!   kernel launches;
//! * [`persist`] is the on-disk kernel store shared by the JIT cache and
//!   the auto-tuner: the digests of translated programs and the settled
//!   block sizes survive process exit, so a warm start pays no modelled
//!   translation cost, counts no cache miss and takes no tuner trial.

pub mod autotune;
pub mod cache;
pub mod exec;
pub mod launch;
pub mod lower;
pub mod persist;

pub use cache::{CompileRequest, KernelCache, KernelCacheStats};
pub use exec::{run_grid, LaunchArg};
pub use launch::{launch_tuned_on, LaunchOutcome};
pub use lower::{compile_ptx, lower_kernel, CompiledKernel, JitError};
pub use persist::{KernelStore, FORMAT_VERSION, STORE_FILE};
