//! # qdp-gpu-sim — simulated CUDA device
//!
//! The paper runs on NVIDIA K20x/K20m GPUs (GK110 "Kepler", §VIII-A). This
//! environment has no GPU, so this crate provides the substitute device the
//! substitution table in DESIGN.md describes:
//!
//! * a **device memory** arena with a real allocator — kernels address it
//!   with 64-bit byte addresses exactly as they would address global memory;
//! * a **copy engine** with a PCIe cost model for host↔device transfers
//!   (the traffic the paper's software cache tries to minimise, §IV);
//! * **simulated stream timelines**: kernel launches and copies advance
//!   simulated time on a per-stream front according to the performance
//!   model (stream 0 is the legacy-synchronising default stream, so
//!   single-stream code sees one global clock; a thread may bind another
//!   stream as its default for a scope), letting independent work overlap
//!   the way CUDA streams do; benchmark harnesses report `GB/s`
//!   and `GFLOPS` figures with the same *shape* as the paper's Figures 4–6;
//! * a **performance model** built from the published GK110 machine
//!   parameters: occupancy from register pressure and block size,
//!   latency-hiding via Little's law, wave quantisation, launch overhead,
//!   and resource-exhaustion launch failures (the paper's auto-tuner relies
//!   on those, §VII);
//! * real **functional execution support**: the JIT crate's interpreter
//!   reads and writes this memory, so results are bit-exact and validated
//!   against the CPU reference path.

pub mod config;
pub mod device;
pub mod memory;
pub mod par;
pub mod perf;
pub mod stream;
/// The workspace's one non-poisoning `Mutex` (it lives in the bottom-most
/// crate, telemetry, so every layer can use it).
pub use qdp_telemetry::sync;

pub use config::DeviceConfig;
pub use device::{Device, DeviceStats, StreamBinding};
pub use memory::{Arena, DeviceMemory, DevicePtr};
pub use perf::{KernelShape, LaunchError, LaunchTiming};
pub use stream::{Event, StreamId};

/// Errors from device operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// Allocation failed: device memory exhausted. The caching layer
    /// responds by spilling least-recently-used fields (paper §IV).
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes currently free (possibly fragmented).
        free: usize,
    },
    /// An address was not inside any live allocation.
    BadAddress(u64),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfMemory { requested, free } => {
                write!(f, "device out of memory: requested {requested}, free {free}")
            }
            DeviceError::BadAddress(a) => write!(f, "bad device address {a:#x}"),
        }
    }
}

impl std::error::Error for DeviceError {}
