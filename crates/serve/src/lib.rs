//! # qdp-serve — a multi-tenant job-serving front-end
//!
//! The serving layer the roadmap calls for on top of the simulated
//! QDP-JIT runtime: many concurrent, independent jobs (solver requests,
//! plaquette measurements, small HMC trajectories on per-tenant lattices)
//! multiplexed onto **one shared [`qdp_core::QdpContext`]** — a single JIT
//! cache, persistent kernel store and auto-tuner serve every tenant, so
//! the second tenant to request a given expression shape runs entirely
//! warm.
//!
//! Architecture:
//!
//! * **one simulated stream per worker** — worker `i` owns stream
//!   `serve-<i>` and keeps it bound as its thread's stream
//!   (`Device::bind_stream`) for its whole life; a job is
//!   the `chroma-mini` library call itself (`GaugeField::plaquette`,
//!   `cg_solve`, `Hmc::trajectory`), whose kernels and reductions all land
//!   on the bound stream, so concurrent jobs interleave on the device
//!   timelines and show up as separate Perfetto tracks;
//! * **one lock for serving state** — queues, admission accounting,
//!   completion counts and order, and the latency histogram live under
//!   the scheduler mutex, so [`ServerStats`] is exact with or without
//!   profiling;
//! * **fair scheduling** — deficit round-robin across per-tenant FIFOs
//!   with per-kind cost weights ([`JobSpec::cost`]);
//! * **admission control** — a global bounded queue plus per-tenant
//!   outstanding caps; overload returns [`ServeError::Rejected`]
//!   *(backpressure as a value: never a panic, an unbounded queue, or a
//!   deadlock)*;
//! * **observability** — when the configured telemetry records
//!   (`QdpConfig::telemetry`; the server never switches it on itself):
//!   per-tenant counters (`serve.tenant.<name>.completed` / `.rejected`),
//!   a per-job span per kind, and the `serve.job_latency_ms` histogram
//!   whose p50/p99 ride in every [`qdp_telemetry::ProfileReport`], plus
//!   the `serve.jobs_per_sec` gauge.
//!
//! The server is configured with a [`qdp_core::QdpConfig`] — it never
//! reads environment variables itself (the `serve_probe` binary captures
//! the environment once via `QdpConfig::from_env` and passes it down).

pub mod error;
pub mod job;
pub mod server;

pub use error::{RejectReason, ServeError};
pub use job::{JobResult, JobSpec, TenantSpec};
pub use server::{JobTicket, ServeConfig, Server, ServerStats};
