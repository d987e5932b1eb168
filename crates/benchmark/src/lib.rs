//! # qdp-benchmark — the claims benchmark
//!
//! Six workloads, two clocks, a per-layer ledger. One process runs one
//! workload from a single load-generating thread and prints every metric
//! by name with its unit, the attempted/failed op counts and a `correct`
//! verdict as one JSON object on the last line of stdout. See `README.md`
//! in this directory for every metric, workload and the reasoning, and
//! `/BENCHMARK.json` for the machine-readable contract.
//!
//! Both clocks are first class and never mixed: a metric named `wall*` is
//! host time, `sim*` is the simulated device/link model.
//!
//! The stack is driven only through public functions, always via
//! `QdpContext::builder()` + `QdpConfig::new()` — never the environment —
//! and never through anything ROADMAP item 3 slates for deletion (a unit
//! test greps this crate's sources for those names).

pub mod affinity;
pub mod compare;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
