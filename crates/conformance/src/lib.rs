//! # qdp-conformance — differential conformance subsystem
//!
//! The paper's value proposition is that runtime-generated PTX computes
//! *the same answers* as the reference expression evaluation. This crate
//! drives the two halves against each other systematically:
//!
//! * [`gen`] — a seeded, typed random expression-DAG generator over
//!   lattice color matrices, fermions, complex and real fields;
//! * [`diff`] — the differential executor: every generated DAG runs once
//!   through the full JIT pipeline (codegen → PTX → parse → lower →
//!   tuned launch on the simulated device) and once through
//!   `eval_reference`, and the outputs are compared with a per-float-type
//!   ULP tolerance;
//! * [`fixture`] — the shared lattice-field environment, including a
//!   cache-pressure variant whose shrunken device pool forces LRU
//!   spill/page-in traffic mid-sweep;
//! * [`fuzz`] — a PTX mutation fuzzer: emitted kernels are byte/token
//!   mutated and pushed through parse → validate → lower, which must
//!   return structured errors or round-trip, never panic.
//!
//! Sweeps run on the in-tree `qdp-proptest` harness, so a failing DAG
//! shrinks toward shallow trees and the failure message prints a one-line
//! replayable seed (`QDP_PROPTEST_SEED=<master>`).

pub mod diff;
pub mod fixture;
pub mod fuzz;
pub mod gen;

pub use diff::{
    differential_sweep, fuse_diff_case, fuse_differential_sweep, max_ulps, opt_diff_case,
    opt_differential_sweep, run_cases, Case, SweepConfig, SweepMode,
};
pub use fixture::Fixture;
pub use fuzz::{run_fuzz, FuzzOutcome};
pub use gen::{gen_stmt_sequence, gen_typed_expr, random_target_kind};
