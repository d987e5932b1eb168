//! # qdp-core — the QDP-JIT library proper
//!
//! The reimplementation of the QCD Data-Parallel low-level layer for the
//! (simulated) CUDA architecture — the paper's central artifact. Data types
//! and expressions with stencil-like operations are provided to the
//! application layer (`chroma-mini`), and every expression is evaluated by
//! a generated PTX kernel: the AST is unparsed into PTX (§III), translated
//! by the driver JIT, its operand fields paged onto the device by the
//! software cache (§IV), and launched with an auto-tuned block size (§VII).
//!
//! ```
//! use qdp_core::prelude::*;
//!
//! let ctx = QdpContext::k20x(Geometry::symmetric(4));
//! let u = LatticeColorMatrix::<f64>::new(&ctx);
//! let psi = LatticeFermion::<f64>::new(&ctx);
//! let chi = LatticeFermion::<f64>::new(&ctx);
//! // the paper's `psi = u * phi` — implicitly data-parallel
//! chi.assign(u.q() * psi.q()).unwrap();
//! ```

pub mod codegen;
pub mod config;
pub mod context;
pub mod eval;
pub mod field;
pub mod multinode;

pub use codegen::fuse::{
    codegen_fused_kernel, codegen_fused_ptx, eval_fused_sequence, FusionScope,
};
pub use config::{QdpConfig, QdpContextBuilder};
pub use context::QdpContext;
pub use qdp_gpu_sim::{Event, StreamId};
pub use qdp_ptx::opt::OptLevel;
pub use eval::{
    codegen_ptx, eval, eval_reference, plan_codegen, render_ptx, CodegenPlan, CoreError,
    EvalReport,
};
pub use field::{
    adj, clover_mul, conj, cscale, diag_fill, expm, gamma, gamma_mu, imag, outer_color, real,
    reduce_inner_product, reduce_norm2, reduce_sum_complex, reduce_sum_real, shift,
    spin_project, spin_reconstruct, times_i,
    times_minus_i, trace,
    trace_spin, transpose, GammaFactor, Lattice, LatticeCloverDiag, LatticeCloverTriang,
    LatticeColorMatrix, LatticeComplex, LatticeFermion, LatticeReal, LatticeSpinMatrix, MatrixLike,
    Multi1d, QExpr, SiteComplex, SiteElem, SiteReal,
};

/// The commonly needed names.
pub mod prelude {
    pub use crate::codegen::fuse::FusionScope;
    pub use crate::config::{QdpConfig, QdpContextBuilder};
    pub use crate::context::QdpContext;
    pub use crate::eval::{CoreError, EvalReport};
    pub use crate::field::*;
    pub use qdp_expr::ShiftDir;
    pub use qdp_gpu_sim::{DeviceConfig, StreamId};
    pub use qdp_layout::{Geometry, LayoutKind, Subset};
    pub use qdp_ptx::opt::OptLevel;
    pub use qdp_types::{Complex, FloatType, ProjSign, Real};
}
