//! # qdp-ptx — PTX intermediate representation
//!
//! The paper implements its compute kernels *directly in the PTX language*
//! (§III): the expression-template unparser drives a PTX code generator, and
//! the resulting textual PTX program is handed to the NVIDIA driver JIT.
//!
//! This crate provides the corresponding pieces:
//!
//! * a typed register-based IR ([`inst::Inst`]) covering exactly the
//!   instructions the code generator emits — float arithmetic (`add`,
//!   `sub`, `mul`, `neg`, `fma.rn`), the unsigned index and address
//!   arithmetic (`add`, `and.b32`, `shr.u32`, `mul.wide.u32`,
//!   `mad.lo.u32`), the guard (`setp.{ge,ne}.u32`, `selp`, `bra`, `ret`),
//!   loads, stores, moves, the f32 ↔ f64 `cvt` of mixed-precision
//!   expressions (§III-D), and a reduction's warp butterfly
//!   (`shfl.bfly.b32` on the `mov.b64` halves of an `f64`).
//!   [`module::Kernel::validate`] holds every kernel to that dialect;
//! * a [`module::KernelBuilder`] used by the expression unparser to build
//!   kernels (virtual register allocation, parameter declarations, special
//!   registers, guard/label plumbing);
//! * the generator's last step ([`opt`]): a dead-def sweep and dense
//!   register renumbering on the built kernel, so the text printed is the
//!   program that runs;
//! * a textual emitter ([`emit`]) producing PTX ISA 3.x-styled programs;
//! * a parser ([`parse`]) playing the role of the driver front-end: the JIT
//!   crate consumes PTX **text**, not this IR, so the full
//!   generate → print → parse → lower chain is exercised exactly as in the
//!   paper (Fig. 2). Nothing after the generator rewrites a program.

pub mod emit;
pub mod hash;
pub mod inst;
pub mod module;
pub mod opt;
pub mod parse;
pub mod types;

pub use hash::{fnv1a, stable_module_digest, stable_text_digest, MemoHasher, MemoMap};
pub use inst::{BinOp, CmpOp, Inst, Operand, SpecialReg};
pub use module::{Kernel, KernelBuilder, Module, Param};
pub use opt::{optimize_kernel, optimize_module, OptLevel};
pub use types::{PtxType, Reg, RegClass};

/// Errors produced while building, validating or parsing PTX.
#[derive(Debug, Clone, PartialEq)]
pub enum PtxError {
    /// Parse error with line number and message.
    Parse {
        /// 1-based source line.
        line: usize,
        /// Description of the problem.
        msg: String,
    },
    /// Validation error (a form outside the generator's dialect, bad
    /// register class, undefined register/label/param).
    Invalid(String),
}

impl std::fmt::Display for PtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PtxError::Parse { line, msg } => write!(f, "PTX parse error at line {line}: {msg}"),
            PtxError::Invalid(msg) => write!(f, "invalid PTX: {msg}"),
        }
    }
}

impl std::error::Error for PtxError {}
