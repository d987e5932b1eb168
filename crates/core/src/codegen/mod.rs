//! The code-generation machinery: the backend abstraction, the site-value
//! algebra, and the PTX / CPU backends (paper §III).

pub mod backend;
pub mod cpu_backend;
pub mod cse;
pub mod fuse;
pub mod ptx_backend;
pub mod value;

pub use backend::Backend;
pub use cpu_backend::CpuGen;
pub use cse::CseBackend;
pub use fuse::{codegen_fused_kernel, codegen_fused_ptx, eval_fused_sequence, FusionScope};
pub use ptx_backend::{KernelEnv, PtxGen, StmtMeta};
pub use value::{gen_expr, load_leaf, store_val, GenCtx, SVal, CV};
