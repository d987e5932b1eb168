//! The paper's Table II test functions and the single-GPU bandwidth sweep
//! (Figures 4/5).

use qdp_core::prelude::*;
use qdp_core::{clover_mul, QExpr};
use qdp_types::su3::random_su3;
use qdp_types::{FloatType, PScalar, PVector};
use qdp_rng::{SeedableRng, StdRng};

/// The five benchmark test functions of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestFunction {
    /// `U1 = U2 * U3`
    Lcm,
    /// `psi1 = U1 * psi2`
    Upsi,
    /// `G1 = G2 * G3`
    Spmat,
    /// `psi0 = U1*psi1 + U1*psi2`
    Matvec,
    /// `psi0 = A * psi1` (clover)
    Clover,
}

impl TestFunction {
    /// All five, in Table II order.
    pub fn all() -> [TestFunction; 5] {
        [
            TestFunction::Lcm,
            TestFunction::Upsi,
            TestFunction::Spmat,
            TestFunction::Matvec,
            TestFunction::Clover,
        ]
    }

    /// Table II name.
    pub fn name(self) -> &'static str {
        match self {
            TestFunction::Lcm => "lcm",
            TestFunction::Upsi => "upsi",
            TestFunction::Spmat => "spmat",
            TestFunction::Matvec => "matvec",
            TestFunction::Clover => "clover",
        }
    }

    /// Table II's published flop/byte in DP.
    pub fn paper_flop_per_byte(self) -> f64 {
        match self {
            TestFunction::Lcm => 0.458,
            TestFunction::Upsi => 0.5,
            TestFunction::Spmat => 0.62,
            TestFunction::Matvec => 0.64,
            TestFunction::Clover => 0.525,
        }
    }
}

/// One measurement from [`bench_kernel`].
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Test function.
    pub func: TestFunction,
    /// Lattice extent `L` (volume `L⁴`).
    pub l: usize,
    /// Sustained bandwidth in GB/s (simulated device clock).
    pub gbytes_per_sec: f64,
    /// Generated-kernel arithmetic intensity (flops/byte).
    pub flop_per_byte: f64,
    /// Auto-tuned block size the launches settled on.
    pub block_size: u32,
    /// Generated kernel name.
    pub kernel: String,
}

fn run_expr<E: qdp_core::SiteElem>(
    target: &qdp_core::Lattice<E>,
    expr: impl Fn() -> QExpr<E>,
    launches: usize,
) -> qdp_core::EvalReport {
    // auto-tuning happens on payload launches; keep launching until the
    // tuner settles, then measure the settled configuration
    let mut last = target.assign(expr()).unwrap();
    for _ in 0..launches {
        last = target.assign(expr()).unwrap();
    }
    last
}

/// Run one Table II test function at volume `L⁴` in the given precision on
/// a fresh K20x context (paper Fig. 4/5 conditions). `validate` turns on
/// functional payload execution (slower; used at small volumes to check
/// results against the CPU reference).
pub fn bench_kernel(func: TestFunction, l: usize, ft: FloatType, validate: bool) -> KernelBench {
    let ctx = QdpContext::k20x(Geometry::symmetric(l));
    let mut rng = StdRng::seed_from_u64(1234);
    ctx.set_payload_execution(validate);

    macro_rules! fermion_pair {
        ($R:ty) => {{
            let u = qdp_core::Lattice::<qdp_types::ColorMatrix<$R>>::from_fn(&ctx, |_| {
                PScalar(random_su3(&mut rng))
            });
            let p1 = qdp_core::Lattice::<qdp_types::Fermion<$R>>::from_fn(&ctx, |_| {
                PVector::from_fn(|_| {
                    PVector::from_fn(|_| qdp_types::su3::gaussian_complex(&mut rng))
                })
            });
            let p2 = qdp_core::Lattice::<qdp_types::Fermion<$R>>::from_fn(&ctx, |_| {
                PVector::from_fn(|_| {
                    PVector::from_fn(|_| qdp_types::su3::gaussian_complex(&mut rng))
                })
            });
            (u, p1, p2)
        }};
    }

    macro_rules! dispatch {
        ($R:ty) => {{
            let report = match func {
                TestFunction::Lcm => {
                    let u2 = qdp_core::Lattice::<qdp_types::ColorMatrix<$R>>::from_fn(
                        &ctx,
                        |_| PScalar(random_su3(&mut rng)),
                    );
                    let u3 = qdp_core::Lattice::<qdp_types::ColorMatrix<$R>>::from_fn(
                        &ctx,
                        |_| PScalar(random_su3(&mut rng)),
                    );
                    let out = qdp_core::Lattice::<qdp_types::ColorMatrix<$R>>::new(&ctx);
                    run_expr(&out, || u2.q() * u3.q(), 8)
                }
                TestFunction::Upsi => {
                    let (u, p1, _p2) = fermion_pair!($R);
                    let out = qdp_core::Lattice::<qdp_types::Fermion<$R>>::new(&ctx);
                    run_expr(&out, || u.q() * p1.q(), 8)
                }
                TestFunction::Spmat => {
                    let g2 = qdp_core::Lattice::<qdp_types::SpinMatrix<$R>>::from_fn(
                        &ctx,
                        |_| {
                            qdp_types::PMatrix::from_fn(|_, _| {
                                PScalar(qdp_types::su3::gaussian_complex(&mut rng))
                            })
                        },
                    );
                    let g3 = qdp_core::Lattice::<qdp_types::SpinMatrix<$R>>::from_fn(
                        &ctx,
                        |_| {
                            qdp_types::PMatrix::from_fn(|_, _| {
                                PScalar(qdp_types::su3::gaussian_complex(&mut rng))
                            })
                        },
                    );
                    let out = qdp_core::Lattice::<qdp_types::SpinMatrix<$R>>::new(&ctx);
                    run_expr(&out, || g2.q() * g3.q(), 8)
                }
                TestFunction::Matvec => {
                    let (u, p1, p2) = fermion_pair!($R);
                    let out = qdp_core::Lattice::<qdp_types::Fermion<$R>>::new(&ctx);
                    run_expr(&out, || u.q() * p1.q() + u.q() * p2.q(), 8)
                }
                TestFunction::Clover => {
                    // clover kernels only exist in f64 host construction;
                    // for SP we fill the packed fields directly
                    let diag = qdp_core::Lattice::<qdp_types::CloverDiag<$R>>::from_fn(
                        &ctx,
                        |_| qdp_types::CloverDiag {
                            blocks: std::array::from_fn(|_| {
                                std::array::from_fn(|d| {
                                    <$R as qdp_types::Real>::from_f64(2.0 + 0.1 * d as f64)
                                })
                            }),
                        },
                    );
                    let tri = qdp_core::Lattice::<qdp_types::CloverTriang<$R>>::from_fn(
                        &ctx,
                        |_| qdp_types::CloverTriang {
                            blocks: std::array::from_fn(|_| {
                                std::array::from_fn(|_| {
                                    qdp_types::su3::gaussian_complex(&mut rng)
                                })
                            }),
                        },
                    );
                    let (_u, p1, _p2) = fermion_pair!($R);
                    let out = qdp_core::Lattice::<qdp_types::Fermion<$R>>::new(&ctx);
                    run_expr(&out, || clover_mul(&diag, &tri, p1.q()), 8)
                }
            };
            report
        }};
    }

    let report = match ft {
        FloatType::F32 => dispatch!(f32),
        FloatType::F64 => dispatch!(f64),
    };

    KernelBench {
        func,
        l,
        gbytes_per_sec: report.bandwidth / 1e9,
        flop_per_byte: intensity(&report),
        block_size: report.block_size,
        kernel: report.kernel_name,
    }
}

/// Arithmetic intensity from an [`EvalReport`] (flop/byte).
pub fn intensity(report: &qdp_core::EvalReport) -> f64 {
    if report.bandwidth == 0.0 {
        0.0
    } else {
        report.flops_rate / report.bandwidth
    }
}
