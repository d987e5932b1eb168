//! The shared lattice-field environment differential sweeps run against.

use qdp_cache::FieldId;
use qdp_core::{OptLevel, QdpConfig, QdpContext};
use qdp_expr::{FieldRef, ShiftDir};
use qdp_gpu_sim::DeviceConfig;
use qdp_layout::{Geometry, LayoutKind, Subset};
use qdp_rng::{Rng, SeedableRng, StdRng};
use qdp_types::{ElemKind, FloatType, TypeShape};
use std::sync::Arc;

/// Every field kind the fixture registers (the generator's leaf alphabet).
const FIXTURE_KINDS: [ElemKind; 8] = [
    ElemKind::ColorMatrix,
    ElemKind::ColorMatrix,
    ElemKind::Fermion,
    ElemKind::Fermion,
    ElemKind::Complex,
    ElemKind::Real,
    ElemKind::CloverDiag,
    ElemKind::CloverTriang,
];

/// A context plus one or two random-filled fields of every kind the
/// expression generator can reference. One fixture is shared across a
/// whole sweep — this matters in pressure mode, where device residency
/// must accumulate across cases for the LRU policy to fire.
pub struct Fixture {
    /// The runtime context (simulated device, caches, tuner, tables).
    pub ctx: Arc<QdpContext>,
    /// Precision of every fixture field.
    pub ft: FloatType,
    /// Two color-matrix fields (gauge-link stand-ins).
    pub u: [FieldRef; 2],
    /// Two fermion fields.
    pub psi: [FieldRef; 2],
    /// A complex scalar field.
    pub zeta: FieldRef,
    /// A real scalar field.
    pub rho: FieldRef,
    /// Clover block-diagonal field.
    pub clov_diag: FieldRef,
    /// Clover block-triangle field.
    pub clov_tri: FieldRef,
    /// Pressure-mode only: fields cycled through the device between cases
    /// to keep the LRU spiller busy.
    ballast: Vec<FieldId>,
}

impl Fixture {
    /// The sweep lattice: small enough to keep 200-DAG sweeps fast, large
    /// enough that every dimension has distinct forward/backward
    /// neighbours and non-trivial even/odd checkerboards.
    pub fn geometry() -> Geometry {
        Geometry::new([4, 2, 2, 4])
    }

    /// Bytes of one field of `kind` at precision `ft` on the sweep lattice.
    pub fn field_bytes(kind: ElemKind, ft: FloatType) -> usize {
        Self::geometry().vol() * TypeShape::of(kind).n_reals() * ft.size_bytes()
    }

    /// Fixture on the paper's benchmark device (no memory pressure), at the
    /// environment's optimizer level.
    pub fn normal(ft: FloatType, seed: u64) -> Fixture {
        Self::new(ft, seed, false, QdpConfig::from_env().opt_level)
    }

    /// Fixture on a device sized so that one eval's worst-case working set
    /// (every fixture field plus two scratch targets, with table slack)
    /// fits, but the ballast rotation does not: the ballast fields alone
    /// exceed the pool, so cycling them dirty between cases forces LRU
    /// spills and page-ins mid-sweep — and results must still match the
    /// reference path.
    pub fn pressure(ft: FloatType, seed: u64) -> Fixture {
        Self::new(ft, seed, true, QdpConfig::from_env().opt_level)
    }

    /// [`Fixture::normal`] or [`Fixture::pressure`] on a context built at
    /// optimizer level `opt`. Fixtures from the same `ft` and `seed` hold
    /// the same [`FieldRef`]s and values at every level.
    pub(crate) fn new(ft: FloatType, seed: u64, pressure: bool, opt: OptLevel) -> Fixture {
        if !pressure {
            return Self::build(DeviceConfig::k20x_ecc_off(), ft, seed, 0, opt);
        }
        let fixture_total: usize = FIXTURE_KINDS
            .iter()
            .map(|k| Self::field_bytes(*k, ft))
            .sum();
        let unit = Self::field_bytes(ElemKind::Fermion, ft);
        let mem = fixture_total + 2 * unit + 16 * 1024;
        // Enough ballast that the rotation cannot stay resident.
        let ballast_n = mem / unit + 2;
        Self::build(DeviceConfig::tiny(mem), ft, seed, ballast_n, opt)
    }

    fn build(
        cfg: DeviceConfig,
        ft: FloatType,
        seed: u64,
        ballast_n: usize,
        opt: OptLevel,
    ) -> Fixture {
        let ctx = QdpContext::builder(Self::geometry())
            .device(cfg)
            .layout(LayoutKind::SoA)
            .config(QdpConfig::from_env())
            .opt_level(opt)
            .build();
        // Pin every table the sweep can need while the device is still
        // empty: tables are raw (non-spillable) allocations, so grabbing
        // them up front keeps the pressure configuration from OOM-ing on
        // a mid-sweep table build.
        for mu in 0..4 {
            for dir in [ShiftDir::Forward, ShiftDir::Backward] {
                ctx.neighbor_table(mu, dir, false)
                    .expect("an empty device pins every neighbour table");
            }
        }
        for subset in [Subset::Even, Subset::Odd] {
            ctx.subset_table(subset)
                .expect("an empty device pins every subset table");
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut reg = |kind: ElemKind| register_filled(&ctx, kind, ft, &mut rng);
        let u = [reg(ElemKind::ColorMatrix), reg(ElemKind::ColorMatrix)];
        let psi = [reg(ElemKind::Fermion), reg(ElemKind::Fermion)];
        let zeta = reg(ElemKind::Complex);
        let rho = reg(ElemKind::Real);
        let clov_diag = reg(ElemKind::CloverDiag);
        let clov_tri = reg(ElemKind::CloverTriang);

        let unit = Self::field_bytes(ElemKind::Fermion, ft);
        let ballast = (0..ballast_n).map(|_| ctx.cache().register(unit)).collect();

        Fixture {
            ctx,
            ft,
            u,
            psi,
            zeta,
            rho,
            clov_diag,
            clov_tri,
            ballast,
        }
    }

    /// The leaf fields in registration order.
    pub(crate) fn leaves(&self) -> [FieldRef; 8] {
        [
            self.u[0], self.u[1], self.psi[0], self.psi[1], self.zeta, self.rho, self.clov_diag,
            self.clov_tri,
        ]
    }

    /// Pressure mode: rotate the ballast fields through the device, dirty,
    /// so the next eval's working set must spill them back out. No-op on a
    /// normal fixture.
    pub fn churn(&self) {
        for &b in &self.ballast {
            if self.ctx.cache().assure_on_device(&[b]).is_ok() {
                let _ = self.ctx.cache().mark_device_dirty(b);
            }
        }
    }

    /// Register a zeroed scratch field for `kind` at the fixture precision.
    pub fn fresh_target(&self, kind: ElemKind) -> FieldRef {
        let id = self
            .ctx
            .cache()
            .register(Self::field_bytes(kind, self.ft));
        FieldRef {
            id,
            kind,
            ft: self.ft,
        }
    }

    /// Drop a scratch field.
    pub fn release(&self, f: FieldRef) {
        self.ctx.cache().unregister(f.id);
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let cache = self.ctx.cache();
        for f in self.leaves() {
            cache.unregister(f.id);
        }
        for &b in &self.ballast {
            cache.unregister(b);
        }
    }
}

/// Register a field and fill its host copy with uniform values in
/// `[-1, 1)` — unit-scale leaves keep deep product chains from blowing up
/// in magnitude, which would drown the ULP comparison in rounding noise.
fn register_filled(
    ctx: &QdpContext,
    kind: ElemKind,
    ft: FloatType,
    rng: &mut StdRng,
) -> FieldRef {
    let n = Fixture::geometry().vol() * TypeShape::of(kind).n_reals();
    let id = ctx.cache().register(n * ft.size_bytes());
    ctx.cache()
        .with_host_mut(id, |bytes| {
            for i in 0..n {
                let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
                match ft {
                    FloatType::F32 => bytes[i * 4..i * 4 + 4]
                        .copy_from_slice(&(v as f32).to_le_bytes()),
                    FloatType::F64 => {
                        bytes[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes())
                    }
                }
            }
        })
        .expect("fixture field fill");
    FieldRef { id, kind, ft }
}
