//! # quda-sim — the hand-tuned baseline library
//!
//! Stands in for the QUDA library \[2\] in the paper's comparisons:
//!
//! * §VIII-C compares the generated Wilson dslash against QUDA's hand-tuned
//!   one on the same hardware (SP: 346 vs 197 GFLOPS — 1.76×; DP: 171 vs
//!   90 — 1.9×). The headroom comes from hand optimisations the generator
//!   does not perform — chiefly on-chip reuse of neighbouring spinors,
//!   which cuts the dslash's global traffic roughly in half. The
//!   [`perf::quda_dslash_bytes`] model implements exactly that: same
//!   sustained bandwidth as the device, *reduced* bytes.
//! * §VIII-D's "CPU+QUDA" configuration calls the solvers through the
//!   **legacy interface** — every solve copies the gauge/spinor/clover
//!   fields to the GPU and back *and* changes the data layout on the CPU.
//!   "QDP-JIT+QUDA" uses the **device interface**, which accepts the
//!   QDP-JIT layout directly (zero copy). [`Interface`] models both.
//! * a functional host-side Wilson dslash ([`host_dslash`]) — an
//!   independent hand-written implementation validated against the
//!   generated kernels in the workspace integration tests.

use qdp_layout::{Dir, Geometry};
use qdp_types::{ColorMatrix, Fermion, Gamma, PVector};

/// How the application hands fields to the solver library (paper §VIII-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interface {
    /// Fields live on the host in QDP++ layout: every call pays
    /// host→device→host transfers plus a CPU re-layout pass.
    Legacy,
    /// QUDA's device interface: accepts the QDP-JIT device layout — no
    /// copies, no re-layout ("eliminates the requirement to copy the
    /// spinor, gauge and clover fields to the CPU memory").
    Device,
}

/// Performance model of the hand-tuned kernels.
pub mod perf {
    use qdp_gpu_sim::DeviceConfig;

    /// Bytes per site of the *generated* Wilson dslash: 8 links + 9 spinors.
    pub fn generated_dslash_bytes(dp: bool) -> f64 {
        let w = if dp { 8.0 } else { 4.0 };
        (8.0 * 18.0 + 9.0 * 24.0) * w
    }

    /// Bytes per site of QUDA's dslash: neighbouring spinors are reused
    /// through on-chip memory, so effectively 8 links + ~2 spinors move
    /// through DRAM.
    pub fn quda_dslash_bytes(dp: bool) -> f64 {
        let w = if dp { 8.0 } else { 4.0 };
        (8.0 * 18.0 + 2.0 * 24.0) * w
    }

    /// Flops per site of the Wilson dslash (standard count).
    pub const DSLASH_FLOPS: f64 = 1320.0;

    /// Hand-tuned dslash execution time for a local volume.
    #[cfg(test)]
    pub(crate) fn quda_dslash_time(cfg: &DeviceConfig, vol: usize, dp: bool) -> f64 {
        let bytes = vol as f64 * quda_dslash_bytes(dp);
        let bw = cfg.peak_bandwidth * cfg.sustained_fraction;
        cfg.launch_overhead + bytes / bw
    }

    /// Achieved GFLOPS of the hand-tuned dslash.
    #[cfg(test)]
    pub(crate) fn quda_dslash_gflops(cfg: &DeviceConfig, vol: usize, dp: bool) -> f64 {
        vol as f64 * DSLASH_FLOPS / quda_dslash_time(cfg, vol, dp) / 1e9
    }

    /// Interface overhead per solver call (paper §VIII-D): the legacy path
    /// moves gauge (4×18 reals/site) + 2 spinors (24) each way and pays a
    /// CPU re-layout pass; the device path is free.
    pub fn interface_overhead(
        iface: super::Interface,
        cfg: &DeviceConfig,
        vol: usize,
        dp: bool,
        cpu_bandwidth: f64,
    ) -> f64 {
        match iface {
            super::Interface::Device => 0.0,
            super::Interface::Legacy => {
                let w = if dp { 8.0 } else { 4.0 };
                let bytes = vol as f64 * (4.0 * 18.0 + 2.0 * 24.0) * w;
                let pcie = 2.0 * (cfg.pcie_latency + bytes / cfg.pcie_bandwidth);
                let relayout = 2.0 * bytes / cpu_bandwidth;
                pcie + relayout
            }
        }
    }
}

/// Host-side gauge field snapshot (one `Vec` per direction, site-major).
pub struct HostGauge {
    /// `links[mu][site]`.
    pub links: Vec<Vec<ColorMatrix<f64>>>,
    /// The geometry.
    pub geom: Geometry,
}

/// An independent, hand-written Wilson hopping term on host data:
/// `out(x) = Σ_µ (1−γ_µ) U_µ(x) ψ(x+µ̂) + (1+γ_µ) U_µ†(x−µ̂) ψ(x−µ̂)`.
///
/// This is the "specialised implementation" counterpart of the generated
/// kernel; the integration tests check the two agree.
pub fn host_dslash(g: &HostGauge, psi: &[Fermion<f64>]) -> Vec<Fermion<f64>> {
    let geom = &g.geom;
    let vol = geom.vol();
    let mut out = vec![Fermion::<f64>::default(); vol];
    for x in 0..vol {
        let mut acc = Fermion::<f64>::default();
        for mu in 0..4 {
            let gm = Gamma::gamma_mu(mu);
            // forward: (1 − γ_µ) U_µ(x) ψ(x+µ̂)
            let (xf, _) = geom.neighbor(x, mu, Dir::Forward);
            let u: ColorMatrix<f64> = g.links[mu][x];
            let upsi: Fermion<f64> = u * psi[xf];
            let gupsi = gm.apply_fermion(&upsi);
            // backward: (1 + γ_µ) U_µ†(x−µ̂) ψ(x−µ̂)
            let (xb, _) = geom.neighbor(x, mu, Dir::Backward);
            let ub: ColorMatrix<f64> = g.links[mu][xb];
            let udag = qdp_types::PScalar(qdp_types::inner::Ring::adj(ub.0));
            let ubpsi: Fermion<f64> = udag * psi[xb];
            let gubpsi = gm.apply_fermion(&ubpsi);
            for s in 0..4 {
                for c in 0..3 {
                    acc.0[s].0[c] += upsi.0[s].0[c] - gupsi.0[s].0[c];
                    acc.0[s].0[c] += ubpsi.0[s].0[c] + gubpsi.0[s].0[c];
                }
            }
        }
        out[x] = acc;
    }
    out
}

/// Hand-written host Wilson operator `M ψ = (m+4)ψ − ½ H ψ`.
fn host_wilson(g: &HostGauge, mass: f64, psi: &[Fermion<f64>]) -> Vec<Fermion<f64>> {
    let h = host_dslash(g, psi);
    psi.iter()
        .zip(h.iter())
        .map(|(p, hp)| {
            PVector::from_fn(|s| {
                PVector::from_fn(|c| {
                    p.0[s].0[c].scale(mass + 4.0) - hp.0[s].0[c].scale(0.5)
                })
            })
        })
        .collect()
}

/// Host CG on the normal equations `M†M x = b` (the "drop-in solver" the
/// CPU+QUDA configuration calls): `M† = γ₅ M γ₅`.
pub fn host_cg(
    g: &HostGauge,
    mass: f64,
    b: &[Fermion<f64>],
    tol: f64,
    max_iters: usize,
) -> (Vec<Fermion<f64>>, usize) {
    let vol = b.len();
    let g5 = Gamma::gamma5();
    let normal = |v: &[Fermion<f64>]| -> Vec<Fermion<f64>> {
        let mv = host_wilson(g, mass, v);
        let g5mv: Vec<Fermion<f64>> = mv.iter().map(|f| g5.apply_fermion(f)).collect();
        let mg5mv = host_wilson(g, mass, &g5mv);
        mg5mv.iter().map(|f| g5.apply_fermion(f)).collect()
    };
    let dot = |a: &[Fermion<f64>], c: &[Fermion<f64>]| -> f64 {
        let mut s = 0.0;
        for (x, y) in a.iter().zip(c.iter()) {
            for sp in 0..4 {
                for col in 0..3 {
                    let z = x.0[sp].0[col].conj() * y.0[sp].0[col];
                    s += z.re;
                }
            }
        }
        s
    };
    let mut x = vec![Fermion::<f64>::default(); vol];
    let mut r = b.to_vec();
    let mut p = b.to_vec();
    let b2 = dot(b, b);
    let mut r2 = b2;
    let target = tol * tol * b2;
    let mut iters = 0;
    while r2 > target && iters < max_iters {
        let ap = normal(&p);
        let alpha = r2 / dot(&p, &ap);
        for i in 0..vol {
            for s in 0..4 {
                for c in 0..3 {
                    x[i].0[s].0[c] += p[i].0[s].0[c].scale(alpha);
                    r[i].0[s].0[c] -= ap[i].0[s].0[c].scale(alpha);
                }
            }
        }
        let r2n = dot(&r, &r);
        let beta = r2n / r2;
        for i in 0..vol {
            for s in 0..4 {
                for c in 0..3 {
                    p[i].0[s].0[c] = r[i].0[s].0[c] + p[i].0[s].0[c].scale(beta);
                }
            }
        }
        r2 = r2n;
        iters += 1;
    }
    (x, iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_gpu_sim::DeviceConfig;
    use qdp_types::su3::random_su3;
    use qdp_types::Complex;
    use qdp_types::PScalar;
    use qdp_rng::StdRng;
    use qdp_rng::SeedableRng;

    fn setup() -> (HostGauge, Vec<Fermion<f64>>) {
        let geom = Geometry::symmetric(4);
        let mut rng = StdRng::seed_from_u64(5);
        let vol = geom.vol();
        let links = (0..4)
            .map(|_| (0..vol).map(|_| PScalar(random_su3(&mut rng))).collect())
            .collect();
        let psi = (0..vol)
            .map(|_| {
                PVector::from_fn(|_| {
                    PVector::from_fn(|_| qdp_types::su3::gaussian_complex(&mut rng))
                })
            })
            .collect();
        (HostGauge { links, geom }, psi)
    }

    #[test]
    fn headroom_matches_paper_ratios() {
        // paper: SP 346 vs 197 GFLOPS (1.76×), DP 171 vs 90 (1.9×)
        let cfg = DeviceConfig::k20m_ecc_on();
        let ratio_sp =
            perf::generated_dslash_bytes(false) / perf::quda_dslash_bytes(false);
        let ratio_dp = perf::generated_dslash_bytes(true) / perf::quda_dslash_bytes(true);
        assert!(
            (1.6..=2.1).contains(&ratio_sp),
            "SP headroom {ratio_sp} out of the paper's band"
        );
        assert!((1.6..=2.1).contains(&ratio_dp));
        // absolute scale sanity on the 2×K20m testbed at V=40⁴/2 per GPU
        let gf = perf::quda_dslash_gflops(&cfg, 40 * 40 * 40 * 40 / 2, false);
        assert!(gf > 200.0 && gf < 600.0, "QUDA SP dslash {gf} GFLOPS");
    }

    #[test]
    fn legacy_interface_costs_device_interface_does_not() {
        let cfg = DeviceConfig::xk_node_gpu();
        let vol = 24 * 24 * 24 * 64;
        let legacy = perf::interface_overhead(Interface::Legacy, &cfg, vol, true, 18.0e9);
        let device = perf::interface_overhead(Interface::Device, &cfg, vol, true, 18.0e9);
        assert_eq!(device, 0.0);
        assert!(legacy > 1e-3, "legacy overhead {legacy} too small");
    }

    #[test]
    fn host_dslash_gamma5_hermiticity() {
        let (g, psi) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let vol = g.geom.vol();
        let chi: Vec<Fermion<f64>> = (0..vol)
            .map(|_| {
                PVector::from_fn(|_| {
                    PVector::from_fn(|_| qdp_types::su3::gaussian_complex(&mut rng))
                })
            })
            .collect();
        let g5 = Gamma::gamma5();
        let m_psi = host_wilson(&g, 0.2, &psi);
        let g5chi: Vec<Fermion<f64>> = chi.iter().map(|f| g5.apply_fermion(f)).collect();
        let m_g5chi = host_wilson(&g, 0.2, &g5chi);
        let g5m_g5chi: Vec<Fermion<f64>> =
            m_g5chi.iter().map(|f| g5.apply_fermion(f)).collect();
        // ⟨chi, M psi⟩ = ⟨γ5 M γ5 chi, psi⟩
        let dot = |a: &[Fermion<f64>], b: &[Fermion<f64>]| -> Complex<f64> {
            let mut s = Complex::zero();
            for (x, y) in a.iter().zip(b.iter()) {
                for sp in 0..4 {
                    for c in 0..3 {
                        s += x.0[sp].0[c].conj() * y.0[sp].0[c];
                    }
                }
            }
            s
        };
        let lhs = dot(&chi, &m_psi);
        let rhs = dot(&g5m_g5chi, &psi);
        assert!((lhs - rhs).abs() < 1e-8, "{lhs:?} vs {rhs:?}");
    }

    #[test]
    fn host_cg_converges() {
        let (g, b) = setup();
        let (x, iters) = host_cg(&g, 0.4, &b, 1e-8, 500);
        assert!(iters > 0 && iters < 500);
        // verify residual
        let g5 = Gamma::gamma5();
        let mx = host_wilson(&g, 0.4, &x);
        let g5mx: Vec<Fermion<f64>> = mx.iter().map(|f| g5.apply_fermion(f)).collect();
        let mg5mx = host_wilson(&g, 0.4, &g5mx);
        let ax: Vec<Fermion<f64>> = mg5mx.iter().map(|f| g5.apply_fermion(f)).collect();
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..b.len() {
            for s in 0..4 {
                for c in 0..3 {
                    num += (b[i].0[s].0[c] - ax[i].0[s].0[c]).norm_sqr();
                    den += b[i].0[s].0[c].norm_sqr();
                }
            }
        }
        assert!((num / den).sqrt() < 1e-7);
    }
}
