//! Hybrid Monte Carlo: integrators, action terms (gauge, two-flavor
//! pseudofermions, Hasenbusch mass preconditioning, one-flavor rational)
//! and the Metropolis trajectory — the paper's gauge-generation workload
//! (§VIII-D).

use crate::fermion::WilsonDirac;
use crate::force::{axpy_forces, gauge_force, two_flavor_force, wilson_deriv_expr};
use crate::gauge::{gaussian_fermion, kinetic_energy, refresh_momenta, GaugeField};
use crate::solver::{apply_rational, cg_solve, multishift_cg};
use crate::zolotarev::PartialFraction;
use qdp_core::prelude::*;
use qdp_core::expm;
use qdp_core::reduce_inner_product;
use qdp_rng::{Rng, StdRng};
use std::sync::Arc;

/// MD integrator scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Integrator {
    /// Standard leapfrog (2nd order).
    Leapfrog,
    /// Omelyan-Mryglod-Folk 2nd-order with one extra force evaluation per
    /// step; λ ≈ 0.193 minimises the error coefficient.
    Omelyan {
        /// The λ parameter.
        lambda: f64,
    },
}

impl Integrator {
    /// The standard Omelyan choice.
    pub fn omelyan() -> Integrator {
        Integrator::Omelyan { lambda: 0.1931833275037836 }
    }
}

/// One term of the molecular-dynamics action.
pub trait ForceTerm {
    /// `S(U)` for the Metropolis energy.
    fn action(&mut self, g: &GaugeField) -> Result<f64, CoreError>;
    /// `F_µ = −∂S` (so `Ṗ = F`).
    fn force(&mut self, g: &GaugeField)
        -> Result<Multi1d<LatticeColorMatrix<f64>>, CoreError>;
    /// Pseudofermion heat bath at the start of a trajectory.
    fn refresh(&mut self, g: &GaugeField, rng: &mut StdRng) -> Result<(), CoreError>;
    /// Human-readable name for reports.
    fn name(&self) -> &str;
}

/// The Wilson plaquette gauge action.
pub struct GaugeAction {
    /// Coupling β.
    pub beta: f64,
}

impl ForceTerm for GaugeAction {
    fn action(&mut self, g: &GaugeField) -> Result<f64, CoreError> {
        g.wilson_action(self.beta)
    }
    fn force(
        &mut self,
        g: &GaugeField,
    ) -> Result<Multi1d<LatticeColorMatrix<f64>>, CoreError> {
        gauge_force(g, self.beta)
    }
    fn refresh(&mut self, _g: &GaugeField, _rng: &mut StdRng) -> Result<(), CoreError> {
        Ok(())
    }
    fn name(&self) -> &str {
        "gauge"
    }
}

/// Two degenerate flavors of Wilson fermions:
/// `S_f = φ† (M†M)⁻¹ φ`, heat bath `φ = M† η`.
pub struct TwoFlavorWilson {
    /// Bare quark mass.
    pub mass: f64,
    /// CG tolerance for the MD solves.
    pub tol: f64,
    /// CG iteration cap.
    pub max_iters: usize,
    /// The pseudofermion `φ`, drawn by `refresh` (or set by the caller
    /// before `Hmc::evolve`).
    pub phi: Option<LatticeFermion<f64>>,
    /// CG iterations spent (trajectory statistics).
    pub cg_iters: usize,
}

impl TwoFlavorWilson {
    /// New term.
    pub fn new(mass: f64, tol: f64, max_iters: usize) -> TwoFlavorWilson {
        TwoFlavorWilson {
            mass,
            tol,
            max_iters,
            phi: None,
            cg_iters: 0,
        }
    }

    fn solve_x(
        &mut self,
        g: &GaugeField,
    ) -> Result<(WilsonDirac, LatticeFermion<f64>), CoreError> {
        let m = WilsonDirac::new(g, self.mass, None);
        let ctx = m.context();
        let phi = self.phi.as_ref().expect("refresh before use");
        let x = LatticeFermion::<f64>::new(ctx);
        let rep = cg_solve(&m, &x, phi, self.tol, self.max_iters)?;
        self.cg_iters += rep.iters;
        if !rep.converged {
            return Err(CoreError::Msg(format!(
                "fermion CG failed to converge: {rep:?}"
            )));
        }
        Ok((m, x))
    }
}

impl ForceTerm for TwoFlavorWilson {
    fn action(&mut self, g: &GaugeField) -> Result<f64, CoreError> {
        let (m, x) = self.solve_x(g)?;
        let ctx = m.context();
        let phi = self.phi.as_ref().unwrap();
        Ok(reduce_inner_product(ctx, &phi.q(), &x.q(), Subset::All)?.re)
    }

    fn force(
        &mut self,
        g: &GaugeField,
    ) -> Result<Multi1d<LatticeColorMatrix<f64>>, CoreError> {
        let (m, x) = self.solve_x(g)?;
        let ctx = m.context();
        let y = LatticeFermion::<f64>::new(ctx);
        m.apply(&y, &x)?;
        two_flavor_force(&m, &x, &y)
    }

    fn refresh(&mut self, g: &GaugeField, rng: &mut StdRng) -> Result<(), CoreError> {
        let m = WilsonDirac::new(g, self.mass, None);
        let ctx = m.context();
        let eta = gaussian_fermion(ctx, rng);
        let phi = LatticeFermion::<f64>::new(ctx);
        m.apply_dag(&phi, &eta)?;
        self.phi = Some(phi);
        Ok(())
    }

    fn name(&self) -> &str {
        "two-flavor Wilson"
    }
}

/// Hasenbusch-preconditioned pair \[13\]: splits
/// `det(M†M) = det(M_h†M_h) · det[M_h(M†M)⁻¹M_h†]` with a heavier mass
/// `m_h > m` — the light force becomes small, allowing larger steps.
pub struct HasenbuschPair {
    /// Light mass.
    pub mass: f64,
    /// Heavy (preconditioning) mass.
    pub mass_h: f64,
    /// CG tolerance.
    pub tol: f64,
    /// CG cap.
    pub max_iters: usize,
    phi1: Option<LatticeFermion<f64>>,
    phi2: Option<LatticeFermion<f64>>,
    /// CG iterations spent.
    pub cg_iters: usize,
}

impl HasenbuschPair {
    /// New pair.
    pub fn new(mass: f64, mass_h: f64, tol: f64, max_iters: usize) -> HasenbuschPair {
        assert!(mass_h > mass);
        HasenbuschPair {
            mass,
            mass_h,
            tol,
            max_iters,
            phi1: None,
            phi2: None,
            cg_iters: 0,
        }
    }
}

impl ForceTerm for HasenbuschPair {
    fn action(&mut self, g: &GaugeField) -> Result<f64, CoreError> {
        let mh = WilsonDirac::new(g, self.mass_h, None);
        let ml = WilsonDirac::new(g, self.mass, None);
        let ctx = mh.context();
        // S1 = φ1†(Mh†Mh)⁻¹φ1
        let phi1 = self.phi1.as_ref().expect("refresh first");
        let x1 = LatticeFermion::<f64>::new(ctx);
        let rep = cg_solve(&mh, &x1, phi1, self.tol, self.max_iters)?;
        self.cg_iters += rep.iters;
        let s1 = reduce_inner_product(ctx, &phi1.q(), &x1.q(), Subset::All)?.re;
        // S2 = Z†(M†M)⁻¹Z with Z = Mh† φ2
        let phi2 = self.phi2.as_ref().expect("refresh first");
        let z = LatticeFermion::<f64>::new(ctx);
        mh.apply_dag(&z, phi2)?;
        let x2 = LatticeFermion::<f64>::new(ctx);
        let rep = cg_solve(&ml, &x2, &z, self.tol, self.max_iters)?;
        self.cg_iters += rep.iters;
        let s2 = reduce_inner_product(ctx, &z.q(), &x2.q(), Subset::All)?.re;
        Ok(s1 + s2)
    }

    fn force(
        &mut self,
        g: &GaugeField,
    ) -> Result<Multi1d<LatticeColorMatrix<f64>>, CoreError> {
        let mh = WilsonDirac::new(g, self.mass_h, None);
        let ml = WilsonDirac::new(g, self.mass, None);
        let ctx = mh.context();

        // --- S1 (heavy two-flavor) ---
        let phi1 = self.phi1.as_ref().expect("refresh first");
        let x1 = LatticeFermion::<f64>::new(ctx);
        let rep = cg_solve(&mh, &x1, phi1, self.tol, self.max_iters)?;
        self.cg_iters += rep.iters;
        let y1 = LatticeFermion::<f64>::new(ctx);
        mh.apply(&y1, &x1)?;
        let total = two_flavor_force(&mh, &x1, &y1)?;

        // --- S2 (mass ratio) ---
        let phi2 = self.phi2.as_ref().expect("refresh first");
        let z = LatticeFermion::<f64>::new(ctx);
        mh.apply_dag(&z, phi2)?;
        let x2 = LatticeFermion::<f64>::new(ctx);
        let rep = cg_solve(&ml, &x2, &z, self.tol, self.max_iters)?;
        self.cg_iters += rep.iters;
        let y2 = LatticeFermion::<f64>::new(ctx);
        ml.apply(&y2, &x2)?;
        // gradient of S2 = 2·G(X2, φ2) − 2·G(X2, Y2)
        let f_light = two_flavor_force(&ml, &x2, &y2)?; // = −2·G(X2,Y2)
        axpy_forces(&total, 1.0, &f_light)?;
        for mu in 0..4 {
            let g_mix = LatticeColorMatrix::<f64>::new(ctx);
            g_mix.assign(2.0 * wilson_deriv_expr(&mh.u, &x2, phi2, mu))?;
            total[mu].assign(total[mu].q() + g_mix.q())?;
        }
        Ok(total)
    }

    fn refresh(&mut self, g: &GaugeField, rng: &mut StdRng) -> Result<(), CoreError> {
        let mh = WilsonDirac::new(g, self.mass_h, None);
        let ml = WilsonDirac::new(g, self.mass, None);
        let ctx = mh.context();
        // φ1 = Mh† η1
        let eta1 = gaussian_fermion(ctx, rng);
        let phi1 = LatticeFermion::<f64>::new(ctx);
        mh.apply_dag(&phi1, &eta1)?;
        self.phi1 = Some(phi1);
        // φ2: (Mh†Mh) w = M†η2, then φ2 = Mh w.
        let eta2 = gaussian_fermion(ctx, rng);
        let target = LatticeFermion::<f64>::new(ctx);
        ml.apply_dag(&target, &eta2)?;
        let w = LatticeFermion::<f64>::new(ctx);
        let rep = cg_solve(&mh, &w, &target, self.tol, self.max_iters)?;
        self.cg_iters += rep.iters;
        let phi2 = LatticeFermion::<f64>::new(ctx);
        mh.apply(&phi2, &w)?;
        self.phi2 = Some(phi2);
        Ok(())
    }

    fn name(&self) -> &str {
        "Hasenbusch pair"
    }
}

/// One flavor via the rational approximation \[14\]:
/// `S = φ† r(M†M) φ` with `r(x) ≈ x^(−1/2)` (Zolotarev), heat bath
/// `φ = r₄(M†M) η` with `r₄(x) ≈ x^(1/4)`.
pub struct RationalOneFlavor {
    /// Bare quark mass.
    pub mass: f64,
    /// The action kernel `r ≈ x^(−1/2)` in partial fractions.
    pub r_action: PartialFraction,
    /// The heat-bath kernel `r₄ ≈ x^(1/4)`.
    pub r_heat: PartialFraction,
    /// Multi-shift CG tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    phi: Option<LatticeFermion<f64>>,
    /// CG iterations spent.
    pub cg_iters: usize,
}

impl RationalOneFlavor {
    /// New term with the given rational kernels.
    pub fn new(
        mass: f64,
        r_action: PartialFraction,
        r_heat: PartialFraction,
        tol: f64,
        max_iters: usize,
    ) -> RationalOneFlavor {
        RationalOneFlavor {
            mass,
            r_action,
            r_heat,
            tol,
            max_iters,
            phi: None,
            cg_iters: 0,
        }
    }
}

impl ForceTerm for RationalOneFlavor {
    fn action(&mut self, g: &GaugeField) -> Result<f64, CoreError> {
        let m = WilsonDirac::new(g, self.mass, None);
        let ctx = m.context();
        let phi = self.phi.as_ref().expect("refresh first");
        let rphi = LatticeFermion::<f64>::new(ctx);
        let rep = apply_rational(
            &m,
            self.r_action.c,
            &self.r_action.alphas,
            &self.r_action.betas,
            &rphi,
            phi,
            self.tol,
            self.max_iters,
        )?;
        self.cg_iters += rep.iters;
        Ok(reduce_inner_product(ctx, &phi.q(), &rphi.q(), Subset::All)?.re)
    }

    fn force(
        &mut self,
        g: &GaugeField,
    ) -> Result<Multi1d<LatticeColorMatrix<f64>>, CoreError> {
        let m = WilsonDirac::new(g, self.mass, None);
        let ctx = m.context();
        let phi = self.phi.as_ref().expect("refresh first");
        let xs: Vec<LatticeFermion<f64>> = (0..self.r_action.betas.len())
            .map(|_| LatticeFermion::new(ctx))
            .collect();
        let rep = multishift_cg(&m, &self.r_action.betas, &xs, phi, self.tol, self.max_iters)?;
        self.cg_iters += rep.iters;
        let total = Multi1d::from_fn(4, |_| {
            let f = LatticeColorMatrix::<f64>::new(ctx);
            f.assign(0.0 * f.q()).unwrap();
            f
        });
        let y = LatticeFermion::<f64>::new(ctx);
        for (alpha, x) in self.r_action.alphas.iter().zip(xs.iter()) {
            m.apply(&y, x)?;
            let f_k = two_flavor_force(&m, x, &y)?;
            axpy_forces(&total, *alpha, &f_k)?;
        }
        Ok(total)
    }

    fn refresh(&mut self, g: &GaugeField, rng: &mut StdRng) -> Result<(), CoreError> {
        let m = WilsonDirac::new(g, self.mass, None);
        let ctx = m.context();
        let eta = gaussian_fermion(ctx, rng);
        let phi = LatticeFermion::<f64>::new(ctx);
        let rep = apply_rational(
            &m,
            self.r_heat.c,
            &self.r_heat.alphas,
            &self.r_heat.betas,
            &phi,
            &eta,
            self.tol,
            self.max_iters,
        )?;
        self.cg_iters += rep.iters;
        self.phi = Some(phi);
        Ok(())
    }

    fn name(&self) -> &str {
        "rational one-flavor"
    }
}

/// One trajectory's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmcReport {
    /// `ΔH = H' − H`.
    pub delta_h: f64,
    /// Metropolis decision.
    pub accepted: bool,
    /// Average plaquette after the trajectory.
    pub plaquette: f64,
    /// Kinetic part of `H` at the start (diagnostics).
    pub kinetic_start: f64,
}

/// The HMC driver.
pub struct Hmc {
    /// MD step size.
    pub dt: f64,
    /// Steps per trajectory (τ = dt · n_steps).
    pub n_steps: usize,
    /// Integrator scheme.
    pub integrator: Integrator,
    /// Action terms.
    pub terms: Vec<Box<dyn ForceTerm>>,
}

impl Hmc {
    /// Pure-gauge HMC.
    pub fn pure_gauge(beta: f64, dt: f64, n_steps: usize) -> Hmc {
        Hmc {
            dt,
            n_steps,
            integrator: Integrator::Leapfrog,
            terms: vec![Box::new(GaugeAction { beta })],
        }
    }

    fn total_action(&mut self, g: &GaugeField) -> Result<f64, CoreError> {
        let mut s = 0.0;
        for t in self.terms.iter_mut() {
            s += t.action(g)?;
        }
        Ok(s)
    }

    fn total_force(
        &mut self,
        g: &GaugeField,
    ) -> Result<Multi1d<LatticeColorMatrix<f64>>, CoreError> {
        let mut total: Option<Multi1d<LatticeColorMatrix<f64>>> = None;
        for t in self.terms.iter_mut() {
            let f = {
                let device = g.context().device();
                let tel = g.context().telemetry();
                let span = tel
                    .span("hmc", &format!("force:{}", t.name()))
                    .with_sim(device.now());
                let f = t.force(g)?;
                span.end_with_sim(device.now());
                f
            };
            match &total {
                None => total = Some(f),
                Some(acc) => axpy_forces(acc, 1.0, &f)?,
            }
        }
        Ok(total.expect("at least one term"))
    }

    fn update_links(
        g: &GaugeField,
        p: &Multi1d<LatticeColorMatrix<f64>>,
        dt: f64,
    ) -> Result<(), CoreError> {
        for mu in 0..4 {
            g.u[mu].assign(expm(dt * p[mu].q()) * g.u[mu].q())?;
        }
        Ok(())
    }

    /// Run the MD integration (in place on `g`, `p`).
    pub fn integrate(
        &mut self,
        g: &GaugeField,
        p: &Multi1d<LatticeColorMatrix<f64>>,
    ) -> Result<(), CoreError> {
        let dt = self.dt;
        let device = Arc::clone(g.context().device());
        let tel = Arc::clone(g.context().telemetry());
        match self.integrator {
            Integrator::Leapfrog => {
                let f = self.total_force(g)?;
                axpy_forces(p, 0.5 * dt, &f)?;
                for step in 0..self.n_steps {
                    let span = tel.span("hmc", "md_step").with_sim(device.now());
                    Self::update_links(g, p, dt)?;
                    let f = self.total_force(g)?;
                    let w = if step + 1 == self.n_steps { 0.5 * dt } else { dt };
                    axpy_forces(p, w, &f)?;
                    span.end_with_sim(device.now());
                }
            }
            Integrator::Omelyan { lambda } => {
                for _ in 0..self.n_steps {
                    let span = tel.span("hmc", "md_step").with_sim(device.now());
                    let f = self.total_force(g)?;
                    axpy_forces(p, lambda * dt, &f)?;
                    Self::update_links(g, p, 0.5 * dt)?;
                    let f = self.total_force(g)?;
                    axpy_forces(p, (1.0 - 2.0 * lambda) * dt, &f)?;
                    Self::update_links(g, p, 0.5 * dt)?;
                    let f = self.total_force(g)?;
                    axpy_forces(p, lambda * dt, &f)?;
                    span.end_with_sim(device.now());
                }
            }
        }
        Ok(())
    }

    /// One full HMC trajectory: pseudofermion and momentum refresh from
    /// `rng`, then [`Hmc::evolve`] with the same stream deciding the
    /// Metropolis step.
    pub fn trajectory(
        &mut self,
        g: &GaugeField,
        rng: &mut StdRng,
    ) -> Result<HmcReport, CoreError> {
        let device = Arc::clone(g.context().device());
        let tel = Arc::clone(g.context().telemetry());
        let traj_span = tel.span("hmc", "trajectory").with_sim(device.now());
        for t in self.terms.iter_mut() {
            t.refresh(g, rng)?;
        }
        let p = refresh_momenta(g.context(), rng);
        let report = self.evolve(g, &p, rng)?;
        traj_span.end_with_sim(device.now());
        Ok(report)
    }

    /// The trajectory after the refresh: MD integration of `g` and the
    /// already-drawn momenta `p` (in place), then Metropolis accept/reject
    /// drawing from `accept_rng`. Split from [`Hmc::trajectory`] so a
    /// campaign can checkpoint between the (rank-local) refresh and the
    /// first reduction; on a multi-rank context `accept_rng` must be in the
    /// same state on every rank.
    pub fn evolve(
        &mut self,
        g: &GaugeField,
        p: &Multi1d<LatticeColorMatrix<f64>>,
        accept_rng: &mut StdRng,
    ) -> Result<HmcReport, CoreError> {
        let t0 = kinetic_energy(p)?;
        let h0 = t0 + self.total_action(g)?;

        let backup = g.clone_config();
        self.integrate(g, p)?;
        let h1 = kinetic_energy(p)? + self.total_action(g)?;
        let dh = h1 - h0;

        // reductions return the same bits on every rank, so with a shared
        // `accept_rng` every rank takes the same branch
        let accept = dh <= 0.0 || accept_rng.random::<f64>() < (-dh).exp();
        if !accept {
            // restore
            for mu in 0..4 {
                g.u[mu].assign(backup.u[mu].q())?;
            }
        } else {
            g.reunitarize();
        }
        Ok(HmcReport {
            delta_h: dh,
            accepted: accept,
            plaquette: g.plaquette()?,
            kinetic_start: t0,
        })
    }
}
