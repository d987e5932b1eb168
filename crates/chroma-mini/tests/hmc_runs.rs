//! End-to-end HMC: the gauge-generation workload of the paper's §VIII-D,
//! functionally verified at laptop scale — pure gauge, two dynamical
//! flavors, Hasenbusch preconditioning, and the one-flavor rational
//! (RHMC) term, all running through the full QDP-JIT pipeline.

use chroma_mini::gauge::{kinetic_energy, refresh_momenta, GaugeField};
use chroma_mini::hmc::{
    GaugeAction, HasenbuschPair, Hmc, Integrator, RationalOneFlavor, TwoFlavorWilson,
};
use chroma_mini::zolotarev::{fit_power, zolotarev_inv_sqrt};
use qdp_core::prelude::*;
use qdp_rng::{SeedableRng, StdRng};
use std::sync::Arc;

fn ctx4() -> Arc<QdpContext> {
    QdpContext::k20x(Geometry::symmetric(4))
}

#[test]
fn pure_gauge_hmc_accepts_and_stays_sane() {
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(1);
    let g = GaugeField::warm(&ctx, &mut rng, 0.3);
    let mut hmc = Hmc::pure_gauge(5.5, 0.02, 10);
    let mut n_accept = 0;
    let mut plaq = 0.0;
    for _ in 0..4 {
        let rep = hmc.trajectory(&g, &mut rng).unwrap();
        assert!(
            rep.delta_h.abs() < 1.0,
            "ΔH out of control: {}",
            rep.delta_h
        );
        if rep.accepted {
            n_accept += 1;
        }
        plaq = rep.plaquette;
    }
    assert!(n_accept >= 3, "acceptance too low: {n_accept}/4");
    assert!((0.0..=1.0).contains(&plaq));
    // links stay on the group manifold
    assert!(g.max_su3_violation() < 1e-10);
}

#[test]
fn pure_gauge_md_is_reversible() {
    // integrate forward, flip momenta, integrate back: the configuration
    // (and H) must return to the start — the essential HMC property.
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(2);
    let g = GaugeField::warm(&ctx, &mut rng, 0.3);
    let g0 = g.clone_config();
    let mut hmc = Hmc::pure_gauge(5.5, 0.02, 8);
    let p = refresh_momenta(&ctx, &mut rng);
    let h0 = kinetic_energy(&p).unwrap() + g.wilson_action(5.5).unwrap();

    hmc.integrate(&g, &p).unwrap();
    // reverse momenta
    for mu in 0..4 {
        p[mu].assign(-p[mu].q()).unwrap();
    }
    hmc.integrate(&g, &p).unwrap();
    let h1 = kinetic_energy(&p).unwrap() + g.wilson_action(5.5).unwrap();
    assert!(
        (h1 - h0).abs() < 1e-6 * h0.abs(),
        "H not reversible: {h0} → {h1}"
    );
    // configuration returns
    let mut worst = 0.0f64;
    for mu in 0..4 {
        let d = LatticeColorMatrix::<f64>::new(&ctx);
        d.assign(g.u[mu].q() - g0.u[mu].q()).unwrap();
        worst = worst.max(d.norm2().unwrap());
    }
    assert!(worst < 1e-16, "links did not return: ‖ΔU‖² = {worst}");
}

#[test]
fn omelyan_beats_leapfrog_at_equal_cost() {
    // Omelyan with the same dt has a much smaller ΔH (its error constant
    // is ~1/10 of leapfrog's).
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(3);
    let g0 = GaugeField::warm(&ctx, &mut rng, 0.3);

    let run = |integrator: Integrator, seed: u64| -> f64 {
        let g = g0.clone_config();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hmc = Hmc {
            dt: 0.04,
            n_steps: 5,
            integrator,
            terms: vec![Box::new(GaugeAction { beta: 5.5 })],
        };
        let p = refresh_momenta(&ctx, &mut rng);
        let h0 = kinetic_energy(&p).unwrap() + g.wilson_action(5.5).unwrap();
        hmc.integrate(&g, &p).unwrap();
        let h1 = kinetic_energy(&p).unwrap() + g.wilson_action(5.5).unwrap();
        (h1 - h0).abs()
    };
    let dh_lf = run(Integrator::Leapfrog, 7);
    let dh_om = run(Integrator::omelyan(), 7);
    assert!(
        dh_om < dh_lf,
        "Omelyan ΔH {dh_om} should beat leapfrog {dh_lf}"
    );
}

#[test]
fn two_flavor_hmc_trajectory() {
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(4);
    let g = GaugeField::warm(&ctx, &mut rng, 0.2);
    let mut hmc = Hmc {
        dt: 0.02,
        n_steps: 5,
        integrator: Integrator::Leapfrog,
        terms: vec![
            Box::new(GaugeAction { beta: 5.5 }),
            Box::new(TwoFlavorWilson::new(0.5, 1e-9, 400)),
        ],
    };
    let rep = hmc.trajectory(&g, &mut rng).unwrap();
    assert!(
        rep.delta_h.abs() < 0.5,
        "2-flavor ΔH too large: {}",
        rep.delta_h
    );
    assert!(g.max_su3_violation() < 1e-10);
}

#[test]
fn two_flavor_md_energy_conservation_improves_with_dt() {
    // the fermion force is correct iff ΔH shrinks ~quadratically with dt
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(5);
    let g0 = GaugeField::warm(&ctx, &mut rng, 0.2);

    let run = |dt: f64, n: usize| -> f64 {
        let g = g0.clone_config();
        let mut rng = StdRng::seed_from_u64(11);
        let mut hmc = Hmc {
            dt,
            n_steps: n,
            integrator: Integrator::Leapfrog,
            terms: vec![
                Box::new(GaugeAction { beta: 5.5 }),
                Box::new(TwoFlavorWilson::new(0.5, 1e-10, 400)),
            ],
        };
        for t in hmc.terms.iter_mut() {
            t.refresh(&g, &mut rng).unwrap();
        }
        let p = refresh_momenta(&ctx, &mut rng);
        let mut h0 = kinetic_energy(&p).unwrap();
        for t in hmc.terms.iter_mut() {
            h0 += t.action(&g).unwrap();
        }
        hmc.integrate(&g, &p).unwrap();
        let mut h1 = kinetic_energy(&p).unwrap();
        for t in hmc.terms.iter_mut() {
            h1 += t.action(&g).unwrap();
        }
        (h1 - h0).abs()
    };
    let dh_coarse = run(0.04, 2);
    let dh_fine = run(0.02, 4);
    assert!(
        dh_fine < 0.6 * dh_coarse,
        "fermion force suspect: ΔH(0.04) = {dh_coarse}, ΔH(0.02) = {dh_fine}"
    );
}

#[test]
fn hasenbusch_action_matches_plain_two_flavor_in_distribution_shape() {
    // Not a statistical test — just: the preconditioned trajectory runs,
    // conserves H reasonably, and its light force is smaller than the
    // unpreconditioned one (the point of mass preconditioning).
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(6);
    let g = GaugeField::warm(&ctx, &mut rng, 0.2);
    let mut hmc = Hmc {
        dt: 0.02,
        n_steps: 4,
        integrator: Integrator::Leapfrog,
        terms: vec![
            Box::new(GaugeAction { beta: 5.5 }),
            Box::new(HasenbuschPair::new(0.4, 1.0, 1e-9, 500)),
        ],
    };
    let rep = hmc.trajectory(&g, &mut rng).unwrap();
    assert!(
        rep.delta_h.abs() < 0.5,
        "Hasenbusch ΔH too large: {}",
        rep.delta_h
    );
}

#[test]
fn rational_one_flavor_runs_and_conserves() {
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(7);
    let g = GaugeField::warm(&ctx, &mut rng, 0.15);
    // spectral bounds for M†M at m = 0.6 on a warm 4⁴ config: safely
    // inside [1, 40]
    let r_action = zolotarev_inv_sqrt(1.0, 60.0, 10);
    let r_heat = fit_power(0.25, 1.0, 60.0, 12);
    assert!(r_action.max_rel_error < 1e-6);
    assert!(r_heat.max_rel_error < 1e-3);
    let mut hmc = Hmc {
        dt: 0.02,
        n_steps: 3,
        integrator: Integrator::Leapfrog,
        terms: vec![
            Box::new(GaugeAction { beta: 5.5 }),
            Box::new(RationalOneFlavor::new(0.6, r_action, r_heat, 1e-9, 500)),
        ],
    };
    let rep = hmc.trajectory(&g, &mut rng).unwrap();
    assert!(
        rep.delta_h.abs() < 0.5,
        "RHMC ΔH too large: {}",
        rep.delta_h
    );
}

#[test]
fn trajectory_uses_a_bounded_kernel_set() {
    // ~200 kernels for the paper's production trajectory (§VIII-D); our
    // mini-trajectory should generate a stable, bounded set, reused across
    // trajectories.
    let ctx = ctx4();
    let mut rng = StdRng::seed_from_u64(8);
    let g = GaugeField::warm(&ctx, &mut rng, 0.25);
    let mut hmc = Hmc {
        dt: 0.02,
        n_steps: 3,
        integrator: Integrator::Leapfrog,
        terms: vec![
            Box::new(GaugeAction { beta: 5.5 }),
            Box::new(TwoFlavorWilson::new(0.5, 1e-8, 300)),
        ],
    };
    hmc.trajectory(&g, &mut rng).unwrap();
    let k1 = ctx.kernels().len();
    hmc.trajectory(&g, &mut rng).unwrap();
    let k2 = ctx.kernels().len();
    assert_eq!(k1, k2, "second trajectory must reuse all kernels");
    assert!(k1 < 250, "kernel count {k1} out of the expected range");
    // JIT overhead estimate, as the paper does: ~0.05–0.22 s per kernel
    let jit = ctx.kernels().stats().modeled_compile_time;
    assert!(jit > 0.05 * k1 as f64 * 0.5);
}
