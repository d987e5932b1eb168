//! The library entry points run on the issuing thread's bound stream: the
//! same `plaquette` / `cg_solve` / `Hmc::trajectory` a single-threaded
//! program calls is what a server runs under a leased stream. Streams are
//! timing-only, so values must not depend on the binding; launches must all
//! land on the bound stream; and an unbound thread is arithmetically on the
//! default stream.

use chroma_mini::gauge::{gaussian_fermion, GaugeField};
use chroma_mini::{cg_solve, CgReport, Hmc, HmcReport, WilsonDirac};
use qdp_core::prelude::*;
use qdp_rng::{SeedableRng, StdRng};
use std::sync::Arc;

/// Which stream the routine under test is issued on.
#[derive(Clone, Copy)]
enum Binding {
    Unbound,
    Default,
    Created,
}

/// What one run leaves behind: the routine's value, the issuing thread's
/// clock, and where the launches went.
#[derive(Debug, PartialEq)]
struct Run<T> {
    value: T,
    clock: f64,
    launches: u64,
    launches_off_default: u64,
}

/// Run `body` on a fresh twin context (same seeded warm configuration)
/// under `binding`.
fn run<T>(
    binding: Binding,
    body: impl Fn(&Arc<QdpContext>, &GaugeField, &mut StdRng) -> T,
) -> Run<T> {
    let ctx = QdpContext::builder(Geometry::symmetric(4)).build();
    ctx.telemetry().enable();
    let device = ctx.device();
    let mut rng = StdRng::seed_from_u64(11);
    let g = GaugeField::warm(&ctx, &mut rng, 0.3);
    let stream = match binding {
        Binding::Unbound => None,
        Binding::Default => Some(StreamId::DEFAULT),
        Binding::Created => Some(device.create_stream("job")),
    };
    let _bound = stream.map(|s| device.bind_stream(s));
    let launches0 = device.stats().launches;
    let value = body(&ctx, &g, &mut rng);
    Run {
        value,
        clock: device.now(),
        launches: device.stats().launches - launches0,
        launches_off_default: ctx.profile_report().counter("stream.async_launches"),
    }
}

/// The three contracts, for one routine.
fn check<T: PartialEq + std::fmt::Debug>(
    body: impl Fn(&Arc<QdpContext>, &GaugeField, &mut StdRng) -> T,
) {
    let unbound = run(Binding::Unbound, &body);
    let on_default = run(Binding::Default, &body);
    let on_created = run(Binding::Created, &body);
    assert!(unbound.launches > 0);
    assert_eq!(
        unbound, on_default,
        "an unbound thread is on the default stream: same values, same clock bits"
    );
    assert_eq!(unbound.launches_off_default, 0);
    assert_eq!(
        on_created.value, unbound.value,
        "streams are timing-only: values bit-identical under a binding"
    );
    assert_eq!(on_created.launches, unbound.launches);
    assert_eq!(
        on_created.launches_off_default, on_created.launches,
        "every kernel and reduction pass lands on the bound stream"
    );
}

#[test]
fn plaquette_runs_on_the_bound_stream() {
    check(|_, g, _| g.plaquette().unwrap());
}

#[test]
fn cg_solve_runs_on_the_bound_stream() {
    check(|ctx, g, rng| -> (CgReport, f64) {
        let m = WilsonDirac::new(g, 0.4, None);
        let b = gaussian_fermion(ctx, rng);
        let x = LatticeFermion::<f64>::new(ctx);
        let report = cg_solve(&m, &x, &b, 1e-8, 200).unwrap();
        assert!(report.converged, "CG must converge: {report:?}");
        (report, x.norm2().unwrap())
    });
}

#[test]
fn hmc_trajectory_runs_on_the_bound_stream() {
    check(|_, g, rng| -> (HmcReport, f64) {
        let report = Hmc::pure_gauge(5.5, 0.01, 10).trajectory(g, rng).unwrap();
        assert!(
            report.delta_h.abs() < 0.5,
            "leapfrog energy violation too large: {}",
            report.delta_h
        );
        // accepted or not, the configuration must stay near SU(3)
        let violation = g.max_su3_violation();
        assert!(violation < 1e-6);
        (report, violation)
    });
}
