//! One application path at any rank count: the HMC a single-rank program
//! calls is the HMC of an N-rank run once a rank is attached to the
//! context. A one-rank grid must change nothing at all, and a real grid
//! must reproduce the single-rank trajectory up to cross-rank summation
//! order.

use chroma_mini::gauge::GaugeField;
use chroma_mini::hmc::{GaugeAction, TwoFlavorWilson};
use chroma_mini::{Hmc, HmcReport, Integrator, WilsonDirac};
use qdp_comm::{run_cluster, LinkModel};
use qdp_core::multinode::MultiRank;
use qdp_core::prelude::*;
use qdp_layout::Decomposition;
use qdp_rng::{SeedableRng, StdRng};
use qdp_types::su3::{expm, gaussian_complex, random_algebra};
use qdp_types::{ColorMatrix, PMatrix, PScalar, PVector};
use std::sync::Arc;

const GLOBAL: [usize; 4] = [4, 4, 4, 4];

fn site_rng(gc: [usize; 4], mu: usize, salt: u64) -> StdRng {
    let key = (((gc[0] * 131 + gc[1]) * 131 + gc[2]) * 131 + gc[3]) * 31 + mu * 7 + 1;
    StdRng::seed_from_u64(key as u64 ^ salt)
}

/// Warm links and Gaussian momenta keyed on the *global* coordinate, so
/// every rank grid over one global lattice holds the same fields.
fn global_fields(
    ctx: &Arc<QdpContext>,
    decomp: &Decomposition,
    rank: usize,
) -> (GaugeField, Multi1d<LatticeColorMatrix<f64>>) {
    let links = Multi1d::from_fn(4, |mu| {
        LatticeColorMatrix::<f64>::from_fn(ctx, |s| {
            let a = random_algebra::<f64>(&mut site_rng(decomp.global_coord(rank, s), mu, 0));
            PScalar(expm(&PMatrix::from_fn(|i, j| a.0[i][j].scale(0.25))))
        })
    });
    let momenta = Multi1d::from_fn(4, |mu| {
        LatticeColorMatrix::<f64>::from_fn(ctx, |s| -> ColorMatrix<f64> {
            PScalar(random_algebra(&mut site_rng(
                decomp.global_coord(rank, s),
                mu,
                0x5eed,
            )))
        })
    });
    (GaugeField::from_links(ctx, links), momenta)
}

fn link_bits(g: &GaugeField) -> Vec<u64> {
    let mut bits = Vec::new();
    for mu in 0..4 {
        for m in g.u[mu].to_vec() {
            for row in m.0 .0 {
                for z in row {
                    bits.extend([z.re.to_bits(), z.im.to_bits()]);
                }
            }
        }
    }
    bits
}

fn report_bits(r: &HmcReport) -> [u64; 4] {
    [
        r.delta_h.to_bits(),
        r.accepted as u64,
        r.plaquette.to_bits(),
        r.kinetic_start.to_bits(),
    ]
}

#[test]
fn one_rank_grid_changes_nothing() {
    // [1,1,1,1] attached vs unattached: no dimension is split and a
    // one-rank allreduce is the identity at no simulated cost, so values,
    // launch count and the device clock must all be bit-identical.
    let run = |attach: bool| {
        run_cluster(1, LinkModel::infiniband_qdr(), move |handle| {
            let decomp = Decomposition::single(GLOBAL);
            let ctx = QdpContext::builder(decomp.local_geometry()).build();
            let _rank = attach
                .then(|| MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, true));
            assert_eq!(ctx.attached_rank().is_some(), attach);
            let mut rng = StdRng::seed_from_u64(11);
            let g = GaugeField::warm(&ctx, &mut rng, 0.3);
            let launches0 = ctx.device().stats().launches;
            let rep = Hmc::pure_gauge(5.5, 0.02, 4)
                .trajectory(&g, &mut rng)
                .unwrap();
            (
                report_bits(&rep),
                link_bits(&g),
                ctx.device().stats().launches - launches0,
                ctx.device().now().to_bits(),
            )
        })
        .remove(0)
    };
    let (unattached, attached) = (run(false), run(true));
    assert!(unattached.2 > 0);
    assert_eq!(unattached, attached);
}

#[test]
fn four_rank_trajectory_is_the_single_rank_trajectory() {
    // [2,1,1,2] over 4^4 against one rank, same global links and momenta,
    // same Metropolis stream: evaluations are bit-identical per site, only
    // the cross-rank order of the sums differs.
    let evolve = |rank_dims: [usize; 4]| {
        run_cluster(
            rank_dims.iter().product(),
            LinkModel::infiniband_qdr(),
            move |handle| {
                let decomp = Decomposition::new(GLOBAL, rank_dims);
                let rank = handle.rank;
                let ctx = QdpContext::builder(decomp.local_geometry()).build();
                let _rank = MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, true);
                let (g, p) = global_fields(&ctx, &decomp, rank);
                let mut metro = StdRng::seed_from_u64(7);
                Hmc::pure_gauge(5.5, 0.05, 3)
                    .evolve(&g, &p, &mut metro)
                    .unwrap()
            },
        )
    };
    let single = evolve([1, 1, 1, 1]).remove(0);
    let ranks = evolve([2, 1, 1, 2]);
    for r in &ranks {
        assert_eq!(report_bits(r), report_bits(&ranks[0]), "ranks must agree bit for bit");
    }
    let multi = ranks[0];
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-10 * b.abs();
    assert_eq!(multi.accepted, single.accepted);
    assert!(
        close(multi.delta_h, single.delta_h),
        "ΔH {} vs single-rank {}",
        multi.delta_h,
        single.delta_h
    );
    assert!(
        close(multi.plaquette, single.plaquette),
        "plaquette {} vs single-rank {}",
        multi.plaquette,
        single.plaquette
    );
    assert!(close(multi.kinetic_start, single.kinetic_start));
}

/// Counters that must not depend on the rank grid: the CG iteration total
/// and what the fusion planner did.
const RANK_FREE_COUNTERS: [&str; 4] = [
    "solver.cg_iters",
    "fuse.groups",
    "fuse.launches_saved",
    "fuse.bailouts",
];

/// Gauge + two-flavour Wilson `Hmc::evolve` on `rank_dims` over `global`,
/// with `φ = M†η` built by `apply_dag` from a global-coordinate-keyed `η`:
/// per rank, the report and the [`RANK_FREE_COUNTERS`].
fn two_flavor_evolve(global: [usize; 4], rank_dims: [usize; 4]) -> Vec<(HmcReport, [u64; 4])> {
    const MASS: f64 = 0.5;
    run_cluster(
        rank_dims.iter().product(),
        LinkModel::infiniband_qdr(),
        move |handle| {
            let decomp = Decomposition::new(global, rank_dims);
            let rank = handle.rank;
            let ctx = QdpContext::builder(decomp.local_geometry()).build();
            ctx.telemetry().enable();
            let _rank = MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, true);
            let (g, p) = global_fields(&ctx, &decomp, rank);
            let eta = LatticeFermion::<f64>::from_fn(&ctx, |s| {
                let mut rng = site_rng(decomp.global_coord(rank, s), 0, 0xe7a);
                PVector::from_fn(|_| PVector::from_fn(|_| gaussian_complex(&mut rng)))
            });
            let phi = LatticeFermion::<f64>::new(&ctx);
            WilsonDirac::new(&g, MASS, None).apply_dag(&phi, &eta).unwrap();
            let mut fermions = TwoFlavorWilson::new(MASS, 1e-8, 300);
            fermions.phi = Some(phi);
            let mut hmc = Hmc {
                dt: 0.02,
                n_steps: 3,
                integrator: Integrator::Leapfrog,
                terms: vec![Box::new(GaugeAction { beta: 5.5 }), Box::new(fermions)],
            };
            let mut metro = StdRng::seed_from_u64(7);
            let report = hmc.evolve(&g, &p, &mut metro).unwrap();
            let rep = ctx.profile_report();
            (report, RANK_FREE_COUNTERS.map(|c| rep.counter(c)))
        },
    )
}

#[test]
fn two_flavor_trajectory_is_the_single_rank_trajectory() {
    // The dynamical trajectory: `apply`/`apply_dag` and every CG solve
    // exchange halos through plain `assign`. Ranks agree bit for bit;
    // against one rank only the cross-rank summation order differs. The
    // fusion planner forms the same groups on every grid, halo statements
    // included. ΔH is a small difference of two O(10³) energies, so it is
    // held to an absolute bound rather than a relative one.
    for (global, rank_dims) in [
        ([4, 4, 4, 4], [2, 1, 1, 2]),
        ([4, 4, 4, 4], [2, 2, 2, 2]),
        ([4, 6, 4, 4], [1, 3, 1, 1]),
    ] {
        let (single, single_counts) = two_flavor_evolve(global, [1, 1, 1, 1]).remove(0);
        assert!(single.accepted, "{global:?}: pick a trajectory that accepts");
        assert!(single_counts[0] > 0 && single_counts[1] > 0);
        let ranks = two_flavor_evolve(global, rank_dims);
        for (r, counts) in &ranks {
            assert_eq!(
                report_bits(r),
                report_bits(&ranks[0].0),
                "{rank_dims:?}: ranks must agree bit for bit"
            );
            assert_eq!(
                *counts, single_counts,
                "{rank_dims:?}: {RANK_FREE_COUNTERS:?} against one rank"
            );
        }
        let multi = ranks[0].0;
        assert_eq!(multi.accepted, single.accepted);
        assert!(
            (multi.delta_h - single.delta_h).abs() <= 1e-9,
            "{rank_dims:?}: ΔH {} vs single-rank {}",
            multi.delta_h,
            single.delta_h
        );
        assert!(
            (multi.plaquette - single.plaquette).abs() <= 1e-10 * single.plaquette.abs(),
            "{rank_dims:?}: plaquette {} vs single-rank {}",
            multi.plaquette,
            single.plaquette
        );
    }
}
