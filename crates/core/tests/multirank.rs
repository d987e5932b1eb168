//! Multi-rank validation: on a context with an attached rank, plain
//! `Lattice::assign` / `norm2` must reproduce the single-rank
//! (global-lattice) result exactly, with and without overlap (§V).

use qdp_core::multinode::MultiRank;
use qdp_core::prelude::*;
use qdp_core::{adj, shift};
use qdp_layout::Decomposition;
use qdp_types::su3::random_su3;
use qdp_types::{ColorMatrix, Complex, Fermion, PScalar, PVector};
use std::sync::Arc;

/// Deterministic site elements from global coordinates, so every rank and
/// the single-rank reference build identical global fields.
fn cm_at(c: [usize; 4]) -> ColorMatrix<f64> {
    let seed = (c[0] * 1009 + c[1] * 101 + c[2] * 13 + c[3] * 7 + 5) as u64;
    let mut rng = <qdp_rng::StdRng as qdp_rng::SeedableRng>::seed_from_u64(seed);
    PScalar(random_su3::<f64>(&mut rng))
}

fn fermion_at(c: [usize; 4]) -> Fermion<f64> {
    PVector::from_fn(|s| {
        PVector::from_fn(|col| {
            Complex::new(
                (c[0] + 2 * c[1] + 3 * c[2] + 4 * c[3] + s) as f64 + 0.25,
                (s * 3 + col) as f64 - 1.5 * c[0] as f64,
            )
        })
    })
}

/// The Fig. 1 covariant derivative along mu.
fn derivative(
    u: &LatticeColorMatrix<f64>,
    psi: &LatticeFermion<f64>,
    mu: usize,
) -> QExpr<Fermion<f64>> {
    u.q() * shift(psi.q(), mu, ShiftDir::Forward)
        + shift(adj(u.q()) * psi.q(), mu, ShiftDir::Backward)
}

fn run_two_ranks(overlap: bool, cuda_aware: bool) -> (Vec<Fermion<f64>>, f64) {
    let global = [8usize, 4, 4, 4];
    let results = qdp_comm::run_cluster(
        2,
        qdp_comm::LinkModel::infiniband_qdr(),
        move |handle| {
            let decomp = Decomposition::new(global, [2, 1, 1, 1]);
            let rank = handle.rank;
            let ctx = QdpContext::new(
                DeviceConfig::k20m_ecc_on(),
                decomp.local_geometry(),
                LayoutKind::SoA,
            );
            let _rank =
                MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, cuda_aware, overlap);
            let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |s| {
                cm_at(decomp.global_coord(rank, s))
            });
            let psi = LatticeFermion::<f64>::from_fn(&ctx, |s| {
                fermion_at(decomp.global_coord(rank, s))
            });
            let out = LatticeFermion::<f64>::new(&ctx);
            // shift along the split dimension AND an unsplit one
            let e = derivative(&u, &psi, 0) + derivative(&u, &psi, 2);
            out.assign(e).unwrap();
            (out.to_vec(), ctx.device().now())
        },
    );
    let out = reassemble(global, [2, 1, 1, 1], results.iter().map(|(local, _)| local));
    let max_clock = results
        .iter()
        .map(|(_, t)| *t)
        .fold(0.0f64, f64::max);
    (out, max_clock)
}

fn single_rank_reference() -> Vec<Fermion<f64>> {
    let global = [8usize, 4, 4, 4];
    let ctx = QdpContext::new(
        DeviceConfig::k20m_ecc_on(),
        Geometry::new(global),
        LayoutKind::SoA,
    );
    let g = ctx.geometry().clone();
    let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |s| cm_at(g.coord_of(s)));
    let psi = LatticeFermion::<f64>::from_fn(&ctx, |s| fermion_at(g.coord_of(s)));
    let out = LatticeFermion::<f64>::new(&ctx);
    let e = derivative(&u, &psi, 0) + derivative(&u, &psi, 2);
    out.assign(e).unwrap();
    out.to_vec()
}

fn assert_same(a: &[Fermion<f64>], b: &[Fermion<f64>], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        for s in 0..4 {
            for c in 0..3 {
                assert_eq!(x.0[s].0[c], y.0[s].0[c], "{what}: global site {i}");
            }
        }
    }
}

/// Reassemble per-rank local fields into the global field in global
/// lexicographic order.
fn reassemble<'a>(
    global: [usize; 4],
    rank_dims: [usize; 4],
    locals: impl Iterator<Item = &'a Vec<Fermion<f64>>>,
) -> Vec<Fermion<f64>> {
    let decomp = Decomposition::new(global, rank_dims);
    let gg = Geometry::new(global);
    let mut out = vec![Fermion::<f64>::default(); gg.vol()];
    for (rank, local) in locals.enumerate() {
        for (s, v) in local.iter().enumerate() {
            out[gg.index_of(decomp.global_coord(rank, s))] = *v;
        }
    }
    out
}

#[test]
fn two_rank_overlap_matches_single_rank() {
    let reference = single_rank_reference();
    let (streamed, _) = run_two_ranks(true, true);
    assert_same(&streamed, &reference, "overlap (stream schedule)");
}

#[test]
fn two_rank_nonoverlap_matches_single_rank() {
    let reference = single_rank_reference();
    let (plain, _) = run_two_ranks(false, true);
    assert_same(&plain, &reference, "non-overlap");
}

#[test]
fn staged_transfers_match_and_cost_more() {
    // without overlap everything serialises on the default stream, so
    // host staging is always visible in the trajectory time
    let (aware, t_aware) = run_two_ranks(false, true);
    let (staged, t_staged) = run_two_ranks(false, false);
    assert_same(&aware, &staged, "staged vs cuda-aware");
    assert!(
        t_staged > t_aware,
        "staging through the host must cost simulated time: {t_staged} vs {t_aware}"
    );
}

#[test]
fn stream_schedule_is_deterministic() {
    // identical modelled times AND identical bytes across runs
    let (a, ta) = run_two_ranks(true, false);
    let (b, tb) = run_two_ranks(true, false);
    assert_same(&a, &b, "stream schedule across runs");
    assert_eq!(ta, tb, "modelled trajectory time must be deterministic");
}

#[test]
fn global_norm2_matches_single_rank() {
    let global = [8usize, 4, 4, 4];
    let single = {
        let ctx = QdpContext::new(
            DeviceConfig::k20m_ecc_on(),
            Geometry::new(global),
            LayoutKind::SoA,
        );
        let g = ctx.geometry().clone();
        let psi = LatticeFermion::<f64>::from_fn(&ctx, |s| fermion_at(g.coord_of(s)));
        psi.norm2().unwrap()
    };
    let results = qdp_comm::run_cluster(
        2,
        qdp_comm::LinkModel::infiniband_qdr(),
        move |handle| {
            let decomp = Decomposition::new(global, [2, 1, 1, 1]);
            let rank = handle.rank;
            let ctx = QdpContext::new(
                DeviceConfig::k20m_ecc_on(),
                decomp.local_geometry(),
                LayoutKind::SoA,
            );
            let _rank = MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, true);
            let psi = LatticeFermion::<f64>::from_fn(&ctx, |s| {
                fermion_at(decomp.global_coord(rank, s))
            });
            psi.norm2().unwrap()
        },
    );
    for r in &results {
        assert!(
            (r - single).abs() / single < 1e-12,
            "rank result {r} vs global {single}"
        );
    }
}

#[test]
fn nested_shift_across_boundary_is_materialised() {
    // shift(shift(psi)) along the split dimension — exercised via
    // temporaries (§V: inner shifts execute non-overlapping).
    let global = [8usize, 4, 4, 4];
    let reference = {
        let ctx = QdpContext::new(
            DeviceConfig::k20m_ecc_on(),
            Geometry::new(global),
            LayoutKind::SoA,
        );
        let g = ctx.geometry().clone();
        let psi = LatticeFermion::<f64>::from_fn(&ctx, |s| fermion_at(g.coord_of(s)));
        let out = LatticeFermion::<f64>::new(&ctx);
        out.assign(shift(
            shift(psi.q(), 0, ShiftDir::Forward),
            0,
            ShiftDir::Forward,
        ))
        .unwrap();
        out.to_vec()
    };
    let results = qdp_comm::run_cluster(
        2,
        qdp_comm::LinkModel::infiniband_qdr(),
        move |handle| {
            let decomp = Decomposition::new(global, [2, 1, 1, 1]);
            let rank = handle.rank;
            let ctx = QdpContext::new(
                DeviceConfig::k20m_ecc_on(),
                decomp.local_geometry(),
                LayoutKind::SoA,
            );
            let _rank = MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, true);
            let psi = LatticeFermion::<f64>::from_fn(&ctx, |s| {
                fermion_at(decomp.global_coord(rank, s))
            });
            let out = LatticeFermion::<f64>::new(&ctx);
            out.assign(shift(
                shift(psi.q(), 0, ShiftDir::Forward),
                0,
                ShiftDir::Forward,
            ))
            .unwrap();
            (rank, out.to_vec())
        },
    );
    let decomp = Decomposition::new(global, [2, 1, 1, 1]);
    let gg = Geometry::new(global);
    for (rank, local) in &results {
        for (s, v) in local.iter().enumerate() {
            let gidx = gg.index_of(decomp.global_coord(*rank, s));
            let expect = &reference[gidx];
            for sp in 0..4 {
                for c in 0..3 {
                    assert_eq!(
                        v.0[sp].0[c], expect.0[sp].0[c],
                        "rank {rank} local site {s}"
                    );
                }
            }
        }
    }
}

/// All-direction covariant derivative — every face of a 4D rank grid is
/// exercised in both shift directions.
fn all_dir_expr(
    u: &LatticeColorMatrix<f64>,
    psi: &LatticeFermion<f64>,
) -> QExpr<Fermion<f64>> {
    let mut e = derivative(u, psi, 0);
    for mu in 1..4 {
        e = e + derivative(u, psi, mu);
    }
    e
}

fn single_rank_all_dirs(global: [usize; 4]) -> Vec<Fermion<f64>> {
    let ctx = QdpContext::new(
        DeviceConfig::k20m_ecc_on(),
        Geometry::new(global),
        LayoutKind::SoA,
    );
    let g = ctx.geometry().clone();
    let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |s| cm_at(g.coord_of(s)));
    let psi = LatticeFermion::<f64>::from_fn(&ctx, |s| fermion_at(g.coord_of(s)));
    let out = LatticeFermion::<f64>::new(&ctx);
    out.assign(all_dir_expr(&u, &psi)).unwrap();
    out.to_vec()
}

fn run_grid(global: [usize; 4], rank_dims: [usize; 4]) -> Vec<Fermion<f64>> {
    let n: usize = rank_dims.iter().product();
    let results = qdp_comm::run_cluster(
        n,
        qdp_comm::LinkModel::infiniband_qdr(),
        move |handle| {
            let decomp = Decomposition::new(global, rank_dims);
            let rank = handle.rank;
            let ctx = QdpContext::new(
                DeviceConfig::k20m_ecc_on(),
                decomp.local_geometry(),
                LayoutKind::SoA,
            );
            let _rank = MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, true);
            let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |s| {
                cm_at(decomp.global_coord(rank, s))
            });
            let psi = LatticeFermion::<f64>::from_fn(&ctx, |s| {
                fermion_at(decomp.global_coord(rank, s))
            });
            let out = LatticeFermion::<f64>::new(&ctx);
            out.assign(all_dir_expr(&u, &psi)).unwrap();
            out.to_vec()
        },
    );
    reassemble(global, rank_dims, results.iter())
}

#[test]
fn four_rank_2x1x1x2_matches_single_rank() {
    let global = [8usize, 4, 4, 4];
    let reference = single_rank_all_dirs(global);
    assert_same(
        &run_grid(global, [2, 1, 1, 2]),
        &reference,
        "2x1x1x2 grid",
    );
}

#[test]
fn four_rank_1x2x2x1_matches_single_rank() {
    let global = [8usize, 4, 4, 4];
    let reference = single_rank_all_dirs(global);
    assert_same(
        &run_grid(global, [1, 2, 2, 1]),
        &reference,
        "1x2x2x1 grid",
    );
}

#[test]
fn sixteen_rank_2x2x2x2_matches_single_rank() {
    let global = [8usize, 4, 4, 4];
    let reference = single_rank_all_dirs(global);
    assert_same(
        &run_grid(global, [2, 2, 2, 2]),
        &reference,
        "2x2x2x2 grid",
    );
}

#[test]
fn non_power_of_two_rank_grid_matches_single_rank() {
    // 3 ranks along y: exercises the binomial allreduce path's siblings —
    // halo exchange with unequal fan-in/out and a rank count the butterfly
    // cannot handle.
    let global = [4usize, 6, 4, 4];
    let reference = single_rank_all_dirs(global);
    assert_same(
        &run_grid(global, [1, 3, 1, 1]),
        &reference,
        "1x3x1x1 grid",
    );
}

#[test]
fn split_shift_on_a_subset_is_an_error_unsplit_is_exact() {
    // Halo exchange covers full-lattice statements: a subset assignment
    // that shifts along the split dimension must fail loudly instead of
    // wrapping inside the sub-grid; along an unsplit dimension it is the
    // ordinary local kernel.
    let global = [8usize, 4, 4, 4];
    let reference = {
        let ctx = QdpContext::new(
            DeviceConfig::k20m_ecc_on(),
            Geometry::new(global),
            LayoutKind::SoA,
        );
        let g = ctx.geometry().clone();
        let psi = LatticeFermion::<f64>::from_fn(&ctx, |s| fermion_at(g.coord_of(s)));
        let out = LatticeFermion::<f64>::new(&ctx);
        out.assign_on(Subset::Even, shift(psi.q(), 2, ShiftDir::Forward))
            .unwrap();
        out.to_vec()
    };
    let results = qdp_comm::run_cluster(
        2,
        qdp_comm::LinkModel::infiniband_qdr(),
        move |handle| {
            let decomp = Decomposition::new(global, [2, 1, 1, 1]);
            let rank = handle.rank;
            let ctx = QdpContext::new(
                DeviceConfig::k20m_ecc_on(),
                decomp.local_geometry(),
                LayoutKind::SoA,
            );
            let _rank = MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, true);
            let psi = LatticeFermion::<f64>::from_fn(&ctx, |s| {
                fermion_at(decomp.global_coord(rank, s))
            });
            let out = LatticeFermion::<f64>::new(&ctx);
            let split = out.assign_on(Subset::Even, shift(psi.q(), 0, ShiftDir::Forward));
            assert!(
                matches!(&split, Err(CoreError::Msg(m)) if m.contains("rank-split")),
                "split shift on a subset must be refused, got {split:?}"
            );
            out.assign_on(Subset::Even, shift(psi.q(), 2, ShiftDir::Forward))
                .unwrap();
            out.to_vec()
        },
    );
    let out = reassemble(global, [2, 1, 1, 1], results.iter());
    assert_same(&out, &reference, "unsplit shift on the even subset");
}

#[test]
fn overlap_report_rates_describe_both_launches() {
    // The overlapped evaluation is an inner and a face launch of one
    // kernel; its reported bandwidth and flop rate must both lie between
    // the inner-only and face-only values (thread-weighted mean), not pair
    // one launch's bandwidth with the other's flop rate.
    use qdp_core::eval::{EvalParams, RemoteEnv};
    use qdp_layout::Dir;
    let global = [8usize, 4, 4, 4];
    qdp_comm::run_cluster(2, qdp_comm::LinkModel::infiniband_qdr(), move |handle| {
        let decomp = Decomposition::new(global, [2, 1, 1, 1]);
        let ctx = QdpContext::new(
            DeviceConfig::k20m_ecc_on(),
            decomp.local_geometry(),
            LayoutKind::SoA,
        );
        ctx.set_payload_execution(false);
        let _rank = MultiRank::new(Arc::clone(&ctx), decomp, handle, true, true);
        let u = LatticeColorMatrix::<f64>::new(&ctx);
        let psi = LatticeFermion::<f64>::new(&ctx);
        let out = LatticeFermion::<f64>::new(&ctx);
        let e = u.q() * shift(psi.q(), 0, ShiftDir::Forward);
        // settle the auto-tuner so every launch below uses one block size
        for _ in 0..12 {
            out.assign(e.clone()).unwrap();
        }
        let both = out.assign(e.clone()).unwrap();

        // the same kernel over the inner and the face sites alone
        let geom = ctx.geometry().clone();
        let faces = [(0usize, Dir::Forward)];
        let halo = ctx
            .device()
            .alloc(geom.face_vol(0) * 24 * 8)
            .unwrap();
        let remote = RemoteEnv {
            split_dims: [true, false, false, false],
            recv: [((0, ShiftDir::Forward), vec![0, halo])].into_iter().collect(),
        };
        let alone = |sites: Vec<u32>| {
            out.assign_with(&EvalParams::new().sites(&sites).remote(&remote), e.clone())
                .unwrap()
        };
        let inner = alone(geom.inner_sites(&faces));
        let face = alone(geom.face_union(&faces));
        ctx.device().free(halo);

        assert_eq!(both.threads, inner.threads + face.threads);
        assert_eq!(both.kernel_name, inner.kernel_name);
        // strictly between the two launches' values, at the same
        // (thread-weighted) point for both rates
        let check = |what: &str, got: f64, inner_v: f64, face_v: f64| {
            assert!(
                got > inner_v.min(face_v) && got < inner_v.max(face_v),
                "{what} {got} not between inner {inner_v} and face {face_v}"
            );
            let mean = (inner_v * inner.threads as f64 + face_v * face.threads as f64)
                / both.threads as f64;
            assert!(
                (got - mean).abs() <= 1e-12 * mean,
                "{what} {got} is not the thread-weighted mean {mean}"
            );
        };
        check("bandwidth", both.bandwidth, inner.bandwidth, face.bandwidth);
        check("flop rate", both.flops_rate, inner.flops_rate, face.flops_rate);
    });
}
