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

/// Simulated time of one warm all-direction derivative on `rank_dims`
/// (slowest rank), payload off: only the modelled clock runs.
fn grid_eval_sim_time(global: [usize; 4], rank_dims: [usize; 4]) -> f64 {
    let n: usize = rank_dims.iter().product();
    let results = qdp_comm::run_cluster(
        n,
        qdp_comm::LinkModel::infiniband_qdr(),
        move |handle| {
            let decomp = Decomposition::new(global, rank_dims);
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
            // warm up: compile, pin site lists
            out.assign(all_dir_expr(&u, &psi)).unwrap();
            let t0 = ctx.device().now();
            out.assign(all_dir_expr(&u, &psi)).unwrap();
            ctx.device().now() - t0
        },
    );
    results.into_iter().fold(0.0f64, f64::max)
}

#[test]
fn strong_scaling_16_ranks_beat_4_deterministically() {
    // 8⁴ over 4 and 16 ranks: local volumes 4·8·8·4 and 4⁴, the same as
    // 16⁴ over 64 and 256 ranks.
    let global = [8usize; 4];
    let t4 = grid_eval_sim_time(global, [2, 1, 1, 2]);
    let t16 = grid_eval_sim_time(global, [2, 2, 2, 2]);
    assert!(
        t16 < t4,
        "16 ranks ({t16:e} s) must beat 4 ranks ({t4:e} s) on the same global lattice"
    );
    assert_eq!(
        grid_eval_sim_time(global, [2, 2, 2, 2]).to_bits(),
        t16.to_bits(),
        "modelled eval time must be deterministic"
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
fn overlapped_eval_with_no_inner_sites_reports_the_face_launch() {
    // On a [2,1,1,1] grid over 4^4 the local x extent is 2, so every local
    // site lies on an x face: a statement shifting both ways along x has no
    // inner sites. Its report must name the kernel and block size of the
    // face launch that ran the threads, not those of the empty inner call.
    let global = [4usize; 4];
    let reports = qdp_comm::run_cluster(
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
            let both_ways =
                shift(psi.q(), 0, ShiftDir::Forward) + shift(psi.q(), 0, ShiftDir::Backward);
            let both = out.assign(both_ways).unwrap();
            let forward = out.assign(shift(psi.q(), 0, ShiftDir::Forward)).unwrap();
            (both, forward, ctx.geometry().vol())
        },
    );
    for (both, forward, vol) in reports {
        assert_eq!(both.threads, vol, "every local site is a face site");
        for r in [&both, &forward] {
            assert!(
                r.kernel_name.starts_with("qdp_") && r.block_size > 0,
                "report must describe a launch that ran: {r:?}"
            );
        }
    }
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
fn halo_kernel_decodes_only_split_shifts_from_one_buffer_per_face() {
    // On a [2,1,1,1] grid (local 2×4³, DP SoA) only the shifts along x read
    // a face message: each such shift takes one receive-buffer parameter
    // and one `selp` per component it loads, and every other shift
    // compiles as it does on one rank.
    let global = [4usize; 4];
    let census = qdp_comm::run_cluster(
        2,
        qdp_comm::LinkModel::infiniband_qdr(),
        move |handle| {
            let decomp = Decomposition::new(global, [2, 1, 1, 1]);
            let ctx = QdpContext::builder(decomp.local_geometry())
                .device(DeviceConfig::k20m_ecc_on())
                .layout(LayoutKind::SoA)
                .opt_level(OptLevel::Default)
                .build();
            ctx.set_payload_execution(false);
            // no overlap: the halo kernel runs once, over the whole lattice
            let _rank = MultiRank::new(Arc::clone(&ctx), decomp, handle, true, false);
            let u: Vec<LatticeColorMatrix<f64>> =
                (0..4).map(|_| LatticeColorMatrix::new(&ctx)).collect();
            let psi = LatticeFermion::<f64>::new(&ctx);
            let staple = (0..4)
                .filter(|&nu| nu != 1)
                .map(|nu| {
                    shift(u[nu].q(), 1, ShiftDir::Forward)
                        * adj(shift(u[1].q(), nu, ShiftDir::Forward))
                        * adj(u[nu].q())
                })
                .reduce(|a, b| a + b)
                .unwrap();
            let hopping = (0..4)
                .map(|mu| {
                    u[mu].q() * shift(psi.q(), mu, ShiftDir::Forward)
                        + shift(adj(u[mu].q()) * psi.q(), mu, ShiftDir::Backward)
                })
                .reduce(|a, b| a + b)
                .unwrap();
            let staple_out = LatticeColorMatrix::<f64>::new(&ctx);
            let hopping_out = LatticeFermion::<f64>::new(&ctx);
            let staple_ran = staple_out.assign(staple.clone()).unwrap();
            let hopping_ran = hopping_out.assign(hopping.clone()).unwrap();

            // Re-render the launched kernel from a plan that keeps only the
            // x faces: the launched kernel, fetched by name, must be that
            // text's lowering, and that kernel is what is counted.
            let census = |target, e: &qdp_expr::Expr, name: &str| {
                let mut plan = qdp_core::plan_codegen(&ctx, target, e, false, true).unwrap();
                plan.env.faces.retain(|f| f.mu == 0);
                let ptx = qdp_core::render_ptx(&plan, e, name).unwrap();
                let k = ctx.kernels().by_name(name).expect("the launched kernel");
                let text = qdp_jit::compile_ptx(&ptx).unwrap();
                assert_eq!(k.code, text[0].code, "{name} is not the launched kernel");
                let selps = ptx.lines().filter(|l| l.trim_start().starts_with("selp")).count();
                (k.param_types.len(), selps, k.code.len())
            };
            (
                census(staple_out.fref(), staple.raw(), &staple_ran.kernel_name),
                census(hopping_out.fref(), hopping.raw(), &hopping_ran.kernel_name),
            )
        },
    );
    for (staple, hopping) in census {
        // params: dst, 4 links, n, 4 tables + recv_0_f
        assert_eq!(staple.0, 11, "upper-staple params");
        // selp: the 18 reals of U_1 read under (0, +)
        assert_eq!(staple.1, 18, "upper-staple selp count");
        assert!(staple.2 <= 1850, "upper-staple lowered ops {}", staple.2);
        // params: dst, 4 links, psi, n, 8 tables + recv_0_f, recv_0_b
        assert_eq!(hopping.0, 17, "hopping params");
        // selp: psi (24) under (0, +); U_0 (18) and psi (24) under (0, -)
        assert_eq!(hopping.1, 66, "hopping selp count");
        assert!(hopping.2 <= 3250, "hopping lowered ops {}", hopping.2);
    }
}

#[test]
fn mixed_precision_message_on_an_odd_face_matches_single_rank() {
    // Global [4,3,3,3] on [2,1,1,1]: an x face has 27 sites, so an f32
    // slab is not a whole number of f64 elements. An f32 Real and an f64
    // ColorMatrix read under the same split shift share one message; the
    // f32 leaf comes first in visiting order, the f64 slab first in the
    // message. The second input is a fused two-statement group whose
    // statements both read the f64 leaf under (0, +), each beside its own
    // f32 Real: one kernel and one message, holding the shared leaf once.
    use qdp_expr::{BinaryOp, Expr};
    let global = [4usize, 3, 3, 3];
    let real_at = |c: [usize; 4]| PScalar(PScalar((c[0] * 27 + c[1] * 9 + c[2] * 3 + c[3]) as f32 * 0.37 - 5.0));
    let real2_at = |c: [usize; 4]| PScalar(PScalar((c[0] + 5 * c[1] + 7 * c[2] + 11 * c[3]) as f32 * -0.29 + 1.5));
    let mul = |a: Expr, b: Expr| Expr::Binary(BinaryOp::Mul, Box::new(a), Box::new(b));
    let sh = |e: Expr, dir| Expr::Shift { mu: 0, dir, child: Box::new(e) };
    let expr = move |r: &LatticeReal<f32>, u: &LatticeColorMatrix<f64>| {
        let ru = || mul(r.q().0, u.q().0);
        Expr::Binary(
            BinaryOp::Add,
            Box::new(sh(ru(), ShiftDir::Forward)),
            Box::new(sh(ru(), ShiftDir::Backward)),
        )
    };
    let group = move |outs: [&LatticeColorMatrix<f64>; 2], rs: [&LatticeReal<f32>; 2], u: &LatticeColorMatrix<f64>| {
        [0, 1].map(|i| (outs[i].fref(), sh(mul(rs[i].q().0, u.q().0), ShiftDir::Forward)))
    };
    let reference = {
        let ctx = QdpContext::new(
            DeviceConfig::k20m_ecc_on(),
            Geometry::new(global),
            LayoutKind::SoA,
        );
        let g = ctx.geometry().clone();
        let r = LatticeReal::<f32>::from_fn(&ctx, |s| real_at(g.coord_of(s)));
        let r2 = LatticeReal::<f32>::from_fn(&ctx, |s| real2_at(g.coord_of(s)));
        let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |s| cm_at(g.coord_of(s)));
        let out = LatticeColorMatrix::<f64>::new(&ctx);
        qdp_core::eval(&ctx, out.fref(), &expr(&r, &u), Subset::All).unwrap();
        let outs = [0, 1].map(|_| LatticeColorMatrix::<f64>::new(&ctx));
        qdp_core::eval_fused_sequence(&ctx, &group([&outs[0], &outs[1]], [&r, &r2], &u)).unwrap();
        [out.to_vec(), outs[0].to_vec(), outs[1].to_vec()]
    };
    for overlap in [true, false] {
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
                ctx.telemetry().enable();
                let _rank =
                    MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, overlap);
                let at = |s| decomp.global_coord(rank, s);
                let r = LatticeReal::<f32>::from_fn(&ctx, |s| real_at(at(s)));
                let r2 = LatticeReal::<f32>::from_fn(&ctx, |s| real2_at(at(s)));
                let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |s| cm_at(at(s)));
                let out = LatticeColorMatrix::<f64>::new(&ctx);
                let e = expr(&r, &u);
                // every slab starts at a multiple of its element width
                let plan = qdp_core::plan_codegen(&ctx, out.fref(), &e, false, true).unwrap();
                for face in &plan.env.faces {
                    assert_eq!(face.face_vol, 27);
                    for (leaf, offset) in &face.slabs {
                        assert_eq!(offset % leaf.ft.size_bytes(), 0, "slab of {leaf:?} at {offset}");
                    }
                }
                qdp_core::eval(&ctx, out.fref(), &e, Subset::All).unwrap();

                let outs = [0, 1].map(|_| LatticeColorMatrix::<f64>::new(&ctx));
                let stmts = group([&outs[0], &outs[1]], [&r, &r2], &u);
                let sent = |ctx: &QdpContext| ctx.profile_report().counter("comm.send_bytes");
                let before = sent(&ctx);
                qdp_core::eval_fused_sequence(&ctx, &stmts).unwrap();
                // the union of the shifted leaves — u, r, r2 — not the sum
                // of two per-statement messages of u and one real each
                assert_eq!(sent(&ctx) - before, 27 * (18 * 8 + 4 + 4) as u64);
                let fused: Vec<String> = ctx
                    .profile_report()
                    .kernels
                    .iter()
                    .map(|k| k.name.clone())
                    .filter(|n| n.starts_with("qdpf_"))
                    .collect();
                assert_eq!(fused.len(), 1, "one fused kernel: {fused:?}");
                // the rendered group — without overlap, the launched kernel
                // itself — reads one receive buffer: u (f64) at 0, r and r2
                // (f32) behind it
                let ptx =
                    qdp_core::codegen_fused_ptx(&ctx, &stmts, &[], Subset::All, &fused[0]).unwrap();
                if !overlap {
                    let k = ctx.kernels().by_name(&fused[0]).expect("the launched kernel");
                    let text = qdp_jit::compile_ptx(&ptx).unwrap();
                    assert_eq!(k.code, text[0].code, "not the launched kernel");
                }
                let recv: Vec<&str> = ptx.lines().filter(|l| l.contains(".param .u64 recv_")).collect();
                assert_eq!(recv.len(), 1, "{recv:?}");
                assert!(recv[0].contains("recv_0_f"), "{recv:?}");
                let buf = ptx
                    .lines()
                    .find_map(|l| l.trim().strip_prefix("ld.param.u64 ")?.strip_suffix(", [recv_0_f];"))
                    .expect("the receive buffer is loaded");
                let offsets: Vec<usize> = ptx
                    .lines()
                    .filter_map(|l| l.trim().strip_prefix("add.u64 "))
                    .filter_map(|l| l.strip_suffix(';')?.split_once(&format!(", {buf}, "))?.1.parse().ok())
                    .collect();
                assert_eq!(offsets, [27 * 18 * 8, 27 * 18 * 8 + 27 * 4], "f32 slab offsets");
                assert!(offsets.iter().all(|o| o % 4 == 0));
                [out.to_vec(), outs[0].to_vec(), outs[1].to_vec()]
            },
        );
        let decomp = Decomposition::new(global, [2, 1, 1, 1]);
        let gg = Geometry::new(global);
        for (rank, locals) in results.iter().enumerate() {
            for (which, (local, whole)) in locals.iter().zip(&reference).enumerate() {
                for (s, v) in local.iter().enumerate() {
                    let want = &whole[gg.index_of(decomp.global_coord(rank, s))];
                    assert_eq!(v, want, "overlap {overlap}: output {which}, rank {rank} site {s}");
                }
            }
        }
    }
}

#[test]
fn inner_and_face_launches_tune_at_one_width() {
    // On an 8⁴ lattice split in t (local 8³×4) a statement shifting
    // forward along t runs the §V schedule: an inner launch over the 1 536
    // sites whose forward neighbour is local and a face launch over the 512
    // whose neighbour is on the other rank, per statement, of the group's
    // one kernel.
    // The kernel's record tunes at the width of its first trial, the inner
    // launch's: only inner launches probe, and a face launch runs at the
    // record's block without reporting a time the 33 % rule would compare
    // with an inner launch's.
    let global = [8usize; 4];
    let results = qdp_comm::run_cluster(2, qdp_comm::LinkModel::infiniband_qdr(), move |handle| {
        let decomp = Decomposition::new(global, [1, 1, 1, 2]);
        let tel = Arc::new(qdp_telemetry::Telemetry::new());
        tel.enable();
        let ctx = QdpContext::builder(decomp.local_geometry())
            .device(DeviceConfig::k20m_ecc_on())
            .telemetry(Arc::clone(&tel))
            .build();
        ctx.set_payload_execution(false);
        let _rank = MultiRank::new(Arc::clone(&ctx), decomp, handle, true, true);
        let psi = LatticeFermion::<f64>::new(&ctx);
        let out = LatticeFermion::<f64>::new(&ctx);
        let e = shift(psi.q(), 3, ShiftDir::Forward);
        let mut name = String::new();
        for _ in 0..8 {
            name = out.assign(e.clone()).unwrap().kernel_name;
        }
        // Fetch the launched kernel by name; re-rendered (over a site list,
        // t faces only), its text lowers to the same code.
        let mut plan = qdp_core::plan_codegen(&ctx, out.fref(), e.raw(), true, true).unwrap();
        plan.env.faces.retain(|f| f.mu == 3);
        let ptx = qdp_core::render_ptx(&plan, e.raw(), &name).unwrap();
        let k = ctx.kernels().by_name(&name).expect("the launched kernel");
        let text = qdp_jit::compile_ptx(&ptx).unwrap();
        assert_eq!(k.code, text[0].code, "{name} is not the launched kernel");
        let st = k
            .tuning
            .lock()
            .clone()
            .expect("a launched kernel has a record");
        let row = ctx
            .profile_report()
            .kernel(&name)
            .cloned()
            .expect("kernel row");
        (row.launches, row.trial_launches, st)
    });
    for (launches, trials, st) in results {
        assert_eq!(launches, 16, "an inner and a face launch per statement");
        assert_eq!(
            st.width,
            Some(1536),
            "the record tunes at the inner launches' width"
        );
        assert_eq!(
            trials, st.probes as u64,
            "every trial launch is one of its probes"
        );
        assert!(
            trials <= 8,
            "{trials} trials: only the 8 inner launches may probe"
        );
        assert!(st.settled);
    }
}
