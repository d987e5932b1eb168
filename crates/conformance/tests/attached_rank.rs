//! Attached-rank conformance: generated typed DAGs sent through plain
//! `qdp_core::eval`, and generated statement sequences sent through the
//! fusion planner (`qdp_core::eval_fused_sequence`), on every rank of a
//! split fixture lattice must reproduce the single-rank result bit for bit
//! (0 ULP) on each rank's slab.
//!
//! The split dimension has local extent 2, so a DAG that shifts both ways
//! along it has no inner sites, and a nested shift along it is
//! materialised through the §V schedule first. Together the cases drive the
//! halo schedule's inner and face site tables with random kernels — single
//! statements and fused groups alike.

use qdp_comm::{run_cluster, LinkModel};
use qdp_conformance::diff::max_ulp_distance;
use qdp_conformance::gen::subst_fields;
use qdp_conformance::{gen_stmt_sequence, gen_typed_expr, random_target_kind, Fixture};
use qdp_core::multinode::MultiRank;
use qdp_core::{QdpConfig, QdpContext};
use qdp_expr::{BinaryOp, Expr, FieldRef, ShiftDir};
use qdp_layout::{Decomposition, FieldLayout, LayoutKind, Subset};
use qdp_proptest::Gen;
use qdp_types::{ElemKind, FloatType, TypeShape};
use std::collections::HashMap;
use std::sync::Arc;

const CASES: usize = 24;

/// `CASES` generated DAGs over `fx`, each with its single-rank result (the
/// target's host bytes). Every third DAG is a random pair shifted both ways
/// along `split` (`shift(a, +) + shift(b, −)`: no inner sites at local
/// extent 2) and every third a random DAG under a shift of a shift along
/// `split` (materialised through a temporary first).
fn single_rank_cases(fx: &Fixture, split: usize, seed: u64) -> Vec<(Expr, Vec<u8>)> {
    let shift = |e: Expr, dir: ShiftDir| Expr::Shift {
        mu: split,
        dir,
        child: Box::new(e),
    };
    let mut g = Gen::from_case_seed(seed, 1.0);
    (0..CASES)
        .map(|i| {
            let kind = random_target_kind(&mut g);
            let dag = |g: &mut Gen| {
                let depth = g.depth(3);
                gen_typed_expr(g, fx, kind, depth)
            };
            let expr = match i % 3 {
                0 => dag(&mut g),
                1 => Expr::Binary(
                    BinaryOp::Add,
                    Box::new(shift(dag(&mut g), ShiftDir::Forward)),
                    Box::new(shift(dag(&mut g), ShiftDir::Backward)),
                ),
                _ => {
                    let dir = [ShiftDir::Forward, ShiftDir::Backward][g.usize_in(0..2)];
                    shift(shift(dag(&mut g), dir), ShiftDir::Forward)
                }
            };
            let t = fx.fresh_target(kind);
            qdp_core::eval(&fx.ctx, t, &expr, Subset::All).unwrap();
            let bytes = fx.ctx.cache().with_host(t.id, |h| h.to_vec()).unwrap();
            fx.release(t);
            (expr, bytes)
        })
        .collect()
}

/// Rank `rank`'s slab of `whole`, the SoA host bytes of a `kind` field at
/// precision `ft` on the fixture lattice, under `decomp`.
fn slab_bytes(
    decomp: &Decomposition,
    rank: usize,
    kind: ElemKind,
    ft: FloatType,
    whole: &[u8],
) -> Vec<u8> {
    let (global, local) = (Fixture::geometry(), decomp.local_geometry());
    let (n, esize) = (TypeShape::of(kind).n_reals(), ft.size_bytes());
    let from = FieldLayout::new(LayoutKind::SoA, global.vol(), n);
    let to = FieldLayout::new(LayoutKind::SoA, local.vol(), n);
    let mut part = vec![0u8; local.vol() * n * esize];
    for site in 0..local.vol() {
        let g = global.index_of(decomp.global_coord(rank, site));
        for comp in 0..n {
            let (d, s) = (to.real_index(site, comp), from.real_index(g, comp));
            part[d * esize..(d + 1) * esize].copy_from_slice(&whole[s * esize..(s + 1) * esize]);
        }
    }
    part
}

/// Rank `rank`'s slab of `fx` under `decomp`: a context over the local
/// geometry, at the fixture's optimizer level with fusion and telemetry on,
/// holding every fixture leaf at the rank's sites. The leaves register in
/// fixture order, so they keep their `FieldRef`s and the generated DAGs run
/// on the slab unchanged.
fn rank_slab(fx: &Fixture, decomp: &Decomposition, rank: usize) -> Arc<QdpContext> {
    let ctx = QdpContext::builder(decomp.local_geometry())
        .config(QdpConfig::from_env())
        .opt_level(fx.ctx.opt_level())
        .fuse(true)
        .build();
    ctx.telemetry().enable();
    let leaves = [
        fx.u[0],
        fx.u[1],
        fx.psi[0],
        fx.psi[1],
        fx.zeta,
        fx.rho,
        fx.clov_diag,
        fx.clov_tri,
    ];
    for f in leaves {
        let whole = fx.ctx.cache().with_host(f.id, |h| h.to_vec()).unwrap();
        let part = slab_bytes(decomp, rank, f.kind, f.ft, &whole);
        let id = ctx.cache().register(part.len());
        ctx.cache()
            .with_host_mut(id, |dst| dst.copy_from_slice(&part))
            .unwrap();
        assert_eq!(id, f.id, "slab leaves register in fixture order");
    }
    ctx
}

fn attached_ranks_match_single_rank(rank_dims: [usize; 4], ft: FloatType) {
    let decomp = Decomposition::new(Fixture::geometry().dims(), rank_dims);
    let split = (0..4)
        .find(|&mu| decomp.is_split(mu))
        .expect("one split dimension");
    assert_eq!(decomp.local_geometry().dims()[split], 2);
    let fx = Fixture::normal(ft, 0xA77AC4);
    let cases = single_rank_cases(&fx, split, 0x5EED + split as u64);

    run_cluster(decomp.n_ranks(), LinkModel::infiniband_qdr(), |handle| {
        let rank = handle.rank;
        let ctx = rank_slab(&fx, &decomp, rank);
        let _rank = MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, true);
        for (i, (expr, whole)) in cases.iter().enumerate() {
            let kind = expr.kind().unwrap();
            let want = slab_bytes(&decomp, rank, kind, ft, whole);
            let t = FieldRef {
                id: ctx.cache().register(want.len()),
                kind,
                ft,
            };
            let report = qdp_core::eval(&ctx, t, expr, Subset::All)
                .unwrap_or_else(|e| panic!("rank {rank} case {i}: {e} on {expr:?}"));
            let got = ctx.cache().with_host(t.id, |h| h.to_vec()).unwrap();
            ctx.cache().unregister(t.id);
            let ulp = max_ulp_distance(ft, &got, &want);
            assert_eq!(
                ulp, 0,
                "rank {rank} case {i}: {ulp} ULPs from the single-rank result on {expr:?}"
            );
            assert!(
                report.kernel_name.starts_with("qdp_") && report.block_size > 0,
                "rank {rank} case {i}: the report names no launch: {report:?}"
            );
        }
    });
}

#[test]
fn attached_x_split_matches_single_rank_f64() {
    attached_ranks_match_single_rank([2, 1, 1, 1], FloatType::F64);
}

#[test]
fn attached_x_split_matches_single_rank_f32() {
    attached_ranks_match_single_rank([2, 1, 1, 1], FloatType::F32);
}

#[test]
fn attached_t_split_matches_single_rank_f64() {
    attached_ranks_match_single_rank([1, 1, 1, 2], FloatType::F64);
}

#[test]
fn attached_t_split_matches_single_rank_f32() {
    attached_ranks_match_single_rank([1, 1, 1, 2], FloatType::F32);
}

/// One generated statement sequence, followed by its aliasing twin when it
/// has one, as flushes on one context; targets are fixture scratch fields.
type Sequence = Vec<Vec<(FieldRef, Expr)>>;

/// Every target of a sequence with its host bytes after the sequence ran.
type TargetBytes = Vec<(FieldRef, Vec<u8>)>;

/// `CASES` generated statement sequences over `fx`, each with its
/// single-rank result: every target's host bytes after the planner ran the
/// sequence (and its twin) on fresh, zeroed targets.
fn single_rank_sequences(fx: &Fixture, seed: u64) -> Vec<(Sequence, TargetBytes)> {
    let mut g = Gen::from_case_seed(seed, 1.0);
    (0..CASES)
        .map(|_| {
            let (stmts, twin) = gen_stmt_sequence(&mut g, fx, 3);
            let seq: Sequence = std::iter::once(stmts).chain(twin).collect();
            for stmts in &seq {
                qdp_core::eval_fused_sequence(&fx.ctx, stmts).unwrap();
            }
            let mut targets: Vec<FieldRef> = Vec::new();
            for &(t, _) in &seq[0] {
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
            let results = targets
                .into_iter()
                .map(|t| {
                    let bytes = fx.ctx.cache().with_host(t.id, |h| h.to_vec()).unwrap();
                    fx.release(t);
                    (t, bytes)
                })
                .collect();
            (seq, results)
        })
        .collect()
}

fn attached_sequences_match_single_rank(rank_dims: [usize; 4], ft: FloatType) {
    let decomp = Decomposition::new(Fixture::geometry().dims(), rank_dims);
    let fx = Fixture::normal(ft, 0x5E0A);
    let cases = single_rank_sequences(&fx, 0xF05E + rank_dims[0] as u64);

    run_cluster(decomp.n_ranks(), LinkModel::infiniband_qdr(), |handle| {
        let rank = handle.rank;
        let ctx = rank_slab(&fx, &decomp, rank);
        let _rank = MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, true);
        for (i, (seq, results)) in cases.iter().enumerate() {
            // the sequence's targets, on this rank
            let targets: HashMap<u64, FieldRef> = results
                .iter()
                .map(|(t, whole)| {
                    let id = ctx.cache().register(whole.len() / decomp.n_ranks());
                    (t.id, FieldRef { id, ..*t })
                })
                .collect();
            for stmts in seq {
                let local: Vec<(FieldRef, Expr)> = stmts
                    .iter()
                    .map(|(t, e)| (targets[&t.id], subst_fields(e, &targets)))
                    .collect();
                qdp_core::eval_fused_sequence(&ctx, &local)
                    .unwrap_or_else(|e| panic!("rank {rank} sequence {i}: {e} on {local:?}"));
            }
            for (t, whole) in results {
                let want = slab_bytes(&decomp, rank, t.kind, t.ft, whole);
                let id = targets[&t.id].id;
                let got = ctx.cache().with_host(id, |h| h.to_vec()).unwrap();
                ctx.cache().unregister(id);
                let ulp = max_ulp_distance(ft, &got, &want);
                assert_eq!(
                    ulp, 0,
                    "rank {rank} sequence {i}: target {} is {ulp} ULPs from the single-rank \
                     result on {seq:?}",
                    t.id
                );
            }
        }
        // With overlap a group on the §V schedule launches twice (inner and
        // face sites), any other group once: the surplus of fused launches
        // over fused groups counts the groups that hold a split shift.
        let rep = ctx.profile_report();
        let fused_launches = rep.span("eval/eval_fused").map_or(0, |s| s.count);
        assert!(
            fused_launches > rep.counter("fuse.groups"),
            "rank {rank}: no fused group held a split-dimension shift \
             ({fused_launches} fused launches, {} groups, {} bailouts)",
            rep.counter("fuse.groups"),
            rep.counter("fuse.bailouts"),
        );
    });
}

#[test]
fn attached_x_split_sequences_match_single_rank_f64() {
    attached_sequences_match_single_rank([2, 1, 1, 1], FloatType::F64);
}

#[test]
fn attached_x_split_sequences_match_single_rank_f32() {
    attached_sequences_match_single_rank([2, 1, 1, 1], FloatType::F32);
}

#[test]
fn attached_t_split_sequences_match_single_rank_f64() {
    attached_sequences_match_single_rank([1, 1, 1, 2], FloatType::F64);
}

#[test]
fn attached_t_split_sequences_match_single_rank_f32() {
    attached_sequences_match_single_rank([1, 1, 1, 2], FloatType::F32);
}
