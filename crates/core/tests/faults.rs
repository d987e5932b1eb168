//! Rank-failure injection against evaluation on a rank-attached context:
//! a rank killed before the fork, during the halo exchange, or inside an
//! allreduce must surface as a structured [`CommError`] on every rank —
//! never a panic, never a deadlock — and the site-list device
//! allocations a `MultiRank` caches must be returned on drop.

use qdp_comm::{try_run_cluster, CommError, FaultPlan, LinkModel};
use qdp_core::multinode::MultiRank;
use qdp_core::prelude::*;
use qdp_core::{adj, shift};
use qdp_layout::Decomposition;
use qdp_types::su3::random_su3;
use qdp_types::{ColorMatrix, Complex, Fermion, PScalar, PVector};
use std::sync::Arc;

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

fn to_comm(e: CoreError) -> CommError {
    match e {
        CoreError::Comm(c) => c,
        other => panic!("non-comm failure: {other}"),
    }
}

/// One halo-bearing assignment on a 2x1x1x2 grid followed by a norm —
/// per rank: 4 halo ops (one face per shifted split dim, send + recv
/// each), then the 4 ops of a 4-rank butterfly allreduce.
fn eval_then_reduce(handle: qdp_comm::RankHandle) -> Result<f64, CommError> {
    let decomp = Decomposition::new([8, 4, 4, 4], [2, 1, 1, 2]);
    let rank = handle.rank;
    let ctx = QdpContext::new(
        DeviceConfig::k20m_ecc_on(),
        decomp.local_geometry(),
        LayoutKind::SoA,
    );
    let _rank = MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, true);
    let u =
        LatticeColorMatrix::<f64>::from_fn(&ctx, |s| cm_at(decomp.global_coord(rank, s)));
    let psi =
        LatticeFermion::<f64>::from_fn(&ctx, |s| fermion_at(decomp.global_coord(rank, s)));
    let out = LatticeFermion::<f64>::new(&ctx);
    let e = u.q() * shift(psi.q(), 0, ShiftDir::Forward)
        + shift(adj(u.q()) * psi.q(), 3, ShiftDir::Backward);
    out.assign(e).map_err(to_comm)?;
    psi.norm2().map_err(to_comm)
}

/// Kill rank `victim` after `k` messages and assert the failure surfaces
/// structurally everywhere: `RankKilled` on the victim, `PeerLost` or
/// `Timeout` on at least one survivor that was waiting on it, and no
/// panics or deadlocks anywhere.
fn assert_kill_is_structured(victim: usize, k: u64, what: &str) {
    let plan = FaultPlan::new()
        .kill_after_messages(victim, k)
        .deadline_ms(1000);
    let results = try_run_cluster(4, LinkModel::infiniband_qdr(), plan, eval_then_reduce);
    assert_eq!(results.len(), 4);
    match &results[victim] {
        Err(CommError::RankKilled { rank }) => assert_eq!(*rank, victim, "{what}"),
        other => panic!("{what}: victim should be RankKilled, got {other:?}"),
    }
    let mut survivors_hit = 0;
    for (r, res) in results.iter().enumerate() {
        if r == victim {
            continue;
        }
        match res {
            Ok(_) => {}
            Err(CommError::PeerLost { .. }) | Err(CommError::Timeout { .. }) => {
                survivors_hit += 1;
            }
            Err(other) => panic!("{what}: rank {r} got unexpected error {other:?}"),
        }
    }
    assert!(
        survivors_hit >= 1,
        "{what}: some survivor must observe the lost peer"
    );
}

#[test]
fn kill_before_fork_is_structured() {
    // First comm op of the eval — the victim dies before any halo lands.
    assert_kill_is_structured(1, 1, "kill before fork");
}

#[test]
fn kill_during_halo_exchange_is_structured() {
    // Mid-way through the eval's 4 halo ops.
    assert_kill_is_structured(2, 3, "kill during halo exchange");
}

#[test]
fn kill_during_allreduce_is_structured() {
    // Past the eval's halo traffic — fires inside the butterfly (ops 5-8).
    assert_kill_is_structured(1, 6, "kill during allreduce");
}

#[test]
fn clean_run_matches_across_fault_harness() {
    // The fault-aware harness with an empty plan must agree with itself.
    let a = try_run_cluster(
        4,
        LinkModel::infiniband_qdr(),
        FaultPlan::new(),
        eval_then_reduce,
    );
    let b = try_run_cluster(
        4,
        LinkModel::infiniband_qdr(),
        FaultPlan::new(),
        eval_then_reduce,
    );
    for (x, y) in a.iter().zip(b.iter()) {
        let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
        assert_eq!(x.to_bits(), y.to_bits(), "fault harness must be deterministic");
    }
}

#[test]
fn site_list_allocations_are_freed_on_drop() {
    // The gather/scatter site lists a MultiRank caches on the device must
    // be released when the rank is dropped — repeated construction must
    // not grow device memory.
    qdp_comm::run_cluster(2, LinkModel::infiniband_qdr(), |handle| {
        let decomp = Decomposition::new([8, 4, 4, 4], [2, 1, 1, 1]);
        let rank = handle.rank;
        let ctx = QdpContext::new(
            DeviceConfig::k20m_ecc_on(),
            decomp.local_geometry(),
            LayoutKind::SoA,
        );
        let u =
            LatticeColorMatrix::<f64>::from_fn(&ctx, |s| cm_at(decomp.global_coord(rank, s)));
        let psi =
            LatticeFermion::<f64>::from_fn(&ctx, |s| fermion_at(decomp.global_coord(rank, s)));
        let out = LatticeFermion::<f64>::new(&ctx);
        // The first iteration also materialises lazily-allocated field
        // buffers; the steady-state footprint after it is the baseline.
        let mut base: Option<usize> = None;
        for _ in 0..4 {
            let mr = MultiRank::new(
                Arc::clone(&ctx),
                decomp.clone(),
                handle.clone(),
                true,
                true,
            );
            let e = u.q() * shift(psi.q(), 0, ShiftDir::Forward);
            out.assign(e).unwrap();
            if let Some(b) = base {
                assert!(
                    ctx.device().memory().used() > b,
                    "eval should have cached site lists on the device"
                );
            }
            drop(mr);
            let used = ctx.device().memory().used();
            match base {
                None => base = Some(used),
                Some(b) => assert_eq!(
                    used, b,
                    "MultiRank drop must free its cached site lists"
                ),
            }
        }
    });
}
