//! `multirank_hmc` — one checkpointed distributed HMC trajectory per op on a
//! two-rank cluster.
//!
//! Halo exchange, allreduce, the face/interior stream schedule and
//! checkpoint I/O: `comm`, `core::multinode` and `chroma-mini::checkpoint`.
//! The op is timed on rank 0 between barriers; its simulated time is the
//! maximum over the ranks (the paper's Fig. 6/7 quantity). The rank threads
//! share one core, so the wall time of an op is the host work of both ranks
//! one after the other (see `affinity`).

use super::{core_err, Delta, PhaseCfg, PhaseOut, SetupClock, Snapshot, WorkloadSpec};
use crate::affinity;
use crate::spans::Recorder;
use crate::stats;
use chroma_mini::campaign::{dist_plaquette, dist_trajectory};
use chroma_mini::checkpoint::{self, CheckpointView};
use chroma_mini::gauge::{refresh_momenta, GaugeField};
use qdp_comm::{run_cluster, LinkModel};
use qdp_core::multinode::MultiRank;
use qdp_core::prelude::*;
use qdp_layout::Decomposition;
use qdp_rng::{SeedableRng, StdRng};
use qdp_types::{PMatrix, PScalar};
use std::sync::Arc;
use std::time::Instant;

pub const SPEC: WorkloadSpec = WorkloadSpec {
    name: "multirank_hmc",
    warmup: 2,
    setup_reps: 6,
    ops: 44,
    min_ops: 30,
    why: "checkpointed 2-rank HMC trajectory over 4^4 (2x4^3 per rank), ranks time-sliced on one core: halo exchange, allreduce, face/interior stream schedule and checkpoint I/O",
};

pub const GLOBAL: [usize; 4] = [4, 4, 4, 4];
pub const RANK_DIMS: [usize; 4] = [2, 1, 1, 1];
const BETA: f64 = 5.6;
const DT: f64 = 0.04;
const N_STEPS: usize = 2;
const WARM_EPS: f64 = 0.25;

/// Warm-start links keyed on `(seed, global coordinate, µ)`, so every rank
/// grid over the same global lattice — including the single-rank oracle —
/// builds the same configuration.
pub fn seeded_links(
    ctx: &Arc<QdpContext>,
    decomp: &Decomposition,
    rank: usize,
    seed: u64,
) -> Multi1d<LatticeColorMatrix<f64>> {
    Multi1d::from_fn(4, |mu| {
        LatticeColorMatrix::<f64>::from_fn(ctx, |s| {
            let gc = decomp.global_coord(rank, s);
            let key = (((gc[0] * 131 + gc[1]) * 131 + gc[2]) * 131 + gc[3]) * 31 + mu * 7 + 1;
            let mut rng =
                StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ key as u64);
            let a = qdp_types::su3::random_algebra::<f64>(&mut rng);
            let scaled = PMatrix::from_fn(|i, j| a.0[i][j].scale(WARM_EPS));
            PScalar(qdp_types::su3::expm(&scaled))
        })
    })
}

/// Everything one rank reports back.
struct RankOut {
    setup_parts_s: Vec<f64>,
    wall_ms: Vec<f64>,
    sim_ms: Vec<f64>,
    start_plaquette: f64,
    history: Vec<(f64, bool)>,
    delta: Option<Delta>,
    recv_wait_sim_s: f64,
    checkpoint_kb: f64,
    load_ms: Vec<f64>,
}

fn rank_main(
    cfg: &PhaseCfg<'_>,
    handle: qdp_comm::RankHandle,
    rec: &Recorder,
) -> Result<RankOut, CoreError> {
    let mut setup = SetupClock::start();
    let mut setup_span = Some(rec.enter("setup"));
    let rank = handle.rank;
    let n_ranks = handle.n_ranks;
    // the ranks take turns on one core (see `affinity`)
    affinity::share_one_core();
    let barrier = handle.clone();
    let decomp = Decomposition::new(GLOBAL, RANK_DIMS);
    let (ctx, mr, g) = rec.time("setup.bring_up", || {
        let ctx = QdpContext::builder(decomp.local_geometry())
            .device(DeviceConfig::k20m_ecc_on())
            .config(cfg.qdp_config())
            .build();
        let mr = MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, true);
        let g = GaugeField::from_links(&ctx, seeded_links(&ctx, &decomp, rank, cfg.seed));
        (ctx, mr, g)
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..=rank {
        rng.jump();
    }
    let mut metro_rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
    let start_plaquette = dist_plaquette(&mr, &g)?;
    let ckpt_dir = cfg.scratch.join("checkpoints");
    let tel = Arc::clone(ctx.telemetry());

    let mut plaqs: Vec<f64> = Vec::new();
    let mut accs: Vec<bool> = Vec::new();
    let mut out = RankOut {
        setup_parts_s: Vec::new(),
        wall_ms: Vec::with_capacity(cfg.ops),
        sim_ms: Vec::with_capacity(cfg.ops),
        start_plaquette,
        history: Vec::new(),
        delta: None,
        recv_wait_sim_s: 0.0,
        checkpoint_kb: 0.0,
        load_ms: Vec::new(),
    };
    let recv_wait = |ctx: &QdpContext| {
        ctx.profile_report()
            .hists
            .get("comm.recv_wait_s")
            .map_or(0.0, |h| h.sum)
    };

    let mut before = None;
    let mut wait0 = 0.0;
    for i in 0..cfg.warmup + cfg.ops {
        let measured = i >= cfg.warmup;
        if i <= cfg.warmup {
            // the bring-up ends where warm-up op 0 begins, and so on
            setup.part_done();
        }
        if i == cfg.warmup {
            setup_span.take();
            before = Some(Snapshot::take(&ctx));
            wait0 = recv_wait(&ctx);
        }
        barrier.barrier()?;
        let sim0 = ctx.device().sync();
        let span = if measured {
            rec.enter_op("op", Some(i - cfg.warmup))
        } else {
            rec.enter("setup.warmup_op")
        };
        let t0 = Instant::now();
        let p = rec.time("hmc.refresh", || refresh_momenta(&ctx, &mut rng));
        let path = rec
            .time("checkpoint.save", || {
                checkpoint::save(
                    &ckpt_dir,
                    rank,
                    n_ranks,
                    &CheckpointView {
                        next_traj: i,
                        rng: &rng,
                        metro_rng: &metro_rng,
                        gauge: &g.u,
                        momenta: &p,
                        history_plaq: &plaqs,
                        history_accept: &accs,
                    },
                    &tel,
                )
            })
            .map_err(|e| CoreError::Msg(format!("checkpoint write failed: {e}")))?;
        let (plaq, acc) = rec.time("multinode.dist_trajectory", || {
            dist_trajectory(&mr, &g, &p, BETA, DT, N_STEPS, &mut metro_rng)
        })?;
        rec.time("comm.barrier", || barrier.barrier())?;
        let wall = t0.elapsed();
        drop(span);
        plaqs.push(plaq);
        accs.push(acc);
        if measured {
            out.wall_ms.push(wall.as_secs_f64() * 1e3);
            out.sim_ms.push((ctx.device().sync() - sim0) * 1e3);
            out.history.push((plaq, acc));
            out.checkpoint_kb = std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64 / 1024.0);
        }
    }
    if setup_span.take().is_some() {
        setup.part_done();
        out.setup_parts_s = setup.finish();
        return Ok(out);
    }
    out.setup_parts_s = setup.finish();
    if let Some(b) = before {
        out.delta = Some(Snapshot::take(&ctx).since(&b));
        out.recv_wait_sim_s = recv_wait(&ctx) - wait0;
    }
    if cfg.traced && rank == 0 {
        // one repetition only: on the seed commit a load costs seconds (the
        // in-tree JSON parser is quadratic in the length of the document)
        let _s = rec.enter("probe.checkpoint.load");
        let t0 = Instant::now();
        let loaded = checkpoint::load(&ckpt_dir, rank, n_ranks, &ctx);
        out.load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if loaded.is_none() {
            return Err(CoreError::Msg("checkpoint did not load back".into()));
        }
    }
    Ok(out)
}

/// The average plaquette of the same global configuration on one rank.
fn single_rank_plaquette(cfg: &PhaseCfg<'_>) -> Result<f64, CoreError> {
    let decomp = Decomposition::single(GLOBAL);
    let ctx = QdpContext::builder(decomp.local_geometry())
        .device(DeviceConfig::k20m_ecc_on())
        .config(QdpConfig::new())
        .build();
    GaugeField::from_links(&ctx, seeded_links(&ctx, &decomp, 0, cfg.seed)).plaquette()
}

pub fn run(cfg: &PhaseCfg<'_>) -> Result<PhaseOut, String> {
    let n_ranks: usize = RANK_DIMS.iter().product();
    let silent = Recorder::new(false);
    let results = run_cluster(n_ranks, LinkModel::infiniband_qdr(), |handle| {
        let rec = if handle.rank == 0 { cfg.rec } else { &silent };
        rank_main(cfg, handle, rec)
    });
    let mut ranks = Vec::with_capacity(n_ranks);
    for r in results {
        ranks.push(r.map_err(core_err)?);
    }

    let mut out = PhaseOut {
        setup_parts_s: ranks[0].setup_parts_s.clone(),
        ..PhaseOut::default()
    };
    if cfg.ops == 0 {
        return Ok(out);
    }
    out.wall_ms = ranks[0].wall_ms.clone();
    // simulated critical path: the slowest rank sets each op's time
    out.sim_ms = (0..cfg.ops)
        .map(|i| ranks.iter().map(|r| r.sim_ms[i]).fold(0.0, f64::max))
        .collect();
    out.delta = ranks[0].delta.clone();

    // oracles
    for (i, (plaq, acc)) in ranks[0].history.iter().enumerate() {
        let agree = ranks
            .iter()
            .all(|r| r.history[i].0.to_bits() == plaq.to_bits() && r.history[i].1 == *acc);
        out.check(agree && *plaq > 0.0 && *plaq < 1.0, || {
            format!("op {i}: rank histories disagree or plaquette {plaq} out of range")
        });
        out.history.extend([plaq.to_bits(), *acc as u64]);
    }
    let single = single_rank_plaquette(cfg).map_err(core_err)?;
    let start = ranks[0].start_plaquette;
    out.check((start - single).abs() < 1e-12, || {
        format!("starting dist_plaquette {start} vs single-rank {single}")
    });

    let n = cfg.ops as f64;
    let accepts = ranks[0].history.iter().filter(|h| h.1).count() as f64;
    out.layer.insert("hmc.accept_frac".into(), accepts / n);
    out.layer
        .insert("checkpoint.kb".into(), ranks[0].checkpoint_kb);
    out.layer.insert(
        "comm.recv_wait_sim_ms_per_op".into(),
        ranks[0].recv_wait_sim_s * 1e3 / n,
    );
    if !ranks[0].load_ms.is_empty() {
        out.layer
            .insert("checkpoint.load_ms".into(), stats::p10(&ranks[0].load_ms));
    }
    Ok(out)
}
