//! Fault-tolerant distributed HMC campaigns.
//!
//! Runs pure-gauge HMC over an N-rank 4D decomposition, checkpoints each
//! trajectory, and — when a rank is lost mid-trajectory (injected via
//! [`FaultPlan`] or a real peer hangup) — restarts the cluster from the
//! last checkpoint. The physics is the ordinary library ([`Hmc::evolve`],
//! [`GaugeField::plaquette`]): each rank attaches a [`MultiRank`] to its
//! context and from there on shifts exchange halos and reductions are
//! global. The restart is *bit-exact*: a campaign that dies and restores
//! produces the same plaquette history and Metropolis decisions as one
//! that never failed.
//!
//! Why replay is exact:
//!
//! * the checkpoint is written at trajectory start, after the (local)
//!   momenta refresh but before the trajectory's first communication —
//!   injected kills only fire at comm operations, so a killed trajectory
//!   can never have advanced past its own checkpoint;
//! * ranks barrier after every trajectory before checkpointing the next,
//!   so no surviving rank can slip a trajectory ahead of the victim and
//!   leave checkpoints disagreeing on the trajectory index;
//! * `ΔH` is assembled from allreduced sums whose reduction order is fixed
//!   and which carry rank 0's bits everywhere, and the Metropolis draw
//!   comes from a dedicated RNG stream advanced identically on every rank,
//!   so accept/reject is a global bitwise-identical decision.

use crate::checkpoint::{self, CheckpointView};
use crate::gauge::{refresh_momenta, GaugeField};
use crate::hmc::Hmc;
use qdp_comm::{try_run_cluster, CommError, FaultPlan, LinkModel, RankHandle};
use qdp_core::multinode::MultiRank;
use qdp_core::prelude::*;
use qdp_layout::Decomposition;
use qdp_rng::{SeedableRng, StdRng};
use std::path::PathBuf;
use std::sync::Arc;

/// Parameters of a distributed pure-gauge HMC campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Global lattice extents.
    pub global: [usize; 4],
    /// Ranks per dimension (product = cluster size).
    pub rank_dims: [usize; 4],
    /// Wilson coupling β.
    pub beta: f64,
    /// MD step size.
    pub dt: f64,
    /// Leapfrog steps per trajectory.
    pub n_steps: usize,
    /// Trajectories to run.
    pub n_traj: usize,
    /// Base seed: per-rank momenta streams and the shared Metropolis
    /// stream all derive from it.
    pub seed: u64,
    /// Where per-rank checkpoints live (`QDP_CHECKPOINT_DIR` overrides
    /// via [`checkpoint::dir_from`] if the caller routes through it).
    pub checkpoint_dir: PathBuf,
    /// Interconnect model for the simulated cluster.
    pub link: LinkModel,
    /// Per-message comm deadline override (ms).
    pub deadline_ms: Option<u64>,
    /// Give up after this many cluster restarts.
    pub max_restores: usize,
}

impl CampaignConfig {
    /// A small campaign with test-friendly defaults.
    pub fn new(
        global: [usize; 4],
        rank_dims: [usize; 4],
        checkpoint_dir: impl Into<PathBuf>,
    ) -> CampaignConfig {
        CampaignConfig {
            global,
            rank_dims,
            beta: 5.5,
            dt: 0.08,
            n_steps: 4,
            n_traj: 3,
            seed: 11,
            checkpoint_dir: checkpoint_dir.into(),
            link: LinkModel::infiniband_qdr(),
            deadline_ms: Some(2000),
            max_restores: 8,
        }
    }

    /// Cluster size implied by the rank grid.
    pub fn n_ranks(&self) -> usize {
        self.rank_dims.iter().product()
    }
}

/// Outcome of a (possibly restarted) campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Plaquette after each trajectory.
    pub plaquettes: Vec<f64>,
    /// Metropolis decision per trajectory.
    pub accepts: Vec<bool>,
    /// How many times the cluster was restarted from checkpoints.
    pub restores: usize,
}

/// `g.plaquette()` — global because `mr` is attached to `g`'s context.
/// A named function only because the frozen `crates/benchmark` calls it.
pub fn dist_plaquette(_mr: &MultiRank, g: &GaugeField) -> Result<f64, CoreError> {
    g.plaquette()
}

/// `Hmc::pure_gauge(beta, dt, n_steps).evolve(g, p, metro_rng)` as
/// `(plaquette, accepted)`. A named function only because the frozen
/// `crates/benchmark` calls it.
pub fn dist_trajectory(
    _mr: &MultiRank,
    g: &GaugeField,
    p: &Multi1d<LatticeColorMatrix<f64>>,
    beta: f64,
    dt: f64,
    n_steps: usize,
    metro_rng: &mut StdRng,
) -> Result<(f64, bool), CoreError> {
    let rep = Hmc::pure_gauge(beta, dt, n_steps).evolve(g, p, metro_rng)?;
    Ok((rep.plaquette, rep.accepted))
}

/// Deterministic warm-start link keyed on the *global* coordinate, so
/// every rank grid over the same global lattice builds the same
/// configuration.
fn warm_link(gc: [usize; 4], mu: usize) -> PScalarColorMatrix {
    let seed = ((((gc[0] * 131 + gc[1]) * 131 + gc[2]) * 131 + gc[3]) * 31 + mu * 7 + 1) as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let a = qdp_types::su3::random_algebra::<f64>(&mut rng);
    let scaled = qdp_types::PMatrix::from_fn(|i, j| a.0[i][j].scale(0.25));
    qdp_types::PScalar(qdp_types::su3::expm(&scaled))
}

type PScalarColorMatrix = qdp_types::PScalar<qdp_types::PMatrix<qdp_types::Complex<f64>, 3>>;

fn warm_links(
    ctx: &Arc<QdpContext>,
    decomp: &Decomposition,
    rank: usize,
) -> Multi1d<LatticeColorMatrix<f64>> {
    Multi1d::from_fn(4, |mu| {
        LatticeColorMatrix::<f64>::from_fn(ctx, |s| warm_link(decomp.global_coord(rank, s), mu))
    })
}

/// The per-rank body: restore-or-init, then trajectory loop with
/// checkpoint-at-start and barrier-at-end.
fn rank_main(
    cfg: &CampaignConfig,
    handle: RankHandle,
) -> Result<(Vec<f64>, Vec<bool>), CoreError> {
    let decomp = Decomposition::new(cfg.global, cfg.rank_dims);
    let rank = handle.rank;
    let n_ranks = handle.n_ranks;
    let ctx = QdpContext::new(
        DeviceConfig::k20m_ecc_on(),
        decomp.local_geometry(),
        LayoutKind::SoA,
    );
    let mr = MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, true, true);
    let tel = Arc::clone(ctx.telemetry());

    let mut pending_momenta = None;
    let (g, mut rng, mut metro_rng, mut next_traj, mut plaqs, mut accs) =
        match checkpoint::load(&cfg.checkpoint_dir, rank, n_ranks, &ctx) {
            Some(ck) => {
                pending_momenta = Some(ck.momenta);
                (
                    GaugeField::from_links(&ctx, ck.gauge),
                    StdRng::from_state(ck.rng_state),
                    StdRng::from_state(ck.metro_state),
                    ck.next_traj,
                    ck.history_plaq,
                    ck.history_accept,
                )
            }
            None => {
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                for _ in 0..=rank {
                    rng.jump();
                }
                let metro_rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
                (
                    GaugeField::from_links(&ctx, warm_links(&ctx, &decomp, rank)),
                    rng,
                    metro_rng,
                    0,
                    Vec::new(),
                    Vec::new(),
                )
            }
        };

    // The end-of-trajectory barrier guarantees checkpoints agree on the
    // trajectory index; verify before burning MD time on a skewed restore.
    let idx_sum = mr.allreduce(&[next_traj as f64])?[0];
    if idx_sum != (next_traj * n_ranks) as f64 {
        return Err(CoreError::Msg(format!(
            "checkpoint skew: rank {rank} at trajectory {next_traj} but rank-sum is {idx_sum}"
        )));
    }

    let mut hmc = Hmc::pure_gauge(cfg.beta, cfg.dt, cfg.n_steps);
    while next_traj < cfg.n_traj {
        // Momenta refresh is local; the checkpoint lands before the
        // trajectory's first comm op, so an injected kill can only strike
        // a trajectory whose replay state is already on disk.
        let p = match pending_momenta.take() {
            Some(p) => p,
            None => refresh_momenta(&ctx, &mut rng),
        };
        checkpoint::save(
            &cfg.checkpoint_dir,
            rank,
            n_ranks,
            &CheckpointView {
                next_traj,
                rng: &rng,
                metro_rng: &metro_rng,
                gauge: &g.u,
                momenta: &p,
                history_plaq: &plaqs,
                history_accept: &accs,
            },
            &tel,
        )
        .map_err(|e| CoreError::Msg(format!("checkpoint write failed: {e}")))?;

        let rep = hmc.evolve(&g, &p, &mut metro_rng)?;
        plaqs.push(rep.plaquette);
        accs.push(rep.accepted);
        next_traj += 1;
        // No rank may checkpoint trajectory T+1 until every rank finished
        // trajectory T — this is what keeps on-disk indices aligned when
        // a later kill forces a restore.
        mr.handle.barrier()?;
    }
    // The rank contexts never escape the cluster closure, so under
    // QDP_PROFILE rank 0 prints the standard profile table (checkpoint.*
    // and fault counters included) before its registry drops.
    if rank == 0 && tel.enabled() {
        print!("{}", tel.profile_report());
    }
    Ok((plaqs, accs))
}

/// Run a campaign under a fault plan, restarting the cluster from the
/// last checkpoints whenever an injected kill (or real peer loss) takes a
/// rank down mid-trajectory. Fired kills are disarmed before the retry.
pub fn run_campaign(cfg: &CampaignConfig, plan: &FaultPlan) -> Result<CampaignReport, String> {
    let n = cfg.n_ranks();
    let mut plan = plan.clone();
    if let Some(ms) = cfg.deadline_ms {
        plan = plan.deadline_ms(ms);
    }
    let mut restores = 0usize;
    loop {
        let results = try_run_cluster(n, cfg.link, plan.clone(), |h| {
            rank_main(cfg, h).map_err(|e| match e {
                CoreError::Comm(c) => c,
                other => panic!("rank failed outside comm: {other}"),
            })
        });

        if results.iter().all(|r| r.is_ok()) {
            let mut histories = results.into_iter().map(|r| r.unwrap());
            let (plaqs, accs) = histories.next().expect("n >= 1");
            for (r, h) in histories.enumerate() {
                if h.0.iter().map(|v| v.to_bits()).ne(plaqs.iter().map(|v| v.to_bits()))
                    || h.1 != accs
                {
                    return Err(format!(
                        "rank {} history disagrees with rank 0 — global sums are not global",
                        r + 1
                    ));
                }
            }
            return Ok(CampaignReport {
                plaquettes: plaqs,
                accepts: accs,
                restores,
            });
        }

        let killed: Vec<usize> = results
            .iter()
            .filter_map(|r| match r {
                Err(CommError::RankKilled { rank }) => Some(*rank),
                _ => None,
            })
            .collect();
        if killed.is_empty() {
            let first = results
                .iter()
                .find_map(|r| r.as_ref().err())
                .expect("some rank failed");
            return Err(format!("campaign failed without an injected kill: {first}"));
        }
        restores += 1;
        if restores > cfg.max_restores {
            return Err(format!("gave up after {restores} restores"));
        }
        for r in killed {
            plan.disarm_rank(r);
        }
    }
}
