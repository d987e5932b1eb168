//! Structured communication errors and rank-failure injection.
//!
//! Large gauge-generation campaigns (arXiv:1212.0785 runs on 128–1600
//! nodes) lose nodes as an operational fact of life. The virtual cluster
//! models that: a [`FaultPlan`] kills a chosen rank at a simulated time or
//! after a number of comm operations, and every comm primitive returns a
//! [`CommError`] instead of panicking, so the caller can checkpoint/restart.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Structured failure of a communication primitive. Every comm entry point
/// returns `Result<_, CommError>`; none of them may panic on peer loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer's side of the channel is gone (rank thread exited).
    PeerLost { rank: usize, peer: usize },
    /// No message arrived within the per-message deadline. `peer` is the
    /// rank we were waiting on; `waited_ms` the wall-clock deadline spent.
    Timeout {
        rank: usize,
        peer: usize,
        waited_ms: u64,
    },
    /// This rank was killed by the fault plan; all of its subsequent comm
    /// operations fail with this error.
    RankKilled { rank: usize },
    /// A rank thread panicked (converted from the join error by
    /// `try_run_cluster` instead of propagating the panic).
    RankPanicked { rank: usize },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerLost { rank, peer } => {
                write!(f, "rank {rank}: peer rank {peer} lost")
            }
            CommError::Timeout {
                rank,
                peer,
                waited_ms,
            } => write!(
                f,
                "rank {rank}: timed out after {waited_ms} ms waiting on rank {peer}"
            ),
            CommError::RankKilled { rank } => write!(f, "rank {rank} killed by fault plan"),
            CommError::RankPanicked { rank } => write!(f, "rank {rank} thread panicked"),
        }
    }
}

impl std::error::Error for CommError {}

/// When an injected fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// Kill the rank at the first comm operation whose simulated clock is
    /// at or past this time (seconds).
    AtSimTime(f64),
    /// Kill the rank on its k-th comm operation (sends, recvs and the
    /// exchanges inside an allreduce all count).
    AfterMessages(u64),
}

/// A set of rank kills to inject into a cluster run, plus the per-message
/// receive deadline. Faults fire lazily: a killed rank only discovers it is
/// dead when it next touches the comm layer, which is exactly how real rank
/// loss surfaces (the MPI call fails, not the arithmetic).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    kills: Vec<(usize, FaultTrigger)>,
    deadline_ms: Option<u64>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Kill `rank` at the first comm op with simulated clock >= `t` seconds.
    pub fn kill_at_time(mut self, rank: usize, t: f64) -> FaultPlan {
        self.kills.push((rank, FaultTrigger::AtSimTime(t)));
        self
    }

    /// Kill `rank` on its `k`-th comm operation (1-based).
    pub fn kill_after_messages(mut self, rank: usize, k: u64) -> FaultPlan {
        self.kills.push((rank, FaultTrigger::AfterMessages(k)));
        self
    }

    /// Override the per-message receive deadline (wall clock; default
    /// 5000 ms).
    pub fn deadline_ms(mut self, ms: u64) -> FaultPlan {
        self.deadline_ms = Some(ms);
        self
    }

    /// Drop every kill targeting `rank` — the campaign driver calls this
    /// after a fault has fired so the restarted run does not re-fire it.
    pub fn disarm_rank(&mut self, rank: usize) {
        self.kills.retain(|(r, _)| *r != rank);
    }

    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }

    pub fn kills(&self) -> &[(usize, FaultTrigger)] {
        &self.kills
    }

    /// Parse a fault spec string (the `QDP_FAULT` format): a `;`-separated
    /// list of `kill:<rank>@t=<seconds>` or `kill:<rank>@msgs=<count>`
    /// specs, e.g. `"kill:1@msgs=40;kill:3@t=0.02"`. Malformed specs are
    /// ignored (an env typo must not take down a campaign).
    pub fn parse(spec: &str) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let Some(rest) = part.strip_prefix("kill:") else {
                continue;
            };
            let Some((rank_s, trig_s)) = rest.split_once('@') else {
                continue;
            };
            let Ok(rank) = rank_s.trim().parse::<usize>() else {
                continue;
            };
            if let Some(t) = trig_s.trim().strip_prefix("t=") {
                if let Ok(t) = t.parse::<f64>() {
                    plan = plan.kill_at_time(rank, t);
                }
            } else if let Some(k) = trig_s.trim().strip_prefix("msgs=") {
                if let Ok(k) = k.parse::<u64>() {
                    plan = plan.kill_after_messages(rank, k);
                }
            }
        }
        plan
    }

    /// Resolve the effective receive deadline: explicit override, else
    /// 5000 ms.
    pub fn effective_deadline_ms(&self) -> u64 {
        self.deadline_ms.unwrap_or(5000)
    }
}

/// Shared liveness state for one cluster run: which ranks are alive, how
/// many comm ops each has performed, and the plan that kills them.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    alive: Vec<AtomicBool>,
    msg_counts: Vec<AtomicU64>,
    injected: AtomicU64,
}

impl FaultState {
    pub fn new(n_ranks: usize, plan: FaultPlan) -> FaultState {
        FaultState {
            plan,
            alive: (0..n_ranks).map(|_| AtomicBool::new(true)).collect(),
            msg_counts: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
            injected: AtomicU64::new(0),
        }
    }

    pub fn is_alive(&self, rank: usize) -> bool {
        self.alive[rank].load(Ordering::SeqCst)
    }

    /// Comm operations performed by `rank` so far.
    pub fn messages(&self, rank: usize) -> u64 {
        self.msg_counts[rank].load(Ordering::SeqCst)
    }

    /// Faults that have fired in this run.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Account one comm operation for `rank` at simulated time `now` and
    /// decide whether the rank lives through it. Returns `Err(RankKilled)`
    /// the first time a trigger fires and on every operation afterwards.
    pub fn check(&self, rank: usize, now: f64) -> Result<(), CommError> {
        self.check_fired(rank, now).map_err(|(e, _)| e)
    }

    /// Like [`check`](Self::check), but the error also reports whether this
    /// call was the firing transition (true exactly once per kill), so the
    /// comm layer can emit the `rank_fail` flight event a single time.
    pub fn check_fired(&self, rank: usize, now: f64) -> Result<(), (CommError, bool)> {
        if !self.is_alive(rank) {
            return Err((CommError::RankKilled { rank }, false));
        }
        let count = self.msg_counts[rank].fetch_add(1, Ordering::SeqCst) + 1;
        for (r, trigger) in &self.plan.kills {
            if *r != rank {
                continue;
            }
            let fires = match trigger {
                FaultTrigger::AtSimTime(t) => now >= *t,
                FaultTrigger::AfterMessages(k) => count >= *k,
            };
            if fires {
                // only the transition counts as an injection
                let fired_now = self.alive[rank].swap(false, Ordering::SeqCst);
                if fired_now {
                    self.injected.fetch_add(1, Ordering::SeqCst);
                }
                return Err((CommError::RankKilled { rank }, fired_now));
            }
        }
        Ok(())
    }

    /// Mark `rank` dead without counting an injection (used by the
    /// harness when a rank thread panics).
    pub fn mark_dead(&self, rank: usize) {
        self.alive[rank].store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_fault_specs() {
        let plan = FaultPlan::parse("kill:1@msgs=40; kill:3@t=0.02");
        assert_eq!(plan.kills().len(), 2);
        assert_eq!(plan.kills()[0], (1, FaultTrigger::AfterMessages(40)));
        assert_eq!(plan.kills()[1], (3, FaultTrigger::AtSimTime(0.02)));
        // malformed specs are ignored, not fatal
        assert!(FaultPlan::parse("kill:x@t=1;frob;kill:2@").is_empty());
    }

    #[test]
    fn message_count_trigger_fires_once_then_sticks() {
        let st = FaultState::new(2, FaultPlan::new().kill_after_messages(1, 3));
        assert!(st.check(1, 0.0).is_ok());
        assert!(st.check(1, 0.0).is_ok());
        assert_eq!(st.check(1, 0.0), Err(CommError::RankKilled { rank: 1 }));
        assert_eq!(st.check(1, 0.0), Err(CommError::RankKilled { rank: 1 }));
        assert_eq!(st.injected(), 1);
        assert!(st.check(0, 0.0).is_ok(), "other ranks unaffected");
        assert!(!st.is_alive(1));
    }

    #[test]
    fn sim_time_trigger() {
        let st = FaultState::new(1, FaultPlan::new().kill_at_time(0, 1.0));
        assert!(st.check(0, 0.5).is_ok());
        assert_eq!(st.check(0, 1.5), Err(CommError::RankKilled { rank: 0 }));
    }

    #[test]
    fn disarm_rank_removes_kills() {
        let mut plan = FaultPlan::new().kill_after_messages(1, 1).kill_at_time(2, 0.0);
        plan.disarm_rank(1);
        assert_eq!(plan.kills().len(), 1);
        assert_eq!(plan.kills()[0].0, 2);
    }
}
