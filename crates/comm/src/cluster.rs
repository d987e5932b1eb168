//! The virtual cluster: rank threads, timed point-to-point messages,
//! barriers and reductions.
//!
//! Every comm primitive returns `Result<_, CommError>`: a peer that died
//! (fault-injected kill, thread panic, or plain disconnect) surfaces as a
//! structured error within the per-message deadline, never as a panic or an
//! unbounded hang. See [`crate::fault`] for the failure-injection API.

use crate::fault::{CommError, FaultPlan, FaultState};
use qdp_telemetry::sync::Mutex;
use qdp_telemetry::{Telemetry, Track};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

/// Interconnect model (paper §VIII-C: MPI through PCIe + InfiniBand, with
/// MVAPICH2 CUDA-aware MPI on the 2-GPU testbed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way message latency in seconds.
    pub latency: f64,
    /// Link bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Sender-side overhead per message (seconds).
    pub send_overhead: f64,
}

impl LinkModel {
    /// QDR InfiniBand-ish: 1.5 µs latency, 4 GB/s.
    pub fn infiniband_qdr() -> LinkModel {
        LinkModel {
            latency: 1.5e-6,
            bandwidth: 4.0e9,
            send_overhead: 0.5e-6,
        }
    }

    /// Cray Gemini-ish (Blue Waters / Titan): 1.5 µs, ~6 GB/s per direction.
    pub fn gemini() -> LinkModel {
        LinkModel {
            latency: 1.5e-6,
            bandwidth: 6.0e9,
            send_overhead: 0.5e-6,
        }
    }

    /// Time for a message of `bytes` to arrive after being sent.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// A timed message.
#[derive(Debug)]
pub struct Message {
    /// Payload bytes.
    pub data: Vec<u8>,
    /// Sender's simulated clock at the moment of sending.
    pub sent_at: f64,
}

// Each (from, to) pair gets its own channel. `std::sync::mpsc::Receiver`
// is single-consumer, so it sits behind a Mutex to let the mesh be shared
// across rank threads; only rank `to` ever locks entry `[from][to]`, so
// the lock is uncontended.
type Mesh = Vec<Vec<(Sender<Message>, Mutex<Receiver<Message>>)>>;

/// Fault-aware barrier: like `std::sync::Barrier`, but waiting ranks give
/// up (with a structured error) once a peer is dead or the deadline passes,
/// instead of deadlocking on a rank that will never arrive.
struct FaultBarrier {
    n: usize,
    state: Mutex<(usize, u64)>, // (arrived count, generation)
    cv: Condvar,
}

impl FaultBarrier {
    fn new(n: usize) -> FaultBarrier {
        FaultBarrier {
            n,
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
        }
    }

    fn wait(
        &self,
        rank: usize,
        faults: &FaultState,
        deadline: Duration,
    ) -> Result<(), CommError> {
        let mut st = self.state.lock();
        st.0 += 1;
        let gen = st.1;
        if st.0 == self.n {
            st.0 = 0;
            st.1 += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let start = Instant::now();
        let slice = Duration::from_millis(10).min(deadline);
        loop {
            let (guard, _) = self
                .cv
                .wait_timeout(st, slice)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            if st.1 != gen {
                return Ok(());
            }
            if let Some(dead) = (0..self.n).find(|&r| r != rank && !faults.is_alive(r)) {
                return Err(CommError::PeerLost { rank, peer: dead });
            }
            if start.elapsed() >= deadline {
                return Err(CommError::Timeout {
                    rank,
                    peer: rank,
                    waited_ms: deadline.as_millis() as u64,
                });
            }
        }
    }
}

/// Per-rank communication handle.
#[derive(Clone)]
pub struct RankHandle {
    /// This rank's id.
    pub rank: usize,
    /// Number of ranks.
    pub n_ranks: usize,
    /// Link model in effect.
    pub link: LinkModel,
    mesh: Arc<Mesh>,
    barrier: Arc<FaultBarrier>,
    faults: Arc<FaultState>,
    deadline: Duration,
    telemetry: Option<Arc<Telemetry>>,
}

impl RankHandle {
    /// Attach a telemetry registry: send/recv/allreduce latencies and byte
    /// counts are recorded into it (on the `Track::Comm` timeline when
    /// tracing). `MultiRank` calls this with the context's registry.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    fn tel(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref().filter(|t| t.enabled())
    }

    /// Shared liveness/injection state for this cluster run.
    #[cfg(test)]
    fn fault_state(&self) -> &Arc<FaultState> {
        &self.faults
    }

    /// Per-message receive deadline in effect.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// Account one comm op against the fault plan; on the firing transition
    /// emit the `rank_fail` flight event and `faults.injected` counter.
    fn fault_check(&self, now: f64) -> Result<(), CommError> {
        match self.faults.check_fired(self.rank, now) {
            Ok(()) => Ok(()),
            Err((e, fired_now)) => {
                if fired_now {
                    if let Some(t) = &self.telemetry {
                        t.record_flight(
                            "rank_fail",
                            "fault plan killed this rank",
                            &[
                                ("rank", self.rank as f64),
                                ("sim_t", now),
                                ("msgs", self.faults.messages(self.rank) as f64),
                            ],
                        );
                    }
                    if let Some(t) = self.tel() {
                        t.count("faults.injected", 1);
                    }
                }
                Err(e)
            }
        }
    }

    /// Send `data` to `to`, stamped with the sender's simulated time.
    /// Returns the sender-side completion time (clock + send overhead).
    pub fn send(&self, to: usize, data: Vec<u8>, now: f64) -> Result<f64, CommError> {
        assert_ne!(to, self.rank, "self-send");
        self.fault_check(now)?;
        let bytes = data.len();
        self.mesh[self.rank][to]
            .0
            .send(Message {
                data,
                sent_at: now,
            })
            .map_err(|_| CommError::PeerLost {
                rank: self.rank,
                peer: to,
            })?;
        if let Some(t) = &self.telemetry {
            t.record_flight(
                "comm_send",
                "",
                &[("bytes", bytes as f64), ("to", to as f64), ("sim_t0", now)],
            );
        }
        if let Some(t) = self.tel() {
            t.count("comm.sends", 1);
            t.count("comm.send_bytes", bytes as u64);
            t.record_sim_event_on(
                Track::Comm,
                0,
                "comm",
                "send",
                now,
                self.link.send_overhead,
                &[("bytes", bytes as f64), ("to", to as f64)],
            );
        }
        Ok(now + self.link.send_overhead)
    }

    /// Blocking receive from `from`, bounded by the per-message deadline.
    /// Returns the payload and the simulated arrival time under the link
    /// model (`sent_at + latency + bytes/bw`). A dead peer is detected
    /// within ~10 ms of wall clock (not the full deadline) via the shared
    /// liveness flags.
    pub fn recv(&self, from: usize, now: f64) -> Result<(Vec<u8>, f64), CommError> {
        self.fault_check(now)?;
        let rx = self.mesh[from][self.rank].1.lock();
        let slice = Duration::from_millis(10).min(self.deadline);
        let start = Instant::now();
        let msg = loop {
            match rx.recv_timeout(slice) {
                Ok(msg) => break msg,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::PeerLost {
                        rank: self.rank,
                        peer: from,
                    });
                }
                Err(RecvTimeoutError::Timeout) => {
                    if !self.faults.is_alive(from) {
                        // one last drain in case the message raced in
                        // before the peer died
                        if let Ok(msg) = rx.try_recv() {
                            break msg;
                        }
                        return Err(CommError::PeerLost {
                            rank: self.rank,
                            peer: from,
                        });
                    }
                    if start.elapsed() >= self.deadline {
                        if let Some(t) = &self.telemetry {
                            t.record_flight(
                                "comm_timeout",
                                "",
                                &[
                                    ("from", from as f64),
                                    ("waited_ms", self.deadline.as_millis() as f64),
                                ],
                            );
                        }
                        if let Some(t) = self.tel() {
                            t.count("comm.timeouts", 1);
                        }
                        return Err(CommError::Timeout {
                            rank: self.rank,
                            peer: from,
                            waited_ms: self.deadline.as_millis() as u64,
                        });
                    }
                }
            }
        };
        let arrival = msg.sent_at + self.link.transfer_time(msg.data.len());
        let arrival = arrival.max(now);
        if let Some(t) = &self.telemetry {
            t.record_flight(
                "comm_recv",
                "",
                &[
                    ("bytes", msg.data.len() as f64),
                    ("from", from as f64),
                    ("sim_t0", now),
                ],
            );
        }
        if let Some(t) = self.tel() {
            t.count("comm.recvs", 1);
            t.count("comm.recv_bytes", msg.data.len() as u64);
            // wait window: receiver's clock to modelled arrival
            t.observe("comm.recv_wait_s", arrival - now);
            t.record_sim_event_on(
                Track::Comm,
                0,
                "comm",
                "recv",
                now,
                arrival - now,
                &[("bytes", msg.data.len() as f64), ("from", from as f64)],
            );
        }
        Ok((msg.data, arrival))
    }

    /// Barrier across all ranks (host-thread synchronisation only; the
    /// simulated clocks are joined by the caller exchanging times). Fails
    /// with `PeerLost`/`Timeout` instead of deadlocking if a rank died.
    pub fn barrier(&self) -> Result<(), CommError> {
        self.barrier.wait(self.rank, &self.faults, self.deadline)
    }

    /// All-reduce a vector of f64 partial values by summation. Returns the
    /// reduced values and the simulated completion time.
    ///
    /// For power-of-two rank counts this is the classic butterfly
    /// (recursive doubling, `log₂(N)` rounds of pairwise exchange); every
    /// rank performs the same commutative additions of identical block
    /// sums, so all ranks end with bit-identical results. For general N the
    /// butterfly's `peer < n` skip silently drops contributions, so we run
    /// a binomial-tree reduction to rank 0 (children folded in a fixed
    /// deterministic order) followed by a binomial broadcast of rank 0's
    /// exact bits — again bit-identical across ranks.
    pub fn allreduce_sum(&self, values: &[f64], now: f64) -> Result<(Vec<f64>, f64), CommError> {
        let n = self.n_ranks;
        if n == 1 {
            return Ok((values.to_vec(), now));
        }
        let t_entry = now;
        let mut acc: Vec<f64> = values.to_vec();
        let mut t = now;
        let le_bytes = |v: &[f64]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        let fold = |acc: &mut [f64], data: &[u8]| {
            for (i, chunk) in data.chunks_exact(8).enumerate() {
                acc[i] += f64::from_le_bytes(chunk.try_into().unwrap());
            }
        };
        if n.is_power_of_two() {
            let mut stride = 1usize;
            while stride < n {
                let peer = self.rank ^ stride;
                // exchange (send then recv — channels are buffered, no deadlock)
                let t_sent = self.send(peer, le_bytes(&acc), t)?;
                let (data, arrival) = self.recv(peer, t_sent)?;
                t = arrival;
                fold(&mut acc, &data);
                stride <<= 1;
            }
        } else {
            // binomial-tree reduce to rank 0
            let mut stride = 1usize;
            while stride < n {
                let pair = stride << 1;
                if self.rank % pair == 0 {
                    let src = self.rank + stride;
                    if src < n {
                        let (data, arrival) = self.recv(src, t)?;
                        t = arrival;
                        fold(&mut acc, &data);
                    }
                } else if self.rank % pair == stride {
                    let dst = self.rank - stride;
                    t = self.send(dst, le_bytes(&acc), t)?;
                    break; // partial delivered; wait for the broadcast
                }
                stride <<= 1;
            }
            // binomial broadcast of rank 0's exact bits: a rank receives in
            // the round matching its lowest set bit, strictly after its
            // parent received in an earlier (larger-stride) round
            let rounds = usize::BITS - (n - 1).leading_zeros();
            for i in (0..rounds).rev() {
                let s = 1usize << i;
                let pair = s << 1;
                if self.rank % pair == 0 {
                    let dst = self.rank + s;
                    if dst < n {
                        t = self.send(dst, le_bytes(&acc), t)?;
                    }
                } else if self.rank % pair == s {
                    let (data, arrival) = self.recv(self.rank - s, t)?;
                    t = arrival;
                    acc = data
                        .chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                }
            }
        }
        if let Some(tel) = self.tel() {
            tel.count("comm.allreduces", 1);
            tel.observe("comm.allreduce_s", t - t_entry);
        }
        Ok((acc, t))
    }
}

fn build_mesh(n: usize) -> Arc<Mesh> {
    Arc::new(
        (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        let (tx, rx) = channel();
                        (tx, Mutex::new(rx))
                    })
                    .collect()
            })
            .collect(),
    )
}

/// The one rank-thread harness: run `f` on `n` threads over a fresh mesh,
/// barrier and fault state, and return each rank's outcome in rank order.
/// A rank whose body panics is marked dead before its thread exits, so
/// peers waiting on it fail fast with `PeerLost` instead of spending their
/// deadline; its outcome is the original panic payload.
fn spawn_ranks<R: Send>(
    n: usize,
    link: LinkModel,
    plan: FaultPlan,
    f: impl Fn(RankHandle) -> R + Sync,
) -> Vec<std::thread::Result<R>> {
    assert!(n >= 1);
    let mesh = build_mesh(n);
    let barrier = Arc::new(FaultBarrier::new(n));
    let deadline = Duration::from_millis(plan.effective_deadline_ms());
    let faults = Arc::new(FaultState::new(n, plan));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|rank| {
                let handle = RankHandle {
                    rank,
                    n_ranks: n,
                    link,
                    mesh: Arc::clone(&mesh),
                    barrier: Arc::clone(&barrier),
                    faults: Arc::clone(&faults),
                    deadline,
                    telemetry: None,
                };
                let (f, faults) = (&f, &faults);
                s.spawn(move || {
                    std::panic::catch_unwind(AssertUnwindSafe(|| f(handle)))
                        .inspect_err(|_| faults.mark_dead(rank))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().and_then(|r| r))
            .collect()
    })
}

/// Run `f` on `n` rank threads, returning each rank's result in rank order.
/// (The virtual-machine equivalent of `mpirun -np n`.) No fault plan: a
/// rank panic propagates to the caller with its original payload, once
/// every rank has finished.
pub fn run_cluster<R: Send>(
    n: usize,
    link: LinkModel,
    f: impl Fn(RankHandle) -> R + Sync,
) -> Vec<R> {
    spawn_ranks(n, link, FaultPlan::new(), f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect()
}

/// Run `f` on `n` rank threads under a [`FaultPlan`]. Each rank's outcome
/// is returned in rank order; injected kills surface as
/// `Err(CommError::RankKilled)` on the victim and `Err(PeerLost/Timeout)`
/// on the survivors that were waiting on it, and a rank-thread panic is
/// converted to `Err(CommError::RankPanicked)` instead of aborting the
/// harness. This is the entry point campaign drivers use to survive rank
/// loss (detect, restore checkpoint, rerun).
pub fn try_run_cluster<R: Send>(
    n: usize,
    link: LinkModel,
    plan: FaultPlan,
    f: impl Fn(RankHandle) -> Result<R, CommError> + Sync,
) -> Vec<Result<R, CommError>> {
    spawn_ranks(n, link, plan, f)
        .into_iter()
        .enumerate()
        .map(|(rank, r)| r.unwrap_or(Err(CommError::RankPanicked { rank })))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_model() {
        let l = LinkModel::infiniband_qdr();
        assert!((l.transfer_time(0) - 1.5e-6).abs() < 1e-12);
        let t = l.transfer_time(4_000_000); // 4 MB at 4 GB/s = 1 ms
        assert!((t - (1.5e-6 + 1e-3)).abs() < 1e-9);
    }

    #[test]
    fn ring_pass_arrival_times() {
        let results = run_cluster(4, LinkModel::infiniband_qdr(), |h| {
            // each rank sends its id to the next, stamped at t = rank µs
            let now = h.rank as f64 * 1e-6;
            let next = (h.rank + 1) % h.n_ranks;
            let prev = (h.rank + h.n_ranks - 1) % h.n_ranks;
            h.send(next, vec![h.rank as u8; 1000], now).unwrap();
            let (data, arrival) = h.recv(prev, now).unwrap();
            (data[0] as usize, arrival)
        });
        for (rank, (from, arrival)) in results.iter().enumerate() {
            let prev = (rank + 4 - 1) % 4;
            assert_eq!(*from, prev);
            let expected = prev as f64 * 1e-6 + 1.5e-6 + 1000.0 / 4.0e9;
            assert!((arrival - expected).abs() < 1e-12, "rank {rank}");
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let results = run_cluster(4, LinkModel::infiniband_qdr(), |h| {
            let mine = [h.rank as f64, 1.0];
            let (sum, t) = h.allreduce_sum(&mine, 0.0).unwrap();
            (sum, t)
        });
        for (sum, t) in &results {
            assert_eq!(sum[0], 0.0 + 1.0 + 2.0 + 3.0);
            assert_eq!(sum[1], 4.0);
            assert!(*t > 0.0, "reduction must take simulated time");
        }
        // all ranks see the same value
        assert!(results.windows(2).all(|w| w[0].0 == w[1].0));
    }

    #[test]
    fn allreduce_non_power_of_two_ranks() {
        // the old butterfly silently dropped contributions for these
        for n in [3usize, 5, 6, 7] {
            let results = run_cluster(n, LinkModel::infiniband_qdr(), |h| {
                let mine = [h.rank as f64 + 0.25, 1.0];
                h.allreduce_sum(&mine, 0.0).unwrap()
            });
            let want0: f64 = (0..n).map(|r| r as f64 + 0.25).sum();
            for (sum, t) in &results {
                assert_eq!(sum[0], want0, "n={n}");
                assert_eq!(sum[1], n as f64, "n={n}");
                assert!(*t > 0.0);
            }
            // bit-identical on every rank (broadcast of rank 0's bits)
            assert!(
                results
                    .windows(2)
                    .all(|w| w[0].0.iter().zip(&w[1].0).all(|(a, b)| a.to_bits() == b.to_bits())),
                "n={n}: ranks disagree bitwise"
            );
        }
    }

    #[test]
    fn allreduce_single_rank_is_free() {
        let results = run_cluster(1, LinkModel::infiniband_qdr(), |h| {
            h.allreduce_sum(&[7.0], 1.0).unwrap()
        });
        assert_eq!(results[0].0, vec![7.0]);
        assert_eq!(results[0].1, 1.0);
    }

    #[test]
    fn arrival_never_before_receiver_clock() {
        let results = run_cluster(2, LinkModel::infiniband_qdr(), |h| {
            if h.rank == 0 {
                h.send(1, vec![0u8; 8], 0.0).unwrap();
                0.0
            } else {
                // receiver is already far in the future
                let (_, arrival) = h.recv(0, 1.0).unwrap();
                arrival
            }
        });
        assert_eq!(results[1], 1.0);
    }

    #[test]
    fn recv_times_out_on_silent_peer() {
        let plan = FaultPlan::new().deadline_ms(60);
        let results = try_run_cluster(2, LinkModel::infiniband_qdr(), plan, |h| {
            if h.rank == 1 {
                // rank 0 never sends; must get a deadline error, not hang
                h.recv(0, 0.0).map(|_| ())
            } else {
                Ok(())
            }
        });
        assert_eq!(results[0], Ok(()));
        assert_eq!(
            results[1],
            Err(CommError::Timeout {
                rank: 1,
                peer: 0,
                waited_ms: 60
            })
        );
    }

    #[test]
    fn killed_rank_and_waiting_peer_both_get_errors() {
        // rank 0 dies on its first comm op; rank 1, waiting on it, must see
        // PeerLost quickly (liveness flag), not a panic or a full hang.
        let plan = FaultPlan::new().kill_after_messages(0, 1).deadline_ms(2000);
        let start = Instant::now();
        let results = try_run_cluster(2, LinkModel::infiniband_qdr(), plan, |h| {
            if h.rank == 0 {
                h.send(1, vec![0u8; 64], 0.0).map(|_| ())
            } else {
                h.recv(0, 0.0).map(|_| ())
            }
        });
        assert_eq!(results[0], Err(CommError::RankKilled { rank: 0 }));
        assert_eq!(results[1], Err(CommError::PeerLost { rank: 1, peer: 0 }));
        assert!(
            start.elapsed() < Duration::from_millis(1500),
            "dead peer must be detected before the full deadline"
        );
    }

    #[test]
    fn allreduce_with_dead_rank_errors_everywhere() {
        let plan = FaultPlan::new().kill_at_time(2, 0.0).deadline_ms(100);
        let results = try_run_cluster(4, LinkModel::infiniband_qdr(), plan, |h| {
            h.allreduce_sum(&[h.rank as f64], 0.0).map(|(v, _)| v)
        });
        assert_eq!(results[2], Err(CommError::RankKilled { rank: 2 }));
        for (rank, r) in results.iter().enumerate() {
            assert!(r.is_err(), "rank {rank} must not complete the reduction");
        }
    }

    #[test]
    fn rank_panic_becomes_structured_error() {
        let plan = FaultPlan::new().deadline_ms(500);
        let results = try_run_cluster(2, LinkModel::infiniband_qdr(), plan, |h| {
            if h.rank == 1 {
                panic!("synthetic rank crash");
            }
            h.recv(1, 0.0).map(|_| ())
        });
        assert_eq!(results[1], Err(CommError::RankPanicked { rank: 1 }));
        // rank 0 was waiting on the panicked rank: structured error too
        assert!(matches!(
            results[0],
            Err(CommError::PeerLost { rank: 0, peer: 1 }) | Err(CommError::Timeout { .. })
        ));
    }

    #[test]
    fn run_cluster_peer_of_a_panicked_rank_fails_fast() {
        // the plain harness marks a panicking rank dead too: its waiting
        // peer gets PeerLost well inside the 5 s default deadline, and the
        // caller still sees the rank's own panic
        let seen = Mutex::new(None);
        let start = Instant::now();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_cluster(2, LinkModel::infiniband_qdr(), |h| {
                if h.rank == 1 {
                    panic!("synthetic rank crash");
                }
                *seen.lock() = Some(h.recv(1, 0.0).map(|_| ()));
            })
        }));
        let payload = outcome.expect_err("the rank's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"synthetic rank crash")
        );
        assert_eq!(
            *seen.lock(),
            Some(Err(CommError::PeerLost { rank: 0, peer: 1 }))
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "the peer waited {:?} on a dead rank",
            start.elapsed()
        );
    }

    #[test]
    fn barrier_fails_instead_of_deadlocking() {
        let plan = FaultPlan::new().kill_after_messages(0, 1).deadline_ms(300);
        let results = try_run_cluster(2, LinkModel::infiniband_qdr(), plan, |h| {
            if h.rank == 0 {
                h.send(1, vec![0], 0.0)?; // dies here
                Ok(())
            } else {
                h.barrier()
            }
        });
        assert_eq!(results[0], Err(CommError::RankKilled { rank: 0 }));
        assert!(matches!(results[1], Err(CommError::PeerLost { .. })));
    }

    #[test]
    fn injected_counter_tracks_fired_faults() {
        let plan = FaultPlan::new().kill_after_messages(1, 2).deadline_ms(200);
        let results = try_run_cluster(2, LinkModel::infiniband_qdr(), plan, |h| {
            if h.rank == 1 {
                h.send(0, vec![1], 0.0)?;
                h.send(0, vec![2], 0.0)?; // fires here
                Ok(0)
            } else {
                let _ = h.recv(1, 0.0)?;
                // the second message is never sent: this returns only
                // once rank 1's kill has fired
                let _ = h.recv(1, 0.0);
                Ok(h.fault_state().injected())
            }
        });
        assert_eq!(results[1], Err(CommError::RankKilled { rank: 1 }));
        // rank 0 got the first message, then observed exactly one injection
        // (the first recv may race the flag flip, so allow its error too)
        if let Ok(injected) = &results[0] {
            assert_eq!(*injected, 1);
        }
    }
}
