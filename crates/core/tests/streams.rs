//! Stream-engine acceptance tests: default-stream evaluation must
//! reproduce the pre-stream clock model bit-for-bit, independent
//! evaluations on distinct streams must overlap, the §V two-stream overlap
//! schedule must beat exchange-then-full-kernel, and multi-stream
//! work must land on distinct device tracks in the Chrome trace.

use qdp_core::multinode::MultiRank;
use qdp_core::prelude::*;
use qdp_core::{adj, shift};
use qdp_layout::Decomposition;
use qdp_telemetry::Telemetry;
use qdp_types::{ColorMatrix, Complex, Fermion, PScalar, PVector};
use std::sync::Arc;

fn cm_at(c: [usize; 4]) -> ColorMatrix<f64> {
    let seed = (c[0] * 1009 + c[1] * 101 + c[2] * 13 + c[3] * 7 + 5) as u64;
    let mut rng = <qdp_rng::StdRng as qdp_rng::SeedableRng>::seed_from_u64(seed);
    PScalar(qdp_types::su3::random_su3::<f64>(&mut rng))
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

fn fields(ctx: &Arc<QdpContext>) -> (LatticeColorMatrix<f64>, LatticeFermion<f64>) {
    let g = ctx.geometry().clone();
    let u = LatticeColorMatrix::<f64>::from_fn(ctx, |s| cm_at(g.coord_of(s)));
    let psi = LatticeFermion::<f64>::from_fn(ctx, |s| fermion_at(g.coord_of(s)));
    (u, psi)
}

/// The dedicated default-stream acceptance test: a fixed evaluation
/// sequence through the unified `eval` entry point must produce the exact
/// modelled times of the pre-stream single-clock model (`clock += dt` on
/// the legacy synchronising default stream), independent of whether the
/// default stream is bound explicitly.
#[test]
fn default_stream_reproduces_prestream_clock_model() {
    let run = |explicit_binding: bool| -> (Vec<f64>, f64) {
        let ctx = QdpContext::k20x(Geometry::symmetric(4));
        let _bound = explicit_binding.then(|| ctx.device().bind_stream(StreamId::DEFAULT));
        let (u, psi) = fields(&ctx);
        let out = LatticeFermion::<f64>::new(&ctx);
        let e = || u.q() * psi.q() + shift(psi.q(), 1, ShiftDir::Forward);
        let mut times = Vec::new();
        for _ in 0..2 {
            for subset in [Subset::All, Subset::Even, Subset::Odd] {
                let r = qdp_core::eval(&ctx, out.fref(), &e().0, subset).unwrap();
                times.push(r.sim_time);
            }
        }
        (times, ctx.device().now())
    };
    let (t_default, clock_default) = run(false);
    let (t_explicit, clock_explicit) = run(true);
    assert!(t_default.iter().all(|t| *t > 0.0));
    assert_eq!(
        t_default, t_explicit,
        "per-eval modelled times must be bit-identical"
    );
    assert_eq!(
        clock_default, clock_explicit,
        "device clock must be bit-identical"
    );
}

/// Two independent evaluations on two created streams complete in less
/// simulated time than the same pair serialised on the default stream.
#[test]
fn independent_evals_on_distinct_streams_overlap() {
    let ctx = QdpContext::k20x(Geometry::symmetric(8));
    let device = ctx.device();
    let (u, psi) = fields(&ctx);
    let a = LatticeFermion::<f64>::new(&ctx);
    let b = LatticeFermion::<f64>::new(&ctx);
    let ea = || u.q() * psi.q();
    let eb = || adj(u.q()) * psi.q();
    // warm up: compile kernels, settle paging, so the timed evals are pure
    // launch time
    a.assign(ea()).unwrap();
    b.assign(eb()).unwrap();

    let t0 = device.now();
    a.assign(ea()).unwrap();
    b.assign(eb()).unwrap();
    let serial = device.now() - t0;

    let s1 = device.create_stream("s1");
    let s2 = device.create_stream("s2");
    let ready = device.record_event(StreamId::DEFAULT);
    device.stream_wait_event(s1, ready);
    device.stream_wait_event(s2, ready);
    let t1 = device.now();
    {
        let _bound = device.bind_stream(s1);
        a.assign(ea()).unwrap();
    }
    {
        let _bound = device.bind_stream(s2);
        b.assign(eb()).unwrap();
    }
    device.sync();
    let overlapped = device.now() - t1;

    assert!(serial > 0.0 && overlapped > 0.0);
    assert!(
        overlapped < serial,
        "two streams must overlap: {overlapped} vs serial {serial}"
    );
}

/// Stream-ordered evaluation is time accounting only — the payload values
/// are identical to the default-stream result.
#[test]
fn stream_ordered_eval_is_bit_identical() {
    let ctx = QdpContext::k20x(Geometry::symmetric(4));
    let (u, psi) = fields(&ctx);
    let a = LatticeFermion::<f64>::new(&ctx);
    let b = LatticeFermion::<f64>::new(&ctx);
    let s = ctx.device().create_stream("worker");
    a.assign(u.q() * psi.q()).unwrap();
    {
        let _bound = ctx.device().bind_stream(s);
        b.assign(u.q() * psi.q()).unwrap();
    }
    ctx.device().sync();
    let va = a.to_vec();
    let vb = b.to_vec();
    for (i, (x, y)) in va.iter().zip(vb.iter()).enumerate() {
        for sp in 0..4 {
            for c in 0..3 {
                assert_eq!(x.0[sp].0[c], y.0[sp].0[c], "site {i}");
            }
        }
    }
}

fn overlap_trajectory_time(overlap: bool, iters: usize) -> f64 {
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
            let _rank = MultiRank::new(Arc::clone(&ctx), decomp.clone(), handle, false, overlap);
            let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |s| {
                cm_at(decomp.global_coord(rank, s))
            });
            let psi = LatticeFermion::<f64>::from_fn(&ctx, |s| {
                fermion_at(decomp.global_coord(rank, s))
            });
            let out = LatticeFermion::<f64>::new(&ctx);
            let e = u.q() * shift(psi.q(), 0, ShiftDir::Forward)
                + shift(adj(u.q()) * psi.q(), 0, ShiftDir::Backward);
            // warm-up: compile kernels, pin site lists, page the target
            out.assign(e.clone()).unwrap();
            let t0 = ctx.device().now();
            for _ in 0..iters {
                out.assign(e.clone()).unwrap();
            }
            ctx.device().now() - t0
        },
    );
    results.into_iter().fold(0.0f64, f64::max)
}

/// The streamed overlap schedule's modelled trajectory time is strictly
/// below exchange-then-full-kernel on the §V overlap pattern (the inner
/// kernel runs while the halo is in flight), and deterministic.
#[test]
fn streamed_overlap_beats_no_overlap_deterministically() {
    let no_overlap = overlap_trajectory_time(false, 3);
    let streamed = overlap_trajectory_time(true, 3);
    assert!(
        streamed < no_overlap,
        "streamed overlap must beat no overlap: {streamed} vs {no_overlap}"
    );
    let again = overlap_trajectory_time(true, 3);
    assert_eq!(streamed, again, "stream schedule must be deterministic");
}

/// Multi-stream work renders as kernel events on distinct device tracks
/// (pid 1 tids) with overlapping spans, and each created stream has a
/// `thread_name` metadata row.
#[test]
fn multi_stream_trace_has_per_stream_tracks() {
    let path = std::env::temp_dir().join(format!(
        "qdp_streams_trace_{}.json",
        std::process::id()
    ));
    let tel = Arc::new(Telemetry::new());
    tel.enable_trace(&path);
    let ctx = QdpContext::builder(Geometry::symmetric(8))
        .telemetry(Arc::clone(&tel))
        .build();
    let (u, psi) = fields(&ctx);
    let a = LatticeFermion::<f64>::new(&ctx);
    let b = LatticeFermion::<f64>::new(&ctx);
    a.assign(u.q() * psi.q()).unwrap(); // warm up on the default stream
    b.assign(adj(u.q()) * psi.q()).unwrap();
    let s1 = ctx.device().create_stream("s1");
    let s2 = ctx.device().create_stream("s2");
    let ready = ctx.device().record_event(StreamId::DEFAULT);
    ctx.device().stream_wait_event(s1, ready);
    ctx.device().stream_wait_event(s2, ready);
    {
        let _bound = ctx.device().bind_stream(s1);
        a.assign(u.q() * psi.q()).unwrap();
    }
    {
        let _bound = ctx.device().bind_stream(s2);
        b.assign(adj(u.q()) * psi.q()).unwrap();
    }
    ctx.device().sync();
    tel.flush_trace();

    let text = std::fs::read_to_string(&path).unwrap();
    let doc = qdp_telemetry::json::parse(&text).unwrap();
    let evs = doc.get("traceEvents").unwrap().as_array().unwrap();
    // kernel events per device tid, with their sim-time extents
    let mut spans: std::collections::HashMap<u32, Vec<(f64, f64)>> = Default::default();
    let mut named_tids = Vec::new();
    for e in evs {
        let pid = e.get("pid").and_then(|p| p.as_f64());
        if pid != Some(1.0) {
            continue;
        }
        let tid = e.get("tid").and_then(|t| t.as_f64()).unwrap() as u32;
        match e.get("ph").and_then(|p| p.as_str()) {
            Some("M") => named_tids.push(tid),
            Some("X") if e.get("cat").and_then(|c| c.as_str()) == Some("kernel") => {
                let ts = e.get("ts").and_then(|v| v.as_f64()).unwrap();
                let dur = e.get("dur").and_then(|v| v.as_f64()).unwrap();
                spans.entry(tid).or_default().push((ts, ts + dur));
            }
            _ => {}
        }
    }
    assert!(
        spans.len() >= 3,
        "expected kernel events on ≥3 device tracks, got {:?}",
        spans.keys().collect::<Vec<_>>()
    );
    for s in [s1, s2] {
        assert!(
            named_tids.contains(&s.0),
            "stream {s:?} missing its thread_name metadata row"
        );
    }
    // the two stream-ordered kernels overlap in simulated time
    let (a_spans, b_spans) = (&spans[&s1.0], &spans[&s2.0]);
    let overlap = a_spans.iter().any(|&(a0, a1)| {
        b_spans.iter().any(|&(b0, b1)| a0 < b1 && b0 < a1)
    });
    assert!(overlap, "stream kernels must overlap: {a_spans:?} vs {b_spans:?}");
    std::fs::remove_file(&path).ok();
}
