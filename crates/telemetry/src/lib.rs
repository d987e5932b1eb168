//! # qdp-telemetry — unified runtime telemetry
//!
//! Every quantitative claim in the paper (§VII–§VIII) — per-kernel
//! sustained bandwidth, JIT translation overhead, software-cache spill
//! traffic, communication/computation overlap — comes from *profiling* the
//! runtime. This crate is the instrumentation layer the rest of the
//! workspace records into:
//!
//! * **counters / gauges / histograms** behind an env-gated registry —
//!   `QDP_PROFILE=1` turns profiling on; when off, every recording call is
//!   one relaxed atomic load and an early return;
//! * **span tracing** that captures *both* clocks: host wall time (the real
//!   cost of running the framework) and the simulated device clock (the
//!   modelled GPU cost the paper's figures are drawn in);
//! * two exporters: a human-readable end-of-run [`ProfileReport`]
//!   (per-kernel launches / trial launches / tuned block size / simulated
//!   time / bytes / achieved bandwidth, plus the JIT-cache hit ratio and
//!   every counter and histogram), and a **Chrome trace-event JSON** file
//!   (`QDP_TRACE=out.json`, loadable in Perfetto or `chrome://tracing`)
//!   where host spans, device kernel launches, PCIe transfers and MPI
//!   traffic render as parallel timelines.
//!
//! The registry is deliberately free of dependencies: it sits at the bottom
//! of the workspace graph so `qdp-gpu-sim`, `qdp-jit`, `qdp-cache`,
//! `qdp-comm`, `qdp-core` and `chroma-mini` can all record into the same
//! instance (shared through `QdpContext` / `Device`).

pub mod json;
pub mod report;
pub mod roofline;
pub mod sync;
pub mod trace;

pub use report::{HistSnapshot, JitSummary, KernelRow, ProfileReport, SpanRow};
pub use roofline::{DevicePeaks, RooflineReport, RooflineRow};
pub use trace::TraceEvent;

use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Once, Weak};
use std::time::Instant;

/// Trace process (timeline) an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// Host threads, wall clock.
    Host,
    /// The simulated device, simulated clock.
    Device,
    /// The simulated interconnect, simulated clock.
    Comm,
}

/// Upper bound on buffered trace events (a 12-hour HMC run must not OOM the
/// recorder; overflow is counted and reported, not silently ignored).
pub const MAX_TRACE_EVENTS: usize = 2_000_000;

static NEXT_TID: AtomicU32 = AtomicU32::new(1);
thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Source of [`Telemetry`]'s per-registry serial, which names its flight
/// dump: one process runs one context per rank thread, and each rank's
/// black box needs its own file.
static NEXT_REGISTRY: AtomicU64 = AtomicU64::new(1);

/// Registries armed for dump-on-panic (see [`Telemetry::arm_panic_dump`]).
static PANIC_TARGETS: Mutex<Vec<Weak<Telemetry>>> = Mutex::new(Vec::new());
static PANIC_HOOK: Once = Once::new();

fn current_tid() -> u32 {
    TID.with(|t| *t)
}

/// Number of log-spaced histogram buckets (see [`Hist`]).
const HIST_BUCKETS: usize = 448;
/// Buckets per power of two: ~12% relative resolution per bucket.
const HIST_BUCKETS_PER_OCTAVE: f64 = 6.0;
/// Smallest representable positive observation: `2^-40` (~9e-13). Values
/// at or below zero land in bucket 0.
const HIST_LOG2_MIN: f64 = -40.0;

/// Streaming histogram: count / sum / min / max plus a fixed set of
/// log-spaced buckets, so quantiles (p50/p99) come out with ~12% relative
/// error and no per-series configuration. Memory is bounded: the bucket
/// array is only materialised once a series sees its first observation.
/// Public so a layer that keeps its own always-on statistics (the serving
/// front-end's latency) reports the same quantiles as a profiled run.
#[derive(Debug, Clone)]
pub struct Hist {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: Vec<u32>,
}

impl Hist {
    fn bucket_index(v: f64) -> usize {
        if !(v > 0.0) {
            return 0;
        }
        let idx = ((v.log2() - HIST_LOG2_MIN) * HIST_BUCKETS_PER_OCTAVE).floor();
        1 + (idx.max(0.0) as usize).min(HIST_BUCKETS - 2)
    }

    /// Geometric midpoint of bucket `i` (bucket 0 holds non-positive values).
    fn bucket_value(i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        let log2 = HIST_LOG2_MIN + (i as f64 - 0.5) / HIST_BUCKETS_PER_OCTAVE;
        log2.exp2()
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if self.buckets.is_empty() {
            self.buckets = vec![0; HIST_BUCKETS];
        }
        let i = Self::bucket_index(v);
        self.buckets[i] = self.buckets[i].saturating_add(1);
    }

    /// Quantile estimate for `q` in [0, 1]: the geometric midpoint of the
    /// bucket holding the `ceil(q*count)`-th observation, clamped to the
    /// exact observed [min, max] (so single-sample and constant series
    /// report exact quantiles). 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen: u64 = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// An empty series.
    pub fn new() -> Hist {
        Hist {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        }
    }
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

/// Aggregated per-kernel profile (filled by the JIT launcher and the kernel
/// cache).
#[derive(Debug, Clone, Default)]
pub(crate) struct KernelProfile {
    launches: u64,
    trial_launches: u64,
    launch_failures: u64,
    block_size: u32,
    settled: bool,
    sim_time: f64,
    bytes: u64,
    read_bytes: u64,
    write_bytes: u64,
    flops: u64,
    /// 128-byte global load transactions (hardware-counter model).
    ld_transactions: u64,
    /// 128-byte global store transactions (hardware-counter model).
    st_transactions: u64,
    /// Occupancy of the most recent launch (resident / max resident).
    occupancy: f64,
    /// Total wave count across launches (grid waves per SM pass).
    waves: u64,
    /// Total fixed launch cost (launch overhead + pipeline ramp), seconds.
    overhead: f64,
    double_precision: bool,
    jit_hits: u64,
    jit_misses: u64,
    wall_compile_time: f64,
    modeled_compile_time: f64,
    /// Persistent-store kernel hits (lowered with no modelled cost).
    persist_hits: u64,
    /// Was this kernel's block size seeded from the persistent store?
    tuner_seeded: bool,
}

/// One successful kernel launch with the full hardware-counter model
/// attached; consumed by [`Telemetry::record_launch_full`].
#[derive(Debug, Clone, Default)]
pub struct LaunchRecord<'a> {
    /// Kernel name.
    pub kernel: &'a str,
    /// Block size of this launch.
    pub block: u32,
    /// Launch made while the auto-tuner was still probing?
    pub trial: bool,
    /// Tuner state after this launch.
    pub settled: bool,
    /// Simulated-clock launch start, seconds.
    pub sim_t0: f64,
    /// Simulated duration, seconds.
    pub sim_dur: f64,
    /// Bytes read from global memory (model estimate).
    pub read_bytes: u64,
    /// Bytes written to global memory (model estimate).
    pub write_bytes: u64,
    /// Floating-point operations (model estimate).
    pub flops: u64,
    /// Device stream the launch was ordered on (0 = default stream).
    pub stream: u32,
    /// 128-byte global load transactions.
    pub ld_transactions: u64,
    /// 128-byte global store transactions.
    pub st_transactions: u64,
    /// Achieved occupancy (resident threads / max resident threads).
    pub occupancy: f64,
    /// Grid waves (SM passes) this launch needed.
    pub waves: u64,
    /// Fixed launch cost (launch overhead + pipeline ramp), seconds.
    pub overhead: f64,
    /// Did the kernel run in double precision?
    pub double_precision: bool,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct SpanStat {
    count: u64,
    wall: f64,
    sim: f64,
}

/// Flight-recorder ring capacity: the most recent events every registry
/// keeps (fixed; older events are evicted).
pub const DEFAULT_FLIGHT_CAP: usize = 256;

/// One structured flight-recorder event: a recent launch / copy / comm op /
/// cache spill / tuner decision kept in a bounded ring for post-mortem
/// dumps (see [`Telemetry::dump_flight`]).
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Monotonic sequence number (total events ever recorded, 1-based).
    pub seq: u64,
    /// Wall-clock microseconds since the registry was created.
    pub wall_us: f64,
    /// Event kind: `launch`, `launch_fail`, `h2d`, `d2h`, `comm_send`,
    /// `comm_recv`, `cache_spill`, `tuner_settle`, `persist_corrupt`.
    pub kind: &'static str,
    /// Free-form detail (kernel name, store path, …).
    pub detail: String,
    /// Numeric attributes (block size, bytes, …).
    pub args: Vec<(&'static str, f64)>,
}

#[derive(Default)]
struct FlightRing {
    next_seq: u64,
    events: std::collections::VecDeque<FlightEvent>,
    /// Dump directory; `None` = `std::env::temp_dir()`.
    dir: Option<PathBuf>,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Hist>,
    kernels: BTreeMap<String, KernelProfile>,
    spans: BTreeMap<String, SpanStat>,
    events: Vec<TraceEvent>,
    dropped_events: u64,
    /// Display names for simulated-clock trace threads, keyed by
    /// (track, tid) — one entry per device stream, written out as
    /// `thread_name` metadata so each stream gets its own Perfetto track.
    sim_thread_names: Vec<(Track, u32, String)>,
}

/// Declarative telemetry configuration — the typed form of the
/// `QDP_PROFILE` / `QDP_TRACE` / `QDP_FLIGHT_DIR` knobs.
/// Build one programmatically and pass it to [`Telemetry::with_config`];
/// `QdpConfig::from_env` in `qdp-core` is what reads the variables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryConfig {
    /// Record counters, histograms, spans and per-kernel profiles
    /// (`QDP_PROFILE=1`).
    pub profile: bool,
    /// Write a Chrome trace to this path on flush (`QDP_TRACE=<path>`).
    pub trace_path: Option<PathBuf>,
    /// Where crash dumps land (`QDP_FLIGHT_DIR=<dir>`).
    pub flight_dir: Option<PathBuf>,
}

impl TelemetryConfig {
    /// Everything off except the flight recorder — the same state
    /// [`Telemetry::new`] starts in.
    pub fn new() -> TelemetryConfig {
        TelemetryConfig::default()
    }
}

/// The telemetry registry. One instance is shared by a `QdpContext` and
/// everything beneath it (device, software cache, kernel cache, tuner);
/// standalone devices create their own disabled one.
pub struct Telemetry {
    profile: AtomicBool,
    tracing: AtomicBool,
    trace_written: AtomicBool,
    /// Process-unique registry number; names this registry's flight dump.
    serial: u64,
    epoch: Instant,
    trace_path: Mutex<Option<PathBuf>>,
    inner: Mutex<Inner>,
    flight: Mutex<FlightRing>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A disabled registry (every recording call is a no-op). The flight
    /// recorder is always on — it is the post-mortem black box and costs
    /// one bounded ring push per recorded event.
    pub fn new() -> Telemetry {
        Telemetry {
            profile: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            trace_written: AtomicBool::new(false),
            serial: NEXT_REGISTRY.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            trace_path: Mutex::new(None),
            inner: Mutex::new(Inner::default()),
            flight: Mutex::new(FlightRing::default()),
        }
    }

    /// Registry configured from a typed [`TelemetryConfig`] — the
    /// environment-free construction path used by `QdpConfig`.
    pub fn with_config(cfg: &TelemetryConfig) -> Telemetry {
        let t = Telemetry::new();
        if cfg.profile {
            t.enable();
        }
        if let Some(path) = &cfg.trace_path {
            t.enable_trace(path.clone());
        }
        if let Some(dir) = &cfg.flight_dir {
            t.set_flight_dir(dir.clone());
        }
        t
    }

    /// Turn profiling (counters, histograms, span aggregation, per-kernel
    /// profiles) on. Used by tests to observe behaviour without touching
    /// process environment.
    pub fn enable(&self) {
        self.profile.store(true, Ordering::Relaxed);
    }

    /// Turn trace-event recording on; [`Telemetry::flush_trace`] (or drop)
    /// writes the Chrome trace to `path`.
    pub fn enable_trace(&self, path: impl Into<PathBuf>) {
        *self.trace_path.lock() = Some(path.into());
        self.tracing.store(true, Ordering::Relaxed);
    }

    /// Is any recording active?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.profile.load(Ordering::Relaxed) || self.tracing.load(Ordering::Relaxed)
    }

    /// Is profiling active?
    #[inline]
    pub fn profiling(&self) -> bool {
        self.profile.load(Ordering::Relaxed)
    }

    /// Is trace recording active?
    #[inline]
    fn is_tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// The configured trace output path, if any.
    pub fn trace_path(&self) -> Option<PathBuf> {
        self.trace_path.lock().clone()
    }

    /// Microseconds of wall time since this registry was created.
    pub fn wall_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    // --- counters / gauges / histograms -----------------------------------

    /// Add `n` to counter `name`.
    #[inline]
    pub fn count(&self, name: &str, n: u64) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        *inner.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Set gauge `name` to `v` (last-write-wins).
    #[inline]
    pub fn gauge(&self, name: &str, v: f64) {
        if !self.enabled() {
            return;
        }
        self.inner.lock().gauges.insert(name.to_string(), v);
    }

    /// Record one observation of `v` in histogram `name`.
    #[inline]
    pub fn observe(&self, name: &str, v: f64) {
        if !self.enabled() {
            return;
        }
        self.inner
            .lock()
            .hists
            .entry(name.to_string())
            .or_insert_with(Hist::new)
            .observe(v);
    }

    // --- flight recorder ---------------------------------------------------

    /// Redirect flight dumps to `dir` (tests; `QDP_FLIGHT_DIR` is the
    /// process-wide knob). The default is the system temp directory.
    pub fn set_flight_dir(&self, dir: impl Into<PathBuf>) {
        self.flight.lock().dir = Some(dir.into());
    }

    /// Record one structured event into the bounded flight ring. Cheap and
    /// always on: the ring is the black box dumped on panic / launch
    /// failure / store corruption.
    pub fn record_flight(&self, kind: &'static str, detail: &str, args: &[(&'static str, f64)]) {
        let wall_us = self.wall_us();
        let mut ring = self.flight.lock();
        ring.next_seq += 1;
        let ev = FlightEvent {
            seq: ring.next_seq,
            wall_us,
            kind,
            detail: detail.to_string(),
            args: args.to_vec(),
        };
        if ring.events.len() >= DEFAULT_FLIGHT_CAP {
            ring.events.pop_front();
        }
        ring.events.push_back(ev);
    }

    /// Snapshot of the flight ring (oldest first) plus the total number of
    /// events ever recorded.
    pub fn flight_events(&self) -> (Vec<FlightEvent>, u64) {
        let ring = self.flight.lock();
        (ring.events.iter().cloned().collect(), ring.next_seq)
    }

    /// Dump the flight ring atomically (temp file + rename) to
    /// `qdp-flight-<pid>-<n>.json` in the flight directory
    /// (`QDP_FLIGHT_DIR`, default system temp dir), where `n` is this
    /// registry's process-unique serial, so registries sharing a process
    /// never overwrite each other's dumps. `reason` records why the dump
    /// happened (`panic`, `launch_failure`, `persist_corrupt`). Returns the
    /// path on success; errors are reported on stderr, never propagated —
    /// the dump runs on failure paths that must not fail harder.
    pub fn dump_flight(&self, reason: &str) -> Option<PathBuf> {
        let wall_us = self.wall_us();
        let ring = self.flight.lock();
        let dir = ring
            .dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        let pid = std::process::id();
        let name = format!("qdp-flight-{pid}-{}.json", self.serial);
        let path = dir.join(&name);
        let tmp = dir.join(format!("{name}.tmp"));
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"version\":1,\"pid\":{pid},\"reason\":\"{}\",\"wall_us\":{},\"total_events\":{},\"events\":[",
            json::escape(reason),
            json::number(wall_us),
            ring.next_seq,
        ));
        for (i, ev) in ring.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"wall_us\":{},\"kind\":\"{}\",\"detail\":\"{}\"",
                ev.seq,
                json::number(ev.wall_us),
                json::escape(ev.kind),
                json::escape(&ev.detail),
            ));
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in ev.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":{}", json::escape(k), json::number(*v)));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        drop(ring);
        let write = std::fs::write(&tmp, out.as_bytes())
            .and_then(|()| std::fs::rename(&tmp, &path));
        match write {
            Ok(()) => Some(path),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                eprintln!(
                    "qdp-telemetry: cannot write flight dump to {}: {e}",
                    path.display()
                );
                None
            }
        }
    }

    /// Register this registry with the process-wide panic hook: a panic on
    /// any thread dumps the flight ring of every armed, still-live registry
    /// (`reason = "panic"`), then the previous hook runs. Idempotent per
    /// registry; dead registries are pruned on each call.
    pub fn arm_panic_dump(self: &Arc<Telemetry>) {
        PANIC_HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let targets = PANIC_TARGETS.lock();
                for weak in targets.iter() {
                    if let Some(t) = weak.upgrade() {
                        if let Some(p) = t.dump_flight("panic") {
                            eprintln!("qdp-telemetry: flight recorder dumped to {}", p.display());
                        }
                    }
                }
                drop(targets);
                prev(info);
            }));
        });
        let mut targets = PANIC_TARGETS.lock();
        targets.retain(|w| w.strong_count() > 0);
        if !targets.iter().any(|w| w.ptr_eq(&Arc::downgrade(self))) {
            targets.push(Arc::downgrade(self));
        }
    }

    // --- JIT / launch recording -------------------------------------------

    /// Record a kernel-cache lookup outcome for `kernel`: a hit or a miss,
    /// with its wall and modelled translation times (a persist hit lowers
    /// in wall time at no modelled cost; an in-memory hit costs neither).
    pub fn record_compile(&self, kernel: &str, hit: bool, wall: f64, modeled: f64) {
        if !self.enabled() {
            return;
        }
        let record_event = self.is_tracing() && !hit;
        let wall_end_us = self.wall_us();
        let mut inner = self.inner.lock();
        let k = inner.kernels.entry(kernel.to_string()).or_default();
        if hit {
            k.jit_hits += 1;
        } else {
            k.jit_misses += 1;
        }
        k.wall_compile_time += wall;
        k.modeled_compile_time += modeled;
        if record_event {
            Self::push_event(
                &mut inner,
                TraceEvent {
                    name: format!("jit-compile {kernel}"),
                    cat: "jit",
                    track: Track::Host,
                    tid: current_tid(),
                    ts_us: (wall_end_us - wall * 1e6).max(0.0),
                    dur_us: wall * 1e6,
                    args: vec![("modeled_s", modeled)],
                },
            );
        }
    }

    /// Record a failed JIT translation (bad PTX, lowering error).
    pub fn record_compile_error(&self) {
        self.count("jit.compile_errors", 1);
    }

    /// Record one successful kernel launch with the full hardware-counter
    /// model (load/store transactions, occupancy, waves, launch-overhead
    /// share). Also appends a `launch` flight event.
    pub fn record_launch_full(&self, rec: &LaunchRecord<'_>) {
        self.record_flight(
            "launch",
            rec.kernel,
            &[
                ("block", rec.block as f64),
                ("sim_t0", rec.sim_t0),
                ("sim_dur", rec.sim_dur),
                ("bytes", (rec.read_bytes + rec.write_bytes) as f64),
                ("stream", rec.stream as f64),
            ],
        );
        if !self.enabled() {
            return;
        }
        let tracing = self.is_tracing();
        let bytes = rec.read_bytes + rec.write_bytes;
        let mut inner = self.inner.lock();
        let k = inner.kernels.entry(rec.kernel.to_string()).or_default();
        k.launches += 1;
        if rec.trial {
            k.trial_launches += 1;
        }
        k.block_size = rec.block;
        k.settled = rec.settled;
        k.sim_time += rec.sim_dur;
        k.bytes += bytes;
        k.read_bytes += rec.read_bytes;
        k.write_bytes += rec.write_bytes;
        k.flops += rec.flops;
        k.ld_transactions += rec.ld_transactions;
        k.st_transactions += rec.st_transactions;
        k.occupancy = rec.occupancy;
        k.waves += rec.waves;
        k.overhead += rec.overhead;
        k.double_precision = rec.double_precision;
        if tracing {
            Self::push_event(
                &mut inner,
                TraceEvent {
                    name: rec.kernel.to_string(),
                    cat: "kernel",
                    track: Track::Device,
                    tid: rec.stream,
                    ts_us: rec.sim_t0 * 1e6,
                    dur_us: rec.sim_dur * 1e6,
                    args: vec![
                        ("block", rec.block as f64),
                        ("bytes", bytes as f64),
                        (
                            "gb_per_s",
                            if rec.sim_dur > 0.0 {
                                bytes as f64 / rec.sim_dur / 1e9
                            } else {
                                0.0
                            },
                        ),
                        ("ld_tx", rec.ld_transactions as f64),
                        ("st_tx", rec.st_transactions as f64),
                        ("occ", rec.occupancy),
                    ],
                },
            );
        }
    }

    /// Record a failed launch attempt (resource exhaustion at `block`).
    pub fn record_launch_failure(&self, kernel: &str, block: u32) {
        self.record_flight("launch_fail", kernel, &[("block", block as f64)]);
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        inner
            .kernels
            .entry(kernel.to_string())
            .or_default()
            .launch_failures += 1;
        *inner
            .counters
            .entry("jit.launch_failures".to_string())
            .or_insert(0) += 1;
    }

    /// Record a persistent-store kernel hit for `kernel` (PTX served from
    /// disk across processes — the `persist.hits` counter, attributed).
    pub fn record_persist_hit(&self, kernel: &str) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.kernels.entry(kernel.to_string()).or_default().persist_hits += 1;
    }

    /// Record that `kernel`'s block size was seeded from the persistent
    /// store (the tuner starts settled, skipping its probe ladder).
    pub fn record_tuner_seeded(&self, kernel: &str) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.kernels.entry(kernel.to_string()).or_default().tuner_seeded = true;
    }

    /// Record an event on a simulated-clock timeline (`Track::Device` for
    /// PCIe transfers, `Track::Comm` for MPI traffic) on trace thread `tid`
    /// (the device stream id for `Track::Device` events, so each stream
    /// renders as its own Perfetto track; 0 for the comm timeline). Times
    /// in simulated seconds.
    #[allow(clippy::too_many_arguments)]
    pub fn record_sim_event_on(
        &self,
        track: Track,
        tid: u32,
        cat: &'static str,
        name: &str,
        sim_t0: f64,
        sim_dur: f64,
        args: &[(&'static str, f64)],
    ) {
        if !self.is_tracing() {
            return;
        }
        let mut inner = self.inner.lock();
        Self::push_event(
            &mut inner,
            TraceEvent {
                name: name.to_string(),
                cat,
                track,
                tid,
                ts_us: sim_t0 * 1e6,
                dur_us: sim_dur * 1e6,
                args: args.to_vec(),
            },
        );
    }

    /// Register a display name for a simulated-clock trace thread
    /// (`(track, tid)` — e.g. a device stream). Written out as
    /// `thread_name` metadata in the Chrome trace. Last registration wins.
    pub fn set_sim_thread_name(&self, track: Track, tid: u32, name: &str) {
        if !self.is_tracing() {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(e) = inner
            .sim_thread_names
            .iter_mut()
            .find(|(t, i, _)| *t == track && *i == tid)
        {
            e.2 = name.to_string();
        } else {
            inner.sim_thread_names.push((track, tid, name.to_string()));
        }
    }

    fn push_event(inner: &mut Inner, ev: TraceEvent) {
        if inner.events.len() >= MAX_TRACE_EVENTS {
            inner.dropped_events += 1;
            return;
        }
        inner.events.push(ev);
    }

    // --- spans -------------------------------------------------------------

    /// Open a span named `cat/name` on the host (wall-clock) timeline. The
    /// guard records on drop; call [`Span::end_with_sim`] to also attribute
    /// simulated-clock time (pair with [`Span::with_sim`] at the start).
    pub fn span(&self, cat: &'static str, name: &str) -> Span<'_> {
        if !self.enabled() {
            return Span { active: None };
        }
        Span {
            active: Some(SpanActive {
                tel: self,
                cat,
                name: name.to_string(),
                ts_us: self.wall_us(),
                t0: Instant::now(),
                sim_start: None,
                sim_end: None,
            }),
        }
    }

    fn record_span(
        &self,
        cat: &'static str,
        name: &str,
        ts_us: f64,
        wall: f64,
        sim: Option<(f64, f64)>,
    ) {
        let tracing = self.is_tracing();
        let mut inner = self.inner.lock();
        let st = inner
            .spans
            .entry(format!("{cat}/{name}"))
            .or_default();
        st.count += 1;
        st.wall += wall;
        if let Some((s0, s1)) = sim {
            st.sim += (s1 - s0).max(0.0);
        }
        if tracing {
            let mut args: Vec<(&'static str, f64)> = Vec::new();
            if let Some((s0, s1)) = sim {
                args.push(("sim_t0_us", s0 * 1e6));
                args.push(("sim_dur_us", (s1 - s0).max(0.0) * 1e6));
            }
            Self::push_event(
                &mut inner,
                TraceEvent {
                    name: name.to_string(),
                    cat,
                    track: Track::Host,
                    tid: current_tid(),
                    ts_us,
                    dur_us: wall * 1e6,
                    args,
                },
            );
        }
    }

    // --- export ------------------------------------------------------------

    /// Snapshot everything recorded so far as a structured report.
    pub fn profile_report(&self) -> ProfileReport {
        let inner = self.inner.lock();
        report::build(&inner)
    }

    /// Write the recorded events as Chrome trace-event JSON to `path`.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let inner = self.inner.lock();
        trace::write_chrome_trace(
            path,
            &inner.events,
            &inner.sim_thread_names,
            inner.dropped_events,
        )
    }

    /// Write the Chrome trace to the configured `QDP_TRACE` path, once.
    /// Returns the path if a write happened.
    pub fn flush_trace(&self) -> Option<PathBuf> {
        let path = self.trace_path()?;
        if self.trace_written.swap(true, Ordering::SeqCst) {
            return None;
        }
        match self.write_chrome_trace(&path) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("qdp-telemetry: cannot write trace to {}: {e}", path.display());
                None
            }
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.flush_trace();
    }
}

/// RAII span guard returned by [`Telemetry::span`]. A disabled registry
/// hands out inert guards, so instrumented code pays nothing when off.
pub struct Span<'t> {
    active: Option<SpanActive<'t>>,
}

struct SpanActive<'t> {
    tel: &'t Telemetry,
    cat: &'static str,
    name: String,
    ts_us: f64,
    t0: Instant,
    sim_start: Option<f64>,
    sim_end: Option<f64>,
}

impl<'t> Span<'t> {
    /// Attach the simulated clock at span start (typically `device.now()`).
    pub fn with_sim(mut self, sim_now: f64) -> Span<'t> {
        if let Some(a) = self.active.as_mut() {
            a.sim_start = Some(sim_now);
        }
        self
    }

    /// Close the span, attributing simulated time up to `sim_now`.
    pub fn end_with_sim(mut self, sim_now: f64) {
        if let Some(a) = self.active.as_mut() {
            a.sim_end = Some(sim_now);
        }
        // drop records
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let wall = a.t0.elapsed().as_secs_f64();
            let sim = match (a.sim_start, a.sim_end) {
                (Some(s0), Some(s1)) => Some((s0, s1)),
                _ => None,
            };
            a.tel.record_span(a.cat, &a.name, a.ts_us, wall, sim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let t = Telemetry::new();
        assert!(!t.enabled());
        t.count("x", 5);
        t.observe("h", 1.0);
        t.record_launch_full(&LaunchRecord {
            kernel: "k",
            block: 128,
            settled: true,
            sim_dur: 1e-3,
            read_bytes: 100,
            flops: 10,
            ..Default::default()
        });
        {
            let _s = t.span("cat", "name");
        }
        let r = t.profile_report();
        assert!(r.counters.is_empty());
        assert!(r.kernels.is_empty());
        assert!(r.spans.is_empty());
        assert_eq!(r.trace_events, 0);
    }

    #[test]
    fn counters_and_hists_accumulate() {
        let t = Telemetry::new();
        t.enable();
        t.count("c", 2);
        t.count("c", 3);
        t.gauge("g", 7.5);
        t.observe("h", 1.0);
        t.observe("h", 3.0);
        let r = t.profile_report();
        assert_eq!(r.counter("c"), 5);
        assert_eq!(r.gauges["g"], 7.5);
        let h = &r.hists["h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 4.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert_eq!(h.mean(), 2.0);
    }

    #[test]
    fn kernel_profile_aggregates_launches_and_compiles() {
        let t = Telemetry::new();
        t.enable();
        t.record_compile("k1", false, 1e-4, 0.05);
        t.record_compile("k1", true, 0.0, 0.0);
        t.record_compile("k1", true, 0.0, 0.0);
        t.record_launch_full(&LaunchRecord {
            kernel: "k1",
            block: 1024,
            trial: true,
            sim_dur: 1e-3,
            read_bytes: 1000,
            flops: 500,
            ..Default::default()
        });
        t.record_launch_full(&LaunchRecord {
            kernel: "k1",
            block: 512,
            trial: true,
            settled: true,
            sim_t0: 1e-3,
            sim_dur: 0.5e-3,
            read_bytes: 1000,
            flops: 500,
            ..Default::default()
        });
        t.record_launch_full(&LaunchRecord {
            kernel: "k1",
            block: 512,
            settled: true,
            sim_t0: 1.5e-3,
            sim_dur: 0.5e-3,
            read_bytes: 1000,
            flops: 500,
            ..Default::default()
        });
        t.record_launch_failure("k1", 1024);
        t.record_persist_hit("k1");
        t.record_tuner_seeded("k1");
        let r = t.profile_report();
        let k = r.kernel("k1").expect("kernel row");
        assert_eq!(k.persist_hits, 1);
        assert!(k.tuner_seeded);
        assert_eq!(k.launches, 3);
        assert_eq!(k.trial_launches, 2);
        assert_eq!(k.launch_failures, 1);
        assert_eq!(k.block_size, 512);
        assert!(k.settled);
        assert!((k.sim_time - 2e-3).abs() < 1e-12);
        assert_eq!(k.bytes, 3000);
        assert!((k.bandwidth - 3000.0 / 2e-3).abs() < 1e-6);
        assert_eq!(r.jit.hits, 2);
        assert_eq!(r.jit.misses, 1);
        assert!((r.jit.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.counter("jit.launch_failures"), 1);
    }

    #[test]
    fn hist_quantiles_single_sample_and_constant() {
        // p50/p99 of a single observation are that observation, exactly
        // (the clamp to [min, max] defeats the bucket quantisation).
        let t = Telemetry::new();
        t.enable();
        t.observe("one", 0.037);
        let r = t.profile_report();
        let h = &r.hists["one"];
        assert_eq!(h.p50, 0.037);
        assert_eq!(h.p99, 0.037);
        // constant series: every quantile is the constant
        for _ in 0..100 {
            t.observe("const", 2.5);
        }
        let r = t.profile_report();
        let h = &r.hists["const"];
        assert_eq!(h.p50, 2.5);
        assert_eq!(h.p99, 2.5);
    }

    #[test]
    fn hist_quantiles_spread_and_edges() {
        let t = Telemetry::new();
        t.enable();
        // 100 observations 1..=100: p50 ~ 50, p99 ~ 99 (within the ~12%
        // bucket resolution), p0 clamps to min, p100 to max.
        for i in 1..=100 {
            t.observe("u", i as f64);
        }
        let r = t.profile_report();
        let h = &r.hists["u"];
        assert!((h.p50 / 50.0 - 1.0).abs() < 0.15, "p50 = {}", h.p50);
        assert!((h.p99 / 99.0 - 1.0).abs() < 0.15, "p99 = {}", h.p99);
        assert!(h.p50 >= h.min && h.p50 <= h.max);
        assert!(h.p99 >= h.p50 && h.p99 <= h.max);
        // non-positive values land in the zero bucket and don't panic
        t.observe("z", 0.0);
        t.observe("z", -5.0);
        t.observe("z", 10.0);
        let r = t.profile_report();
        let h = &r.hists["z"];
        assert_eq!(h.count, 3);
        assert!(h.p50 <= 0.0, "p50 of [-5, 0, 10] sits in the zero bucket");
        // empty histogram never observed: quantile of nothing is 0
        assert!(Hist::new().quantile(0.5) == 0.0);
    }

    #[test]
    fn hist_quantiles_extreme_magnitudes_clamp() {
        let t = Telemetry::new();
        t.enable();
        // values beyond the bucket range still clamp into [min, max]
        t.observe("x", 1e-30);
        t.observe("x", 1e30);
        let r = t.profile_report();
        let h = &r.hists["x"];
        assert!(h.p50 >= 1e-30 && h.p50 <= 1e30);
        assert!(h.p99 >= h.p50 && h.p99 <= 1e30);
    }

    #[test]
    fn flight_ring_is_bounded_and_dumps() {
        let t = Telemetry::new();
        let dir = std::env::temp_dir().join(format!(
            "qdp_flight_unit_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        t.set_flight_dir(&dir);
        for i in 0..(DEFAULT_FLIGHT_CAP + 10) {
            t.record_flight("launch", "k", &[("i", i as f64)]);
        }
        let (events, total) = t.flight_events();
        assert_eq!(events.len(), DEFAULT_FLIGHT_CAP);
        assert_eq!(total, (DEFAULT_FLIGHT_CAP + 10) as u64);
        // oldest events were evicted; seq numbers stay monotonic
        assert_eq!(events[0].seq, 11);
        assert_eq!(events.last().unwrap().seq, total);
        let path = t.dump_flight("launch_failure").expect("dump written");
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            format!("qdp-flight-{}-{}.json", std::process::id(), t.serial)
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = json::parse(&text).expect("flight dump must parse");
        assert_eq!(doc.get("version").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(
            doc.get("reason").and_then(|v| v.as_str()),
            Some("launch_failure")
        );
        let evs = doc.get("events").unwrap().as_array().unwrap();
        assert_eq!(evs.len(), DEFAULT_FLIGHT_CAP);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registries_in_one_process_dump_to_their_own_files() {
        let dir = std::env::temp_dir().join(format!("qdp_flight_two_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ranks = [Telemetry::new(), Telemetry::new()];
        for (r, t) in ranks.iter().enumerate() {
            t.set_flight_dir(&dir);
            t.record_flight("launch", &format!("rank{r}"), &[]);
        }
        for t in &ranks {
            t.dump_flight("panic").expect("dump written");
        }
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert_eq!(files.len(), 2, "one dump per registry, got {files:?}");
        let mut details: Vec<String> = files
            .iter()
            .map(|p| {
                let doc = json::parse(&std::fs::read_to_string(p).unwrap())
                    .expect("flight dump must parse");
                let evs = doc.get("events").unwrap().as_array().unwrap();
                assert_eq!(evs.len(), 1, "{} holds only its own ring", p.display());
                evs[0]
                    .get("detail")
                    .and_then(|d| d.as_str())
                    .unwrap()
                    .to_string()
            })
            .collect();
        details.sort();
        assert_eq!(details, ["rank0", "rank1"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spans_record_wall_and_sim() {
        let t = Telemetry::new();
        t.enable();
        {
            let s = t.span("hmc", "trajectory").with_sim(1.0);
            std::thread::sleep(std::time::Duration::from_millis(2));
            s.end_with_sim(1.5);
        }
        let r = t.profile_report();
        let row = r.span("hmc/trajectory").expect("span row");
        assert_eq!(row.count, 1);
        assert!(row.wall > 0.0);
        assert!((row.sim - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trace_events_written_and_parse() {
        let t = Telemetry::new();
        let path = std::env::temp_dir().join(format!(
            "qdp_telemetry_test_{}.json",
            std::process::id()
        ));
        t.enable_trace(&path);
        assert!(t.is_tracing());
        t.record_launch_full(&LaunchRecord {
            kernel: "k",
            block: 128,
            settled: true,
            sim_dur: 1e-3,
            read_bytes: 4096,
            flops: 128,
            stream: 1,
            ..Default::default()
        });
        t.record_sim_event_on(Track::Comm, 0, "comm", "send", 0.0, 1e-6, &[("bytes", 9.0)]);
        {
            let _s = t.span("eval", "eval");
        }
        let flushed = t.flush_trace().expect("trace written");
        assert_eq!(flushed, path);
        // second flush is a no-op
        assert!(t.flush_trace().is_none());
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = json::parse(&text).expect("trace must be valid JSON");
        let evs = doc.get("traceEvents").unwrap().as_array().unwrap();
        let kernels = evs
            .iter()
            .filter(|e| {
                e.get("cat").and_then(|c| c.as_str()) == Some("kernel")
                    && e.get("ph").and_then(|p| p.as_str()) == Some("X")
            })
            .count();
        assert_eq!(kernels, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn event_cap_counts_drops() {
        let t = Telemetry::new();
        t.enable_trace("/nonexistent/never-written.json");
        {
            // bypass the cap loop cheaply: record two events into a tiny
            // budget by filling via the public API
            let mut inner = t.inner.lock();
            for i in 0..MAX_TRACE_EVENTS {
                Telemetry::push_event(
                    &mut inner,
                    TraceEvent {
                        name: String::new(),
                        cat: "x",
                        track: Track::Host,
                        tid: 0,
                        ts_us: i as f64,
                        dur_us: 0.0,
                        args: Vec::new(),
                    },
                );
            }
        }
        t.record_sim_event_on(Track::Device, 0, "xfer", "h2d", 0.0, 1.0, &[]);
        let r = t.profile_report();
        assert_eq!(r.trace_events, MAX_TRACE_EVENTS);
        assert_eq!(r.dropped_events, 1);
        // prevent the Drop impl from attempting the bogus path
        *t.trace_path.lock() = None;
    }
}
