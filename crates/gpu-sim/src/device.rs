//! The simulated device: memory + stream timelines + transfer engine +
//! statistics.

use crate::config::DeviceConfig;
use crate::memory::{DeviceMemory, DevicePtr};
use crate::perf::{launch_timing, KernelShape, LaunchError, LaunchTiming};
use crate::stream::{Event, StreamId, StreamTable};
use crate::sync::Mutex;
use crate::DeviceError;
use qdp_telemetry::{Telemetry, Track};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of [`Device::id`] values.
static NEXT_DEVICE_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's stream bindings: at most one `(device id, stream)`
    /// entry per device (see [`Device::bind_stream`]).
    static BOUND: RefCell<Vec<(u64, StreamId)>> = const { RefCell::new(Vec::new()) };
}

/// Set (`Some`) or clear (`None`) this thread's binding for `device`;
/// returns the binding it replaces.
fn swap_binding(device: u64, stream: Option<StreamId>) -> Option<StreamId> {
    BOUND.with_borrow_mut(|b| {
        let at = b.iter().position(|&(d, _)| d == device);
        let prev = at.map(|i| b.swap_remove(i).1);
        b.extend(stream.map(|s| (device, s)));
        prev
    })
}

/// Scope of a [`Device::bind_stream`] call: while it lives, the issuing
/// thread's work on the device runs on the bound stream; dropping it
/// restores the binding it replaced. Tied to the binding thread.
#[must_use = "the binding ends when the guard is dropped"]
pub struct StreamBinding<'a> {
    device: &'a Device,
    prev: Option<StreamId>,
    _this_thread: PhantomData<*const ()>,
}

impl Drop for StreamBinding<'_> {
    fn drop(&mut self) {
        swap_binding(self.device.id, self.prev);
    }
}

/// Cumulative device statistics (reported by benchmark harnesses and the
/// cache ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Kernel launches performed.
    pub launches: u64,
    /// Host→device transfers.
    pub h2d_copies: u64,
    /// Device→host transfers.
    pub d2h_copies: u64,
    /// Bytes moved host→device.
    pub h2d_bytes: u64,
    /// Bytes moved device→host.
    pub d2h_bytes: u64,
    /// Simulated seconds spent in kernels.
    pub kernel_time: f64,
    /// Simulated seconds spent in PCIe transfers.
    pub transfer_time: f64,
}

/// A simulated CUDA device.
///
/// Time lives in a table of per-stream fronts (see [`crate::stream`]).
/// Work that names no stream runs on the issuing thread's bound stream
/// ([`Device::bind_stream`], CUDA's per-thread default stream); a thread
/// that binds nothing is on the default stream, whose legacy-sync
/// semantics make it arithmetically identical to one global clock when no
/// other stream carries work.
pub struct Device {
    id: u64,
    cfg: DeviceConfig,
    mem: DeviceMemory,
    streams: Mutex<StreamTable>,
    stats: Mutex<DeviceStats>,
    telemetry: Arc<Telemetry>,
}

impl Device {
    /// Bring up a device with the given configuration and its own
    /// (disabled) telemetry registry.
    pub fn new(cfg: DeviceConfig) -> Device {
        Device::with_telemetry(cfg, Arc::new(Telemetry::new()))
    }

    /// Bring up a device recording into an existing telemetry registry
    /// (used by `QdpContext` so the whole stack shares one registry).
    pub fn with_telemetry(cfg: DeviceConfig, telemetry: Arc<Telemetry>) -> Device {
        let mem = DeviceMemory::new(cfg.memory_bytes);
        telemetry.set_sim_thread_name(Track::Device, 0, "stream0 (default)");
        Device {
            id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
            cfg,
            mem,
            streams: Mutex::new(StreamTable::new()),
            stats: Mutex::new(DeviceStats::default()),
            telemetry,
        }
    }

    /// The telemetry registry this device records into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// The global memory arena.
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    // --- streams & events --------------------------------------------------

    /// Create a new stream whose timeline begins at the default stream's
    /// current front. `name` labels the stream's Perfetto track in
    /// `QDP_TRACE` output.
    pub fn create_stream(&self, name: &str) -> StreamId {
        let id = self.streams.lock().create(name);
        self.stream_created(id, name)
    }

    fn stream_created(&self, id: StreamId, name: &str) -> StreamId {
        self.telemetry
            .set_sim_thread_name(Track::Device, id.0, name);
        self.telemetry.count("stream.created", 1);
        id
    }

    /// The stream named `name`, created on first use — for streams that
    /// live as long as the device (one per role, not one per user).
    pub fn named_stream(&self, name: &str) -> StreamId {
        let mut table = self.streams.lock();
        if let Some(id) = table.find(name) {
            return id;
        }
        let id = table.create(name);
        drop(table);
        self.stream_created(id, name)
    }

    /// Bind the calling thread to stream `s` on this device until the
    /// returned guard drops: every evaluation, reduction and clock read
    /// that names no stream then uses `s`. Bindings nest (the guard
    /// restores the one it replaced) and are invisible to other threads
    /// and other devices.
    pub fn bind_stream(&self, s: StreamId) -> StreamBinding<'_> {
        StreamBinding {
            device: self,
            prev: swap_binding(self.id, Some(s)),
            _this_thread: PhantomData,
        }
    }

    /// The calling thread's bound stream on this device, or
    /// [`StreamId::DEFAULT`] when it has bound none.
    pub fn current_stream(&self) -> StreamId {
        BOUND.with_borrow(|b| {
            b.iter()
                .find(|&&(d, _)| d == self.id)
                .map_or(StreamId::DEFAULT, |&(_, s)| s)
        })
    }

    /// Number of streams on this device (including the default stream).
    pub fn stream_count(&self) -> usize {
        self.streams.lock().len()
    }

    /// Display name of a stream.
    pub fn stream_name(&self, s: StreamId) -> String {
        self.streams.lock().name(s).to_string()
    }

    /// Current front (simulated seconds) of stream `s` — the time its last
    /// submitted operation completes.
    pub fn stream_now(&self, s: StreamId) -> f64 {
        self.streams.lock().front(s)
    }

    /// Account `dt` seconds of work on stream `s`; returns completion time.
    pub fn advance_stream(&self, s: StreamId, dt: f64) -> f64 {
        self.streams.lock().advance(s, dt)
    }

    /// Raise stream `s`'s front to at least `t` (stream-join semantics);
    /// returns the new front.
    pub fn advance_stream_to(&self, s: StreamId, t: f64) -> f64 {
        self.streams.lock().advance_to(s, t)
    }

    /// Record an event capturing stream `s`'s current front.
    pub fn record_event(&self, s: StreamId) -> Event {
        let time = self.streams.lock().front(s);
        self.telemetry.count("stream.events_recorded", 1);
        Event { time, stream: s }
    }

    /// Make stream `s` wait for `ev`: raises its front to at least the
    /// event's captured time. Returns the stream's (possibly unchanged)
    /// front.
    pub fn stream_wait_event(&self, s: StreamId, ev: Event) -> f64 {
        self.telemetry.count("stream.event_waits", 1);
        self.streams.lock().advance_to(s, ev.time)
    }

    /// Join every stream to the maximum front and return it — the simulated
    /// `cudaDeviceSynchronize`.
    pub fn sync(&self) -> f64 {
        self.telemetry.count("stream.syncs", 1);
        self.streams.lock().sync()
    }

    /// Current simulated time in seconds: the front of the issuing thread's
    /// stream ([`Device::current_stream`]).
    pub fn now(&self) -> f64 {
        self.stream_now(self.current_stream())
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> DeviceStats {
        *self.stats.lock()
    }

    /// Allocate device memory.
    pub fn alloc(&self, bytes: usize) -> Result<DevicePtr, DeviceError> {
        self.mem.alloc(bytes)
    }

    /// Free device memory.
    pub fn free(&self, ptr: DevicePtr) {
        self.mem.freemem(ptr)
    }

    /// PCIe transfer cost for `bytes`.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.cfg.pcie_latency + bytes as f64 / self.cfg.pcie_bandwidth
    }

    /// Stream-ordered host → device copy: the data lands immediately (the
    /// simulation is functional-first), the PCIe cost is accounted on
    /// stream `s`'s timeline. Returns the completion time on that stream.
    pub fn h2d_async(&self, dst: DevicePtr, src: &[u8], s: StreamId) -> f64 {
        self.mem.copy_from_host(dst, src);
        let dt = self.transfer_time(src.len());
        {
            let mut st = self.stats.lock();
            st.h2d_copies += 1;
            st.h2d_bytes += src.len() as u64;
            st.transfer_time += dt;
        }
        let after = self.advance_stream(s, dt);
        self.telemetry.record_flight(
            "h2d",
            "",
            &[
                ("bytes", src.len() as f64),
                ("stream", s.0 as f64),
                ("sim_t0", after - dt),
            ],
        );
        if self.telemetry.enabled() {
            self.telemetry.count("device.h2d_copies", 1);
            self.telemetry.count("device.h2d_bytes", src.len() as u64);
            if !s.is_default() {
                self.telemetry.count("stream.h2d_async", 1);
            }
            self.telemetry.record_sim_event_on(
                Track::Device,
                s.0,
                "xfer",
                "h2d",
                after - dt,
                dt,
                &[("bytes", src.len() as f64)],
            );
        }
        after
    }

    /// Stream-ordered device → host copy; see [`Device::h2d_async`].
    pub fn d2h_async(&self, src: DevicePtr, dst: &mut [u8], s: StreamId) -> f64 {
        self.mem.copy_to_host(src, dst);
        let dt = self.transfer_time(dst.len());
        {
            let mut st = self.stats.lock();
            st.d2h_copies += 1;
            st.d2h_bytes += dst.len() as u64;
            st.transfer_time += dt;
        }
        let after = self.advance_stream(s, dt);
        self.telemetry.record_flight(
            "d2h",
            "",
            &[
                ("bytes", dst.len() as f64),
                ("stream", s.0 as f64),
                ("sim_t0", after - dt),
            ],
        );
        if self.telemetry.enabled() {
            self.telemetry.count("device.d2h_copies", 1);
            self.telemetry.count("device.d2h_bytes", dst.len() as u64);
            if !s.is_default() {
                self.telemetry.count("stream.d2h_async", 1);
            }
            self.telemetry.record_sim_event_on(
                Track::Device,
                s.0,
                "xfer",
                "d2h",
                after - dt,
                dt,
                &[("bytes", dst.len() as f64)],
            );
        }
        after
    }

    /// Account a kernel launch on stream `s`: computes the simulated
    /// execution time for `shape` at `block_size`, advances that stream's
    /// front, updates statistics. The *functional* execution is performed
    /// by the JIT crate; this is the timing half.
    pub fn account_launch_on(
        &self,
        shape: &KernelShape,
        block_size: u32,
        s: StreamId,
    ) -> Result<LaunchTiming, LaunchError> {
        let t = launch_timing(&self.cfg, shape, block_size)?;
        {
            let mut st = self.stats.lock();
            st.launches += 1;
            st.kernel_time += t.time;
        }
        self.advance_stream(s, t.time);
        if !s.is_default() {
            self.telemetry.count("stream.async_launches", 1);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let d = Device::new(DeviceConfig::tiny(1 << 20));
        assert_eq!(d.now(), 0.0);
        let t1 = d.advance_stream(StreamId::DEFAULT, 1e-3);
        let t2 = d.advance_stream(StreamId::DEFAULT, 0.0);
        assert_eq!(t1, t2);
        let t3 = d.advance_stream_to(StreamId::DEFAULT, 0.5e-3); // in the past: no-op
        assert_eq!(t3, t1);
        let t4 = d.advance_stream_to(StreamId::DEFAULT, 2e-3);
        assert_eq!(t4, 2e-3);
    }

    #[test]
    fn transfers_move_data_and_time() {
        let d = Device::new(DeviceConfig::tiny(1 << 20));
        let p = d.alloc(1024).unwrap();
        let data = vec![7u8; 1024];
        let t_after = d.h2d_async(p, &data, StreamId::DEFAULT);
        assert!(t_after > 0.0);
        let mut back = vec![0u8; 1024];
        d.d2h_async(p, &mut back, StreamId::DEFAULT);
        assert_eq!(back, data);
        let s = d.stats();
        assert_eq!(s.h2d_copies, 1);
        assert_eq!(s.d2h_copies, 1);
        assert_eq!(s.h2d_bytes, 1024);
        assert!(s.transfer_time > 0.0);
    }

    fn shape(regs_per_thread: u32, double_precision: bool) -> KernelShape {
        KernelShape {
            threads: 4096,
            read_bytes_per_thread: 96,
            write_bytes_per_thread: 96,
            flops_per_thread: 100,
            regs_per_thread,
            access_bytes: if double_precision { 8 } else { 4 },
            site_stride: 1,
            double_precision,
        }
    }

    #[test]
    fn launch_accounting() {
        let d = Device::new(DeviceConfig::k20x_ecc_off());
        let before = d.now();
        let t = d
            .account_launch_on(&shape(32, false), 128, StreamId::DEFAULT)
            .unwrap();
        assert!(d.now() > before);
        assert!(t.time > 0.0);
        assert_eq!(d.stats().launches, 1);
    }

    #[test]
    fn launch_failure_leaves_the_clock_alone() {
        let d = Device::new(DeviceConfig::k20x_ecc_off());
        assert!(d
            .account_launch_on(&shape(128, true), 1024, StreamId::DEFAULT)
            .is_err());
        assert_eq!(d.now(), 0.0);
        assert_eq!(d.stats().launches, 0);
    }

    #[test]
    fn unbound_thread_is_on_the_default_stream() {
        let d = Device::new(DeviceConfig::tiny(1 << 20));
        assert_eq!(d.current_stream(), StreamId::DEFAULT);
        let s = d.create_stream("s");
        d.advance_stream(s, 3e-3);
        assert_eq!(d.now(), 0.0, "unbound: the clock is the default front");
        let _b = d.bind_stream(s);
        assert_eq!(d.current_stream(), s);
        assert_eq!(d.now(), 3e-3, "bound: the clock is the bound front");
    }

    #[test]
    fn nested_bindings_restore_in_lifo_order_even_on_unwind() {
        let d = Device::new(DeviceConfig::tiny(1 << 20));
        let a = d.create_stream("a");
        let b = d.create_stream("b");
        {
            let _outer = d.bind_stream(a);
            {
                let _inner = d.bind_stream(b);
                assert_eq!(d.current_stream(), b);
            }
            assert_eq!(d.current_stream(), a);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _inner = d.bind_stream(b);
                panic!("job failed under a binding");
            }));
            assert!(unwound.is_err());
            assert_eq!(
                d.current_stream(),
                a,
                "unwinding restored the outer binding"
            );
        }
        assert_eq!(d.current_stream(), StreamId::DEFAULT);
    }

    #[test]
    fn binding_is_per_device_and_per_thread() {
        let d1 = Device::new(DeviceConfig::tiny(1 << 20));
        let d2 = Device::new(DeviceConfig::tiny(1 << 20));
        let s1 = d1.create_stream("s");
        let s2 = d2.create_stream("s");
        assert_eq!(
            s1, s2,
            "same id on both devices: only the device tells them apart"
        );
        let _b = d1.bind_stream(s1);
        assert_eq!(d2.current_stream(), StreamId::DEFAULT);
        std::thread::scope(|scope| {
            scope
                .spawn(|| assert_eq!(d1.current_stream(), StreamId::DEFAULT))
                .join()
                .unwrap();
        });
        assert_eq!(d1.current_stream(), s1);
    }

    #[test]
    fn named_stream_is_created_once() {
        let d = Device::new(DeviceConfig::tiny(1 << 20));
        let a = d.named_stream("role");
        assert_eq!(d.named_stream("role"), a);
        assert_eq!(d.stream_count(), 2);
        assert_ne!(d.create_stream("role"), a, "create_stream always creates");
    }

    #[test]
    fn events_order_cross_stream_work() {
        let d = Device::new(DeviceConfig::tiny(1 << 20));
        let a = d.create_stream("comm");
        let b = d.create_stream("compute");
        d.advance_stream(a, 5e-3);
        let ev = d.record_event(a);
        assert_eq!(ev.time(), 5e-3);
        assert_eq!(ev.stream(), a);
        // b has done nothing: waiting pulls it up to the event.
        assert_eq!(d.stream_wait_event(b, ev), 5e-3);
        // Waiting on an already-passed event is a no-op.
        d.advance_stream(b, 1e-3);
        let early = d.record_event(a);
        assert_eq!(d.stream_wait_event(b, early), 6e-3);
    }

    #[test]
    fn sync_joins_all_streams_to_max_front() {
        let d = Device::new(DeviceConfig::tiny(1 << 20));
        let a = d.create_stream("a");
        let b = d.create_stream("b");
        d.advance_stream(a, 2e-3);
        d.advance_stream(b, 7e-3);
        assert_eq!(d.sync(), 7e-3);
        assert_eq!(d.now(), 7e-3);
        assert_eq!(d.stream_now(a), 7e-3);
        assert_eq!(d.stream_count(), 3);
    }

    #[test]
    fn async_copies_land_on_their_stream() {
        let d = Device::new(DeviceConfig::tiny(1 << 20));
        let s = d.create_stream("copy");
        let p = d.alloc(512).unwrap();
        let data = vec![3u8; 512];
        let t = d.h2d_async(p, &data, s);
        assert_eq!(t, d.transfer_time(512));
        // The async copy did not move the default stream.
        assert_eq!(d.now(), 0.0);
        let mut back = vec![0u8; 512];
        d.d2h_async(p, &mut back, s);
        assert_eq!(back, data);
        assert_eq!(d.stream_now(s), 2.0 * d.transfer_time(512));
    }
}
