//! Streams and events: per-queue simulated timelines.
//!
//! Real CUDA devices expose *streams* — independent in-order queues of
//! kernels and copies — and *events* that let one stream wait on a point in
//! another's history. The paper's §V comm/compute overlap and §VII kernel
//! timings both assume this model. Here each stream is simply its own
//! simulated clock (`front`, seconds): work submitted to a stream starts at
//! that stream's front and pushes the front forward; work on different
//! streams overlaps because their fronts advance independently.
//!
//! Semantics mirrored from CUDA:
//!
//! * **Stream 0 is the legacy default stream.** Work on it synchronises with
//!   every other stream: it starts at the max of all fronts and joins all
//!   fronts to its completion time. On a device where no other stream was
//!   ever created this degenerates to exactly single-clock arithmetic
//!   (`clock += dt`), so pre-stream modelled times are reproduced
//!   bit-for-bit.
//! * **Events** capture a stream's front at record time;
//!   `stream_wait_event` raises the waiting stream's front to at least the
//!   captured time (a no-op if the waiter is already past it).
//! * **`Device::sync`** joins every stream to the maximum front and returns
//!   it — the simulated analogue of `cudaDeviceSynchronize`.

/// Handle to one simulated stream. `StreamId::DEFAULT` (stream 0) is the
/// legacy-synchronising default stream and always exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub u32);

impl StreamId {
    /// The default (legacy, device-synchronising) stream.
    pub const DEFAULT: StreamId = StreamId(0);

    /// True for the default stream.
    pub fn is_default(self) -> bool {
        self.0 == 0
    }
}

/// A recorded point in a stream's timeline (see [`StreamId`] docs).
/// Obtained from `Device::record_event`; consumed by
/// `Device::stream_wait_event`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub(crate) time: f64,
    pub(crate) stream: StreamId,
}

impl Event {
    /// The simulated time this event captures (the recording stream's front
    /// at record time).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The stream this event was recorded on.
    pub fn stream(&self) -> StreamId {
        self.stream
    }
}

/// The per-device stream table: each stream's front time (its display
/// name goes to telemetry, as a Perfetto track name in `QDP_TRACE` output).
#[derive(Debug)]
pub(crate) struct StreamTable {
    fronts: Vec<f64>,
}

impl StreamTable {
    pub(crate) fn new() -> StreamTable {
        StreamTable {
            fronts: vec![0.0],
        }
    }

    pub(crate) fn create(&mut self) -> StreamId {
        let id = self.fronts.len() as u32;
        // A new stream's timeline begins at the default stream's front:
        // host-issued work on it can start no earlier than "now".
        self.fronts.push(self.fronts[0]);
        StreamId(id)
    }

    pub(crate) fn front(&self, s: StreamId) -> f64 {
        self.fronts[s.0 as usize]
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.fronts.len()
    }

    pub(crate) fn max_front(&self) -> f64 {
        self.fronts.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
    }

    /// Account `dt` of work on stream `s`; returns the completion time.
    /// Default-stream work uses legacy-sync semantics (starts at the max
    /// front, joins all fronts); other streams advance independently.
    pub(crate) fn advance(&mut self, s: StreamId, dt: f64) -> f64 {
        if s.is_default() {
            // With only the default stream present this is exactly the old
            // `*clock += dt.max(0.0)` — the bit-exactness the default-stream
            // equivalence test pins.
            let end = self.max_front() + dt.max(0.0);
            for f in &mut self.fronts {
                *f = end;
            }
            end
        } else {
            let f = &mut self.fronts[s.0 as usize];
            *f += dt.max(0.0);
            *f
        }
    }

    /// Raise stream `s`'s front to at least `t`. On the default stream this
    /// raises every front (legacy-sync join), matching a single clock's
    /// `clock = clock.max(t)`.
    pub(crate) fn advance_to(&mut self, s: StreamId, t: f64) -> f64 {
        if s.is_default() {
            for f in &mut self.fronts {
                if t > *f {
                    *f = t;
                }
            }
            self.fronts[0]
        } else {
            let f = &mut self.fronts[s.0 as usize];
            if t > *f {
                *f = t;
            }
            *f
        }
    }

    /// Join every stream to the maximum front and return it.
    pub(crate) fn sync(&mut self) -> f64 {
        let m = self.max_front();
        for f in &mut self.fronts {
            *f = m;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stream_matches_single_clock_arithmetic() {
        let mut st = StreamTable::new();
        let mut clock = 0.0f64;
        for dt in [1e-3f64, 0.0, 2.5e-4, -1.0, 7e-5] {
            clock += dt.max(0.0);
            assert_eq!(st.advance(StreamId::DEFAULT, dt), clock);
        }
        if 3e-3 > clock {
            clock = 3e-3;
        }
        assert_eq!(st.advance_to(StreamId::DEFAULT, 3e-3), clock);
    }

    #[test]
    fn independent_streams_overlap() {
        let mut st = StreamTable::new();
        let a = st.create();
        let b = st.create();
        st.advance(a, 2e-3);
        st.advance(b, 3e-3);
        assert_eq!(st.front(a), 2e-3);
        assert_eq!(st.front(b), 3e-3);
        // Two 2ms/3ms tasks overlapped: total is max, not sum.
        assert_eq!(st.sync(), 3e-3);
        assert_eq!(st.front(a), 3e-3);
    }

    #[test]
    fn default_stream_work_synchronises_all() {
        let mut st = StreamTable::new();
        let a = st.create();
        st.advance(a, 5e-3);
        // Legacy-sync: default-stream work starts after stream a's backlog.
        let end = st.advance(StreamId::DEFAULT, 1e-3);
        assert_eq!(end, 6e-3);
        assert_eq!(st.front(a), 6e-3);
    }

    #[test]
    fn new_stream_starts_at_default_front() {
        let mut st = StreamTable::new();
        st.advance(StreamId::DEFAULT, 4e-3);
        let a = st.create();
        assert_eq!(st.front(a), 4e-3);
    }
}
