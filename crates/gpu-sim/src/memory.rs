//! Device global memory: a byte arena addressed with 64-bit "device
//! pointers" plus a first-fit allocator.
//!
//! # Safety model
//!
//! Kernel execution is parallel over thread blocks ([`crate::par`]); within
//! a block, the executor runs each op across a tile of lanes. A streaming
//! kernel's threads write *disjoint* sites — the code generator assigns
//! each thread exactly its own output elements, like on real hardware —
//! and no lane reads a site that another lane of the same launch writes
//! (the fusion planner keeps shifted reads of group targets out of fused
//! kernels; `eval` runs a statement that reads its own target under a
//! shift through a temporary). So concurrent accesses are either to
//! disjoint addresses (writes) or to data no one writes during the launch
//! (reads; the runtime is single-threaded around launches, mirroring the
//! CUDA stream-ordering guarantee). All accesses are bounds-checked so a
//! codegen bug panics instead of corrupting unrelated memory.

use crate::DeviceError;
use crate::sync::Mutex;
use std::collections::BTreeMap;

/// A device pointer: byte offset into the arena. Offset 0 is reserved as
/// the null pointer; allocations are 256-byte aligned like `cudaMalloc`.
pub type DevicePtr = u64;

/// Allocation alignment (bytes).
pub const ALLOC_ALIGN: u64 = 256;

struct ArenaBuf {
    ptr: *mut u8,
    len: usize,
    // Keeps the allocation alive; accessed only through `ptr`.
    _own: Box<[u8]>,
}

// SAFETY: see module-level safety model — concurrent accesses during kernel
// launches are to disjoint addresses (writes) or read-only data (reads).
unsafe impl Send for ArenaBuf {}
unsafe impl Sync for ArenaBuf {}

/// The device memory arena.
pub struct DeviceMemory {
    buf: ArenaBuf,
    inner: Mutex<AllocState>,
}

#[derive(Debug, Default)]
struct AllocState {
    /// Live allocations: offset → size (bytes, unaligned request size).
    live: BTreeMap<u64, usize>,
    /// Bytes currently allocated (aligned sizes).
    used: usize,
    /// High-water mark of `used`.
    peak: usize,
}

fn align_up(v: u64, a: u64) -> u64 {
    v.div_ceil(a) * a
}

impl DeviceMemory {
    /// Create an arena of the given capacity.
    pub fn new(capacity: usize) -> DeviceMemory {
        let mut own = vec![0u8; capacity].into_boxed_slice();
        let ptr = own.as_mut_ptr();
        DeviceMemory {
            buf: ArenaBuf {
                ptr,
                len: capacity,
                _own: own,
            },
            inner: Mutex::new(AllocState::default()),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.len
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.inner.lock().used
    }

    /// Peak allocated bytes.
    pub fn peak(&self) -> usize {
        self.inner.lock().peak
    }

    /// Bytes available (assuming no fragmentation; first-fit may fail
    /// earlier for large requests).
    pub fn free(&self) -> usize {
        self.capacity() - self.used()
    }

    /// Allocate `size` bytes (first-fit over the gap list). Fails with
    /// [`DeviceError::OutOfMemory`] when no gap fits — the caching layer
    /// reacts by spilling (paper §IV).
    pub fn alloc(&self, size: usize) -> Result<DevicePtr, DeviceError> {
        let mut st = self.inner.lock();
        let aligned = align_up(size.max(1) as u64, ALLOC_ALIGN);
        // Walk gaps between live allocations, starting after the reserved
        // null page.
        let mut cursor = ALLOC_ALIGN;
        for (&off, &sz) in st.live.iter() {
            if off.saturating_sub(cursor) >= aligned {
                break;
            }
            cursor = align_up(off + sz as u64, ALLOC_ALIGN);
        }
        if cursor + aligned > self.buf.len as u64 {
            return Err(DeviceError::OutOfMemory {
                requested: size,
                free: self.capacity() - st.used,
            });
        }
        st.live.insert(cursor, size);
        st.used += aligned as usize;
        st.peak = st.peak.max(st.used);
        Ok(cursor)
    }

    /// Free an allocation. Panics on a pointer that was never allocated
    /// (double free / corruption are programming errors).
    pub fn freemem(&self, ptr: DevicePtr) {
        let mut st = self.inner.lock();
        let size = st
            .live
            .remove(&ptr)
            .unwrap_or_else(|| panic!("free of unallocated device pointer {ptr:#x}"));
        st.used -= align_up(size.max(1) as u64, ALLOC_ALIGN) as usize;
    }

    /// Number of live allocations.
    pub fn n_allocations(&self) -> usize {
        self.inner.lock().live.len()
    }

    #[inline]
    fn check(&self, addr: u64, len: usize) {
        assert!(
            addr as usize + len <= self.buf.len && addr != 0,
            "device access out of range: addr={addr:#x} len={len} cap={}",
            self.buf.len
        );
    }

    /// Read a little-endian value of `N` bytes.
    #[inline]
    pub fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        self.check(addr, N);
        // SAFETY: bounds checked above; see module safety model.
        unsafe {
            let mut out = [0u8; N];
            std::ptr::copy_nonoverlapping(self.buf.ptr.add(addr as usize), out.as_mut_ptr(), N);
            out
        }
    }

    /// Write a little-endian value of `N` bytes.
    #[inline]
    pub fn write_bytes<const N: usize>(&self, addr: u64, v: [u8; N]) {
        self.check(addr, N);
        // SAFETY: bounds checked above; see module safety model.
        unsafe {
            std::ptr::copy_nonoverlapping(v.as_ptr(), self.buf.ptr.add(addr as usize), N);
        }
    }

    /// Read an `f32` at a byte address.
    #[inline]
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_le_bytes(self.read_bytes(addr))
    }

    /// Read an `f64` at a byte address.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_le_bytes(self.read_bytes(addr))
    }

    /// Read a `u32` at a byte address.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Read a `u64` at a byte address.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Write an `f32`.
    #[inline]
    pub fn write_f32(&self, addr: u64, v: f32) {
        self.write_bytes(addr, v.to_le_bytes());
    }

    /// Write an `f64`.
    #[inline]
    pub fn write_f64(&self, addr: u64, v: f64) {
        self.write_bytes(addr, v.to_le_bytes());
    }

    /// Write a `u32`.
    #[inline]
    pub fn write_u32(&self, addr: u64, v: u32) {
        self.write_bytes(addr, v.to_le_bytes());
    }

    /// Write a `u64`.
    #[inline]
    pub fn write_u64(&self, addr: u64, v: u64) {
        self.write_bytes(addr, v.to_le_bytes());
    }

    /// Bulk copy host → device (the functional half of `cudaMemcpy`).
    pub fn copy_from_host(&self, dst: DevicePtr, src: &[u8]) {
        self.check(dst, src.len());
        // SAFETY: bounds checked; single-threaded around copies.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.buf.ptr.add(dst as usize), src.len());
        }
    }

    /// Bulk copy device → host.
    pub fn copy_to_host(&self, src: DevicePtr, dst: &mut [u8]) {
        self.check(src, dst.len());
        // SAFETY: bounds checked.
        unsafe {
            std::ptr::copy_nonoverlapping(self.buf.ptr.add(src as usize), dst.as_mut_ptr(), dst.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let m = DeviceMemory::new(16 * 1024);
        let a = m.alloc(1000).unwrap();
        let b = m.alloc(2000).unwrap();
        assert_ne!(a, b);
        assert!(a % ALLOC_ALIGN == 0 && b % ALLOC_ALIGN == 0);
        assert_eq!(m.n_allocations(), 2);
        m.freemem(a);
        assert_eq!(m.n_allocations(), 1);
        // freed space is reusable
        let c = m.alloc(900).unwrap();
        assert_eq!(c, a);
        m.freemem(b);
        m.freemem(c);
        assert_eq!(m.used(), 0);
        assert!(m.peak() > 0);
    }

    #[test]
    fn out_of_memory_reported() {
        let m = DeviceMemory::new(4 * 1024);
        let _a = m.alloc(2048).unwrap();
        let e = m.alloc(4096).unwrap_err();
        assert!(matches!(e, DeviceError::OutOfMemory { .. }));
    }

    #[test]
    fn null_page_reserved() {
        let m = DeviceMemory::new(4096);
        let a = m.alloc(16).unwrap();
        assert!(a >= ALLOC_ALIGN);
    }

    #[test]
    fn first_fit_reuses_gaps() {
        let m = DeviceMemory::new(16 * 1024);
        let a = m.alloc(256).unwrap();
        let _b = m.alloc(256).unwrap();
        let _c = m.alloc(256).unwrap();
        m.freemem(a);
        // a 512-byte request does not fit in the 256-byte gap
        let d = m.alloc(512).unwrap();
        assert!(d > a);
        // but a 256-byte one does
        let e = m.alloc(256).unwrap();
        assert_eq!(e, a);
    }

    #[test]
    fn scalar_io_roundtrip() {
        let m = DeviceMemory::new(4096);
        let p = m.alloc(64).unwrap();
        m.write_f64(p, -2.5);
        m.write_f32(p + 8, 1.25);
        m.write_u32(p + 12, 0xDEADBEEF);
        m.write_u64(p + 16, u64::MAX - 3);
        assert_eq!(m.read_f64(p), -2.5);
        assert_eq!(m.read_f32(p + 8), 1.25);
        assert_eq!(m.read_u32(p + 12), 0xDEADBEEF);
        assert_eq!(m.read_u64(p + 16), u64::MAX - 3);
    }

    #[test]
    fn bulk_copies() {
        let m = DeviceMemory::new(4096);
        let p = m.alloc(256).unwrap();
        let data: Vec<u8> = (0..=255).collect();
        m.copy_from_host(p, &data);
        let mut back = vec![0u8; 256];
        m.copy_to_host(p, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_read_panics() {
        let m = DeviceMemory::new(1024);
        m.read_f64(1020);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn double_free_panics() {
        let m = DeviceMemory::new(4096);
        let p = m.alloc(64).unwrap();
        m.freemem(p);
        m.freemem(p);
    }
}
