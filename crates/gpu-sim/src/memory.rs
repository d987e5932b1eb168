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
//!
//! Every access goes through one check, [`Arena`]'s: an executor takes the
//! by-value view once per tile, so the base pointer and length sit in
//! registers and each lane's access costs one compare against them. The
//! compare cannot wrap at the top of the address space, and a failed one
//! calls a cold, never-inlined function that panics, so the hot loop
//! carries neither the panic's arguments nor reloads of the arena's fields.
//! [`DeviceMemory`]'s own accessors, copies and views use the same check. A
//! run of accesses at a fixed stride ([`Arena::read_run_u64`] and its
//! siblings) is checked once, from its first access to the end of its last
//! (computed without wrapping), and then copied with no per-access check;
//! a failed run panics with the message of its first access out of range,
//! before it writes anything. A gather through a column of site indices
//! ([`Arena::gather_u64`], [`Arena::gather_u32`]) is checked once too: the
//! caller passes an upper bound `hi` on the column, the span from the
//! lowest to the end of the highest element the bound allows is checked
//! (its top index computed without wrapping), and every index is clamped to
//! `hi` before it is read — so the reads stay inside the checked span
//! whatever the caller's bound, and memory safety never rests on the
//! caller. A failed gather check reads nothing and reports it; the caller
//! then takes the accesses one by one, through the per-access check. Every
//! raw-pointer access to device memory is in this module.

use crate::DeviceError;
use crate::sync::Mutex;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// A device pointer: byte offset into the arena. Offset 0 is reserved as
/// the null pointer; allocations are 256-byte aligned like `cudaMalloc`.
pub type DevicePtr = u64;

/// Allocation alignment (bytes).
pub const ALLOC_ALIGN: u64 = 256;

struct ArenaBuf {
    ptr: *mut u8,
    len: usize,
    // Keeps the allocation alive; accessed only through `ptr`. Words, not
    // bytes, so the base — and with it every `ALLOC_ALIGN`-aligned
    // allocation — is aligned for the typed views.
    _own: Box<[u64]>,
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
        let mut own = vec![0u64; capacity.div_ceil(8)].into_boxed_slice();
        let ptr = own.as_mut_ptr().cast::<u8>();
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
    #[cfg(test)]
    fn n_allocations(&self) -> usize {
        self.inner.lock().live.len()
    }

    /// The arena as a by-value view: its base pointer and length, copied
    /// out once, so a loop over accesses keeps them in registers.
    #[inline]
    pub fn arena(&self) -> Arena<'_> {
        Arena {
            ptr: self.buf.ptr,
            len: self.buf.len,
            _mem: PhantomData,
        }
    }

    /// Read a little-endian value of `N` bytes.
    #[inline]
    pub fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        self.arena().read_bytes(addr)
    }

    /// Write a little-endian value of `N` bytes.
    #[inline]
    pub fn write_bytes<const N: usize>(&self, addr: u64, v: [u8; N]) {
        self.arena().write_bytes(addr, v)
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
        let p = self.arena().range(dst, src.len());
        // SAFETY: `range` checked the bytes at `p`; single-threaded around
        // copies.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), p, src.len());
        }
    }

    /// Bulk copy device → host.
    pub fn copy_to_host(&self, src: DevicePtr, dst: &mut [u8]) {
        let p = self.arena().range(src, dst.len());
        // SAFETY: `range` checked the bytes at `p`.
        unsafe {
            std::ptr::copy_nonoverlapping(p, dst.as_mut_ptr(), dst.len());
        }
    }

    /// Zero `len` bytes at `dst` (the functional half of `cudaMemset(dst,
    /// 0, len)`).
    pub fn fill_zero(&self, dst: DevicePtr, len: usize) {
        let p = self.arena().range(dst, len);
        // SAFETY: `range` checked the bytes at `p`; single-threaded around
        // launches (module safety model), so nothing else accesses the
        // range meanwhile.
        unsafe {
            std::ptr::write_bytes(p, 0, len);
        }
    }

    /// Run `f` over the `n` `f32`s stored at `addr`.
    #[cfg(test)]
    fn with_f32s<T>(&self, addr: DevicePtr, n: usize, f: impl FnOnce(&[f32]) -> T) -> T {
        // SAFETY: every bit pattern is a valid `f32`.
        unsafe { self.with_view(addr, n, f) }
    }

    /// Run `f` over the `n` `f64`s stored at `addr`.
    pub fn with_f64s<T>(&self, addr: DevicePtr, n: usize, f: impl FnOnce(&[f64]) -> T) -> T {
        // SAFETY: every bit pattern is a valid `f64`.
        unsafe { self.with_view(addr, n, f) }
    }

    /// Run `f` over a shared view of the `n` `E`s stored at `addr`. The
    /// view cannot outlive the call: `f` gets it for one invocation and its
    /// result cannot borrow from it.
    ///
    /// # Safety
    ///
    /// Every bit pattern must be a valid `E`.
    unsafe fn with_view<E, T>(&self, addr: DevicePtr, n: usize, f: impl FnOnce(&[E]) -> T) -> T {
        let len = n
            .checked_mul(std::mem::size_of::<E>())
            .expect("device view length overflows");
        let p = self.arena().range(addr, len);
        assert!(
            (p as usize).is_multiple_of(std::mem::align_of::<E>()),
            "misaligned device view: addr={addr:#x}"
        );
        // SAFETY: the range is in bounds and aligned (both checked above),
        // the arena is initialised memory, and the caller guarantees any
        // bits are a valid `E`. The runtime is single-threaded around
        // launches (module safety model): while the host reads the view,
        // no kernel or copy writes this range, so the shared slice is not
        // mutated for as long as it lives — the duration of `f`.
        let view = unsafe { std::slice::from_raw_parts(p.cast::<E>(), n) };
        f(view)
    }
}

/// A by-value view of the device arena ([`DeviceMemory::arena`]): its base
/// pointer and length, borrowed for `'a`. The view is `Copy`, so a loop
/// that takes it once keeps both in registers, and each access checks its
/// range against them with one compare.
#[derive(Clone, Copy)]
pub struct Arena<'a> {
    ptr: *mut u8,
    len: usize,
    _mem: PhantomData<&'a DeviceMemory>,
}

impl Arena<'_> {
    /// The `len` bytes at `addr`, bounds-checked by [`fits`].
    #[inline(always)]
    fn range(self, addr: u64, len: usize) -> *mut u8 {
        if !fits(addr, len as u64, self.len as u64) {
            out_of_range(addr, len, self.len);
        }
        // SAFETY: `addr + len <= cap` (checked above), so the offset stays
        // inside the arena's one allocation.
        unsafe { self.ptr.add(addr as usize) }
    }

    #[inline(always)]
    fn read_bytes<const N: usize>(self, addr: u64) -> [u8; N] {
        // SAFETY: `range` checked the `N` bytes at the pointer; see the
        // module safety model for concurrent access.
        unsafe { read_at(self.range(addr, N)) }
    }

    #[inline(always)]
    fn write_bytes<const N: usize>(self, addr: u64, v: [u8; N]) {
        // SAFETY: `range` checked the `N` bytes at the pointer; see the
        // module safety model for concurrent access.
        unsafe { write_at(self.range(addr, N), v) }
    }

    /// Read a `u32` at a byte address.
    #[inline(always)]
    pub fn read_u32(self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Read a `u64` at a byte address.
    #[inline(always)]
    pub fn read_u64(self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Write a `u32`.
    #[inline(always)]
    pub fn write_u32(self, addr: u64, v: u32) {
        self.write_bytes(addr, v.to_le_bytes());
    }

    /// Write a `u64`.
    #[inline(always)]
    pub fn write_u64(self, addr: u64, v: u64) {
        self.write_bytes(addr, v.to_le_bytes());
    }

    /// The pointer to `addr` for `n` accesses of `N` bytes, access `l` at
    /// `addr + l·stride`, checked once as one range: from `addr`, not the
    /// null pointer, to the end of the last access, computed without
    /// wrapping. A failed check panics as the first failing access would.
    #[inline(always)]
    fn run<const N: usize>(self, addr: u64, stride: u64, n: usize) -> *mut u8 {
        let end = (n as u64).checked_sub(1).map(|last| {
            last.checked_mul(stride)
                .and_then(|span| addr.checked_add(span))
                .and_then(|at| at.checked_add(N as u64))
        });
        match end {
            None => {} // no access
            Some(Some(end)) if addr != 0 && end <= self.len as u64 => {}
            Some(_) => run_out_of_range(addr, stride, n, N, self.len),
        }
        // An empty run never dereferences the pointer.
        self.ptr.wrapping_add(addr as usize)
    }

    /// `dst[l] = f(the N bytes at addr + l·stride)` for every `l`, checked
    /// once ([`Arena::run`]). A contiguous run is one pass over consecutive
    /// bytes, which the compiler vectorizes.
    #[inline(always)]
    fn read_run<const N: usize>(
        self,
        addr: u64,
        stride: u64,
        dst: &[Cell<u64>],
        f: impl Fn([u8; N]) -> u64,
    ) {
        let p = self.run::<N>(addr, stride, dst.len());
        let read = |stride: usize| {
            for (l, d) in dst.iter().enumerate() {
                // SAFETY: `run` checked all `dst.len()` accesses, so access
                // `l` lies inside the arena; see the module safety model for
                // concurrent access.
                d.set(f(unsafe { read_at(p.add(l * stride)) }));
            }
        };
        if stride == N as u64 {
            read(N)
        } else {
            read(stride as usize)
        }
    }

    /// `N`-byte `vals[l]` to `addr + l·stride`, checked once before the
    /// first write: a run out of range writes nothing.
    #[inline(always)]
    fn write_run<const N: usize>(
        self,
        addr: u64,
        stride: u64,
        vals: impl ExactSizeIterator<Item = [u8; N]>,
    ) {
        let n = vals.len();
        let p = self.run::<N>(addr, stride, n);
        for (l, v) in vals.take(n).enumerate() {
            // SAFETY: `run` checked `n` accesses, and `take` stops there
            // whatever `vals` reported; see the module safety model.
            unsafe { write_at(p.add(l * stride as usize), v) };
        }
    }

    /// Read the `u32`s at `addr + l·stride` into `dst[l]`, zero-extended:
    /// one check for the run instead of one per access.
    #[inline(always)]
    pub fn read_run_u32(self, addr: u64, stride: u64, dst: &[Cell<u64>]) {
        self.read_run(addr, stride, dst, |b| u32::from_le_bytes(b).into())
    }

    /// Read the `u64`s at `addr + l·stride` into `dst[l]`: one check for
    /// the run instead of one per access.
    #[inline(always)]
    pub fn read_run_u64(self, addr: u64, stride: u64, dst: &[Cell<u64>]) {
        self.read_run(addr, stride, dst, u64::from_le_bytes)
    }

    /// Write `vals[l]` as a `u32` at `addr + l·stride`, checked once before
    /// the first write: a run out of range writes nothing.
    #[inline(always)]
    pub fn write_run_u32(self, addr: u64, stride: u64, vals: impl ExactSizeIterator<Item = u32>) {
        self.write_run(addr, stride, vals.map(u32::to_le_bytes))
    }

    /// Write `vals[l]` as a `u64` at `addr + l·stride`, checked once before
    /// the first write: a run out of range writes nothing.
    #[inline(always)]
    pub fn write_run_u64(self, addr: u64, stride: u64, vals: impl ExactSizeIterator<Item = u64>) {
        self.write_run(addr, stride, vals.map(u64::to_le_bytes))
    }

    /// `dst[l] = f(the N bytes of element min(sites[l] as u32, hi) + k)` of
    /// the array of `N`-byte elements at `base`, for every `l`: a gather
    /// through a site column whose entries are at most `hi`. It checks once
    /// that `hi + k` does not wrap in u32 and that the span from element
    /// `k` to the end of element `hi + k` lies in the arena, then reads
    /// with no per-lane check; the clamp keeps every read inside that span
    /// whatever the column holds. A failed check reads nothing and returns
    /// false, and the caller takes the accesses one by one.
    #[inline(always)]
    fn gather<const N: usize>(
        self,
        base: u64,
        k: u32,
        hi: u32,
        sites: &[Cell<u64>],
        dst: &[Cell<u64>],
        f: impl Fn([u8; N]) -> u64,
    ) -> bool {
        let Some(top) = hi.checked_add(k) else {
            return false;
        };
        let size = N as u64;
        let first = base.checked_add(u64::from(k) * size);
        let end = base.checked_add(u64::from(top) * size + size);
        match (first, end) {
            (Some(first), Some(end)) if first != 0 && end <= self.len as u64 => {}
            _ => return false,
        }
        let p = self.ptr.wrapping_add(base as usize);
        for (d, s) in dst.iter().zip(sites) {
            let i = (s.get() as u32).min(hi) + k;
            // SAFETY: `k <= i <= hi + k`, and the span of elements `k ..=
            // hi + k` at `base` was checked above to lie inside the arena;
            // see the module safety model for concurrent access.
            d.set(f(unsafe { read_at(p.add(i as usize * N)) }));
        }
        true
    }

    /// [`Arena::gather`] of `u32`s, zero-extended: `dst[l]` is the `u32` at
    /// `base + (min(sites[l] as u32, hi) + k)·4`. False, with nothing read,
    /// when the span is not in the arena or `hi + k` wraps.
    #[inline(always)]
    pub fn gather_u32(
        self,
        base: u64,
        k: u32,
        hi: u32,
        sites: &[Cell<u64>],
        dst: &[Cell<u64>],
    ) -> bool {
        self.gather(base, k, hi, sites, dst, |b| u32::from_le_bytes(b).into())
    }

    /// [`Arena::gather`] of `u64`s: `dst[l]` is the `u64` at
    /// `base + (min(sites[l] as u32, hi) + k)·8`. False, with nothing read,
    /// when the span is not in the arena or `hi + k` wraps.
    #[inline(always)]
    pub fn gather_u64(
        self,
        base: u64,
        k: u32,
        hi: u32,
        sites: &[Cell<u64>],
        dst: &[Cell<u64>],
    ) -> bool {
        self.gather(base, k, hi, sites, dst, u64::from_le_bytes)
    }
}

/// The `N` bytes at `p`.
///
/// # Safety
///
/// `p .. p + N` must lie inside the arena (checked by [`Arena::range`] or
/// [`Arena::run`]).
#[inline(always)]
unsafe fn read_at<const N: usize>(p: *const u8) -> [u8; N] {
    // SAFETY: the caller guarantees the `N` bytes at `p` are in the arena;
    // `[u8; N]` has no alignment requirement beyond a byte.
    unsafe { p.cast::<[u8; N]>().read_unaligned() }
}

/// Write `v` to the `N` bytes at `p`.
///
/// # Safety
///
/// As for [`read_at`].
#[inline(always)]
unsafe fn write_at<const N: usize>(p: *mut u8, v: [u8; N]) {
    // SAFETY: the caller guarantees the `N` bytes at `p` are in the arena.
    unsafe { p.cast::<[u8; N]>().write_unaligned(v) }
}

/// A failed run check ([`Arena::run`]): the panic of its first access out
/// of range — or, for a run that wraps round the address space with every
/// access in range, of its last.
#[cold]
#[inline(never)]
fn run_out_of_range(addr: u64, stride: u64, n: usize, len: usize, cap: usize) -> ! {
    let at = |l: u64| addr.wrapping_add(l.wrapping_mul(stride));
    let bad = (0..n as u64)
        .map(at)
        .find(|&a| !fits(a, len as u64, cap as u64));
    out_of_range(bad.unwrap_or_else(|| at(n as u64 - 1)), len, cap)
}

/// Whether the `len` bytes at `addr` lie in an arena of `cap` bytes and do
/// not start at the null pointer. Written so nothing wraps: `addr + len`
/// would, near `u64::MAX`.
#[inline(always)]
fn fits(addr: u64, len: u64, cap: u64) -> bool {
    addr != 0 && len <= cap && addr <= cap - len
}

/// A failed bounds check. Out of line and cold, so a hot access loop
/// carries only the compare and none of the panic's arguments.
#[cold]
#[inline(never)]
fn out_of_range(addr: u64, len: usize, cap: usize) -> ! {
    panic!("device access out of range: addr={addr:#x} len={len} cap={cap}")
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
    fn zero_fill_and_typed_views() {
        let m = DeviceMemory::new(4096);
        let p = m.alloc(64).unwrap();
        m.copy_from_host(p, &[0xffu8; 64]);
        m.fill_zero(p + 8, 16);
        m.write_f64(p + 24, -0.0);
        m.with_f64s(p, 4, |v| {
            assert!(v[0].is_nan());
            assert_eq!(v[1].to_bits(), 0);
            assert_eq!(v[2].to_bits(), 0);
            assert_eq!(v[3].to_bits(), (-0.0f64).to_bits());
        });
        let sum = m.with_f32s(p + 8, 4, |v| v.iter().sum::<f32>());
        assert_eq!(sum, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn view_past_the_arena_panics() {
        let m = DeviceMemory::new(1024);
        m.with_f64s(1016, 2, |v| v.len());
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_view_panics() {
        let m = DeviceMemory::new(1024);
        let p = m.alloc(64).unwrap();
        m.with_f64s(p + 4, 2, |v| v.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_read_panics() {
        let m = DeviceMemory::new(1024);
        m.read_f64(1020);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_at_the_top_of_the_address_space_panics() {
        let m = DeviceMemory::new(1024);
        m.read_u64(u64::MAX - 3);
    }

    /// The message `f` panics with, or `None` when it returns.
    fn panic_of(f: impl FnOnce()) -> Option<String> {
        let e = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        Some(e.downcast_ref::<String>().cloned().unwrap_or_default())
    }

    /// Every u32/u64 accessor, through the view and through the arena,
    /// takes the last `width` bytes of the arena and refuses the null
    /// pointer, one byte past the end and the top of the address space.
    #[test]
    fn arena_checks_its_edges() {
        let m = DeviceMemory::new(1024);
        let a = m.arena();
        let cap = m.capacity() as u64;
        // (accessor, bytes it touches, the access at an address)
        type Access<'a> = (&'a str, u64, &'a dyn Fn(u64));
        let accesses: [Access<'_>; 8] = [
            ("Arena::read_u32", 4, &|p| _ = a.read_u32(p)),
            ("Arena::read_u64", 8, &|p| _ = a.read_u64(p)),
            ("Arena::write_u32", 4, &|p| a.write_u32(p, 7)),
            ("Arena::write_u64", 8, &|p| a.write_u64(p, 7)),
            ("DeviceMemory::read_u32", 4, &|p| _ = m.read_u32(p)),
            ("DeviceMemory::read_u64", 8, &|p| _ = m.read_u64(p)),
            ("DeviceMemory::write_u32", 4, &|p| m.write_u32(p, 7)),
            ("DeviceMemory::write_u64", 8, &|p| m.write_u64(p, 7)),
        ];
        for (name, width, access) in accesses {
            assert_eq!(panic_of(|| access(cap - width)), None, "{name} at cap - len");
            for addr in [0, cap - width + 1, u64::MAX - width + 1] {
                let msg = panic_of(|| access(addr)).unwrap_or_default();
                assert!(
                    msg.starts_with(&format!("device access out of range: addr={addr:#x}")),
                    "{name} at {addr:#x}: {msg:?}"
                );
            }
        }
        a.write_u64(cap - 8, u64::MAX - 1);
        assert_eq!(m.read_u64(cap - 8), u64::MAX - 1);
        m.write_u32(cap - 4, 0xDEADBEEF);
        assert_eq!(a.read_u32(cap - 4), 0xDEADBEEF);
    }

    /// A run of accesses checks its first and its last access once, with
    /// the end computed without wrapping: every run reads and writes the
    /// arena's last bytes, and a run from the null pointer, one element
    /// past the end, or whose end overflows u64 panics with the message of
    /// its first access out of range — the one that access alone panics
    /// with — and a store run out of range writes nothing.
    #[test]
    fn arena_gathers_check_their_span_and_clamp() {
        let m = DeviceMemory::new(1024);
        let cap = m.capacity() as u64;
        for i in 0..32 {
            m.write_u64(256 + 8 * i, 1000 + i);
        }
        let a = m.arena();
        let cells = |v: &[u64]| v.iter().map(|&x| Cell::new(x)).collect::<Vec<_>>();
        let got = |d: &[Cell<u64>]| d.iter().map(Cell::get).collect::<Vec<_>>();
        let sites = cells(&[5, 0, 3, 9]);
        let dst = cells(&[0; 4]);
        assert!(a.gather_u64(256, 2, 9, &sites, &dst));
        assert_eq!(got(&dst), [1007, 1002, 1005, 1011]);
        // An entry above the bound reads element `hi + k`: the clamp keeps
        // every read inside the checked span.
        assert!(a.gather_u64(256, 2, 3, &sites, &dst));
        assert_eq!(got(&dst), [1005, 1002, 1005, 1005]);
        // u32 elements, zero-extended: the halves of the u64s above.
        assert!(a.gather_u32(256, 5, 9, &sites, &dst));
        assert_eq!(got(&dst), [1005, 0, 1004, 1007]);
        // The span ends at the arena's end, or one element past it; it
        // starts at the null pointer; `hi + k` wraps; the end wraps round
        // the address space. A failed check reads nothing.
        let last = u32::try_from((cap - 256) / 8 - 1).unwrap();
        assert!(a.gather_u64(256, 0, last, &sites, &dst));
        let untouched = cells(&[7; 4]);
        for (base, k, hi) in [
            (256, 0, last + 1),
            (256, 1, last),
            (0, 0, 9),
            (256, 1, u32::MAX),
            (u64::MAX - 64, 0, 9),
        ] {
            assert!(!a.gather_u64(base, k, hi, &sites, &untouched), "{base:#x} {k} {hi}");
            assert_eq!(got(&untouched), [7; 4]);
        }
        assert!(a.gather_u64(0, 1, 9, &sites, &dst), "only element 0 would be null");
        let last32 = u32::try_from((cap - 256) / 4 - 1).unwrap();
        assert!(a.gather_u32(256, 0, last32, &sites, &dst));
        assert!(!a.gather_u32(256, 1, last32, &sites, &untouched));
        assert_eq!(got(&untouched), [7; 4]);
    }

    #[test]
    fn arena_runs_check_their_ends() {
        let m = DeviceMemory::new(1024);
        let a = m.arena();
        let cap = m.capacity() as u64;
        // (accessor, bytes per access, a run of `n` accesses at `stride`)
        type Run<'a> = (&'a str, u64, &'a dyn Fn(u64, u64, usize));
        let runs: [Run<'_>; 4] = [
            ("read_run_u32", 4, &|p, s, n| {
                a.read_run_u32(p, s, &vec![Cell::new(0); n])
            }),
            ("read_run_u64", 8, &|p, s, n| {
                a.read_run_u64(p, s, &vec![Cell::new(0); n])
            }),
            ("write_run_u32", 4, &|p, s, n| {
                a.write_run_u32(p, s, (0..n).map(|_| 7))
            }),
            ("write_run_u64", 8, &|p, s, n| {
                a.write_run_u64(p, s, (0..n).map(|_| 7))
            }),
        ];
        for (name, width, run) in runs {
            for (stride, n) in [(width, 16usize), (3 * width, 5), (0, 4), (width, 1)] {
                let span = (n as u64 - 1) * stride;
                let last = cap - width - span;
                assert_eq!(
                    panic_of(|| run(last, stride, n)),
                    None,
                    "{name}: a run ending at cap"
                );
                assert_eq!(panic_of(|| run(8, stride, 0)), None, "{name}: no access");
                // (run start, its first access out of range): from the null
                // pointer; one element further, which only the last access
                // leaves; and ending past the top of the address space.
                let (past, top) = (last + width, u64::MAX - span);
                for (start, bad) in [(0, 0), (past, past + span), (top, top)] {
                    let want = format!("device access out of range: addr={bad:#x} len={width}");
                    let msg = panic_of(|| run(start, stride, n)).unwrap_or_default();
                    assert!(
                        msg.starts_with(&want),
                        "{name} from {start:#x}: {msg:?} (want {want})"
                    );
                    let single = panic_of(|| match width {
                        4 => _ = a.read_u32(bad),
                        _ => _ = a.read_u64(bad),
                    });
                    assert_eq!(
                        single.as_deref(),
                        Some(msg.as_str()),
                        "{name} from {start:#x}"
                    );
                }
            }
        }
        // Runs read and write what single accesses do, contiguous or
        // strided; a store run past the end writes none of its accesses.
        let read = |width: u64, p, stride, n| {
            let dst = vec![Cell::new(u64::MAX); n];
            match width {
                4 => a.read_run_u32(p, stride, &dst),
                _ => a.read_run_u64(p, stride, &dst),
            }
            dst.into_iter().map(Cell::into_inner).collect::<Vec<_>>()
        };
        let p = cap - 8 * 4;
        a.write_run_u64(p, 8, [1, 2, 3, 4].into_iter());
        assert_eq!(read(8, p, 8, 4), [1, 2, 3, 4]);
        assert!(panic_of(|| a.write_run_u64(p, 8, [5, 6, 7, 8, 9].into_iter())).is_some());
        assert_eq!(read(8, p, 8, 4), [1, 2, 3, 4]);
        a.write_run_u32(p + 4, 8, [0xAB, 0xCD].into_iter());
        assert_eq!((m.read_u32(p + 4), m.read_u32(p + 12)), (0xAB, 0xCD));
        assert_eq!(read(4, p, 4, 4), [1, 0xAB, 2, 0xCD]);
        assert_eq!(read(4, p, 8, 3), [1, 2, 3]);
        assert_eq!(read(8, p, 16, 2), [1 | 0xAB << 32, 3]);
        assert_eq!(read(8, p + 16, 0, 3), [3, 3, 3]);
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
