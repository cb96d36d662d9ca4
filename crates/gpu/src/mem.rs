//! Device memory: typed buffers with simulated addresses.
//!
//! Each [`DeviceBuffer`] lives at a base address handed out by a bump
//! allocator, so the cache/coalescing models see a realistic flat address
//! space. Element storage is atomic words, which keeps the functional
//! semantics a GPU's: the blocks of a launch that declares commuting
//! blocks run on several host threads at once, sharing the buffers, and
//! a kernel's atomics behave as device atomics (relaxed loads/stores
//! compile to plain moves on x86, so this costs nothing).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Alignment of buffer base addresses (matches the 128-byte transaction
/// segment so buffers never straddle segments accidentally at offset 0).
const BUFFER_ALIGN: u64 = 256;

/// Scalar types that can live in device memory.
///
/// Implemented for `f32`, `f64`, and `u32` (the uniform grid's box heads,
/// lengths, and successor links are `u32`).
pub trait DeviceWord: Copy + Send + Sync + 'static {
    /// Width in bytes (4 or 8).
    const BYTES: u32;
    /// Atomic backing store.
    type Atom: Sync + Send;
    /// A zeroed atom.
    fn zero_atom() -> Self::Atom;
    /// Relaxed load.
    fn load(a: &Self::Atom) -> Self;
    /// Relaxed store.
    fn store(a: &Self::Atom, v: Self);
    /// Atomic exchange; returns the previous value.
    fn exchange(a: &Self::Atom, v: Self) -> Self;
    /// Atomic add (CAS loop for floats); returns the previous value.
    fn fetch_add(a: &Self::Atom, v: Self) -> Self;
}

impl DeviceWord for u32 {
    const BYTES: u32 = 4;
    type Atom = AtomicU32;
    fn zero_atom() -> AtomicU32 {
        AtomicU32::new(0)
    }
    fn load(a: &AtomicU32) -> u32 {
        a.load(Ordering::Relaxed)
    }
    fn store(a: &AtomicU32, v: u32) {
        a.store(v, Ordering::Relaxed)
    }
    fn exchange(a: &AtomicU32, v: u32) -> u32 {
        a.swap(v, Ordering::AcqRel)
    }
    fn fetch_add(a: &AtomicU32, v: u32) -> u32 {
        a.fetch_add(v, Ordering::AcqRel)
    }
}

impl DeviceWord for f32 {
    const BYTES: u32 = 4;
    type Atom = AtomicU32;
    fn zero_atom() -> AtomicU32 {
        AtomicU32::new(0.0f32.to_bits())
    }
    fn load(a: &AtomicU32) -> f32 {
        f32::from_bits(a.load(Ordering::Relaxed))
    }
    fn store(a: &AtomicU32, v: f32) {
        a.store(v.to_bits(), Ordering::Relaxed)
    }
    fn exchange(a: &AtomicU32, v: f32) -> f32 {
        f32::from_bits(a.swap(v.to_bits(), Ordering::AcqRel))
    }
    fn fetch_add(a: &AtomicU32, v: f32) -> f32 {
        let mut cur = a.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + v).to_bits();
            match a.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(prev) => return f32::from_bits(prev),
                Err(observed) => cur = observed,
            }
        }
    }
}

impl DeviceWord for f64 {
    const BYTES: u32 = 8;
    type Atom = AtomicU64;
    fn zero_atom() -> AtomicU64 {
        AtomicU64::new(0.0f64.to_bits())
    }
    fn load(a: &AtomicU64) -> f64 {
        f64::from_bits(a.load(Ordering::Relaxed))
    }
    fn store(a: &AtomicU64, v: f64) {
        a.store(v.to_bits(), Ordering::Relaxed)
    }
    fn exchange(a: &AtomicU64, v: f64) -> f64 {
        f64::from_bits(a.swap(v.to_bits(), Ordering::AcqRel))
    }
    fn fetch_add(a: &AtomicU64, v: f64) -> f64 {
        let mut cur = a.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match a.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(prev) => return f64::from_bits(prev),
                Err(observed) => cur = observed,
            }
        }
    }
}

/// A typed allocation in simulated device memory.
pub struct DeviceBuffer<T: DeviceWord> {
    base: u64,
    data: Vec<T::Atom>,
}

impl<T: DeviceWord> DeviceBuffer<T> {
    pub(crate) fn with_base(base: u64, len: usize) -> Self {
        Self {
            base,
            data: (0..len).map(|_| T::zero_atom()).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes (what a transfer of this buffer moves).
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64 * T::BYTES as u64
    }

    /// Simulated address of element `i` (feeds the coalescer/L2 model).
    #[inline(always)]
    pub fn addr(&self, i: usize) -> u64 {
        self.base + (i as u64) * T::BYTES as u64
    }

    /// Functional load (no perf accounting — the engine's `ThreadCtx`
    /// wraps this with tracing; host-side readback uses it directly).
    #[inline(always)]
    pub fn read(&self, i: usize) -> T {
        T::load(&self.data[i])
    }

    /// Functional store (no perf accounting).
    #[inline(always)]
    pub fn write(&self, i: usize, v: T) {
        T::store(&self.data[i], v)
    }

    /// Functional atomic exchange.
    #[inline(always)]
    pub fn atomic_exchange(&self, i: usize, v: T) -> T {
        T::exchange(&self.data[i], v)
    }

    /// Functional atomic add.
    #[inline(always)]
    pub fn atomic_add(&self, i: usize, v: T) -> T {
        T::fetch_add(&self.data[i], v)
    }

    /// Host → device copy (contents only; transfer *time* is charged by
    /// the pipeline through the PCIe model).
    pub fn upload(&self, src: &[T]) {
        assert_eq!(src.len(), self.data.len(), "upload size mismatch");
        for (a, &v) in self.data.iter().zip(src) {
            T::store(a, v);
        }
    }

    /// Host → device copy into `[offset, offset + src.len())` — the
    /// ranged form persistent (capacity-sized) buffers need: a resident
    /// pipeline uploads only the live prefix, or only an appended tail.
    pub fn upload_at(&self, offset: usize, src: &[T]) {
        let end = offset + src.len();
        assert!(end <= self.data.len(), "ranged upload out of bounds");
        for (a, &v) in self.data[offset..end].iter().zip(src) {
            T::store(a, v);
        }
    }

    /// Device → host copy.
    pub fn download(&self, dst: &mut [T]) {
        assert_eq!(dst.len(), self.data.len(), "download size mismatch");
        for (a, d) in self.data.iter().zip(dst.iter_mut()) {
            *d = T::load(a);
        }
    }

    /// Device → host copy of `[offset, offset + dst.len())`.
    pub fn download_at(&self, offset: usize, dst: &mut [T]) {
        let end = offset + dst.len();
        assert!(end <= self.data.len(), "ranged download out of bounds");
        for (a, d) in self.data[offset..end].iter().zip(dst.iter_mut()) {
            *d = T::load(a);
        }
    }

    /// Fill `[offset, offset + len)` with `v`.
    pub fn fill_at(&self, offset: usize, len: usize, v: T) {
        let end = offset + len;
        assert!(end <= self.data.len(), "ranged fill out of bounds");
        for a in &self.data[offset..end] {
            T::store(a, v);
        }
    }

    /// Fill every element with `v`.
    pub fn fill(&self, v: T) {
        for a in &self.data {
            T::store(a, v);
        }
    }
}

/// Bump allocator handing out device address ranges.
#[derive(Debug, Default)]
pub struct DeviceAllocator {
    next: u64,
    allocated: u64,
}

impl DeviceAllocator {
    /// Fresh allocator starting at a nonzero base (address 0 is reserved
    /// so it can never alias a real buffer).
    pub fn new() -> Self {
        Self {
            next: BUFFER_ALIGN,
            allocated: 0,
        }
    }

    /// Allocate a buffer of `len` elements.
    pub fn alloc<T: DeviceWord>(&mut self, len: usize) -> DeviceBuffer<T> {
        let bytes = len as u64 * T::BYTES as u64;
        let base = self.next;
        self.next += bytes.div_ceil(BUFFER_ALIGN) * BUFFER_ALIGN;
        self.allocated += bytes;
        DeviceBuffer::with_base(base, len)
    }

    /// Total payload bytes allocated so far.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_assigns_disjoint_ranges() {
        let mut a = DeviceAllocator::new();
        let b1 = a.alloc::<f32>(100);
        let b2 = a.alloc::<f64>(50);
        let end1 = b1.addr(99) + 4;
        assert!(b2.addr(0) >= end1, "buffers overlap");
        assert_eq!(b2.addr(0) % BUFFER_ALIGN, 0);
    }

    #[test]
    fn upload_download_roundtrip() {
        let mut a = DeviceAllocator::new();
        let buf = a.alloc::<f64>(4);
        buf.upload(&[1.0, 2.0, 3.0, 4.0]);
        let mut out = [0.0; 4];
        buf.download(&mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn atomic_add_f32_accumulates() {
        let mut a = DeviceAllocator::new();
        let buf = a.alloc::<f32>(1);
        for _ in 0..10 {
            buf.atomic_add(0, 0.5);
        }
        assert_eq!(buf.read(0), 5.0);
    }

    #[test]
    fn atomic_exchange_returns_previous() {
        let mut a = DeviceAllocator::new();
        let buf = a.alloc::<u32>(1);
        buf.write(0, 7);
        let prev = buf.atomic_exchange(0, 9);
        assert_eq!(prev, 7);
        assert_eq!(buf.read(0), 9);
    }

    #[test]
    fn addresses_stride_by_element_size() {
        let mut a = DeviceAllocator::new();
        let b32 = a.alloc::<f32>(8);
        let b64 = a.alloc::<f64>(8);
        assert_eq!(b32.addr(1) - b32.addr(0), 4);
        assert_eq!(b64.addr(1) - b64.addr(0), 8);
    }

    #[test]
    fn bytes_accounting() {
        let mut a = DeviceAllocator::new();
        let b = a.alloc::<f64>(1000);
        assert_eq!(b.bytes(), 8000);
        assert_eq!(a.allocated_bytes(), 8000);
    }

    #[test]
    fn ranged_transfers_touch_only_their_window() {
        let mut a = DeviceAllocator::new();
        let buf = a.alloc::<u32>(8);
        buf.fill(9);
        buf.upload_at(2, &[1, 2, 3]);
        let mut out = [0u32; 8];
        buf.download(&mut out);
        assert_eq!(out, [9, 9, 1, 2, 3, 9, 9, 9]);
        let mut tail = [0u32; 3];
        buf.download_at(5, &mut tail);
        assert_eq!(tail, [9, 9, 9]);
        buf.fill_at(0, 2, 0);
        assert_eq!(buf.read(0), 0);
        assert_eq!(buf.read(1), 0);
        assert_eq!(buf.read(2), 1);
    }

    #[test]
    fn fill_sets_all() {
        let mut a = DeviceAllocator::new();
        let b = a.alloc::<u32>(16);
        b.fill(u32::MAX);
        assert!((0..16).all(|i| b.read(i) == u32::MAX));
    }
}
