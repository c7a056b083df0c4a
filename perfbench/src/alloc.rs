//! A counting global allocator that charges every allocation to the
//! layer call on the stack, so `*_alloc_mib_per_mib` needs no change to
//! the program under test.
//!
//! The current layer is a per-thread tag set by [`crate::probe::Probe`]
//! around each timed call. Counting happens only while [`set_counting`]
//! is on (the traced run); the untraced run pays one relaxed load per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::probe::{Layer, LAYERS};

pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];

thread_local! {
    static CURRENT: Cell<usize> = const { Cell::new(Layer::None as usize) };
}

#[inline]
fn charge(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let layer = CURRENT.try_with(Cell::get).unwrap_or(Layer::None as usize);
        BYTES[layer].fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// side bookkeeping that never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Only growth is new memory; a shrink allocates nothing.
        charge(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

/// Turn allocation counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Make `layer` the one this thread's allocations are charged to;
/// returns the previous tag for [`leave`].
#[inline]
pub fn enter(layer: Layer) -> usize {
    CURRENT.with(|c| c.replace(layer as usize))
}

#[inline]
pub fn leave(prev: usize) {
    CURRENT.with(|c| c.set(prev));
}

/// Bytes allocated so far while `layer` was on the stack.
pub fn bytes(layer: Layer) -> u64 {
    BYTES[layer as usize].load(Ordering::Relaxed)
}

/// Zero every layer's count.
pub fn reset() {
    for b in &BYTES {
        b.store(0, Ordering::Relaxed);
    }
}
