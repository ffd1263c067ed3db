//! Allocation counting on armed threads only.
//!
//! A process-global counter also sees the allocations of every other
//! thread that happens to run inside a measurement window (test harness
//! threads, the service worker, the rayon pool). This counter keeps both
//! the armed flag and the tally thread-local: an allocation is counted
//! only when the thread performing it has armed itself, and only that
//! thread's tally moves. The traced run drives every layer on the calling
//! thread, arms it around each layer call, and reads the difference.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Delegates to [`System`], counting `alloc` and `realloc` calls made by
/// armed threads. Installed as this crate's global allocator.
pub struct ArmedCounter;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    // `try_with`: allocations during thread teardown must not panic.
    let armed = ARMED.try_with(Cell::get).unwrap_or(false);
    if armed {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialised thread-locals without destructors, which never
// allocate.
unsafe impl GlobalAlloc for ArmedCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` through this allocator; the
        // caller's size obligations pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations counted on the calling thread while it was armed.
pub fn thread_allocations() -> u64 {
    COUNT.with(Cell::get)
}

/// Run `f` with the calling thread armed; returns the allocations `f`
/// made on this thread (other threads' allocations are never counted).
pub fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let was = ARMED.with(|a| a.replace(true));
    let before = thread_allocations();
    let out = f();
    let allocs = thread_allocations() - before;
    ARMED.with(|a| a.set(was));
    (allocs, out)
}
