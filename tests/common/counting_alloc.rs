//! A counting `#[global_allocator]` for the test binaries that include
//! this file (`#[path = "common/counting_alloc.rs"] mod counting_alloc;`).
//! Every call is forwarded to the system allocator; what is added is two
//! thread-local figures — tests run on threads of their own, so concurrent
//! tests do not disturb each other's readings.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator entries made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Largest single reservation this thread asked for since the last
    /// [`take_largest`].
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn note(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is thread-local bookkeeping
// that neither allocates nor unwinds (`try_with` tolerates thread teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator entries this thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The largest single reservation this thread made since the previous
/// call, in bytes; resets the reading.
pub fn take_largest() -> usize {
    LARGEST.with(|n| n.replace(0))
}
