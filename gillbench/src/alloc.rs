//! A counting global allocator, installed in this binary only, so every
//! `*_allocs_per_update` metric is an exact, repeatable count.
//!
//! Counts are per thread: a stage replayed on one thread reads its own
//! counter before and after, unaffected by the collector's other threads,
//! and the hot path pays no shared atomic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and counts allocation calls.
pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while this thread's locals are torn down;
    // those allocations are simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) made so far by the
/// calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_exactly() {
        let before = thread_allocs();
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
        let b = std::hint::black_box(Box::new(7u32));
        assert_eq!(thread_allocs() - before, 2);
        drop((v, b));
        // another thread's allocations do not show up here
        let before = thread_allocs();
        let theirs = std::thread::spawn(|| {
            let start = thread_allocs();
            for i in 0..1_000u32 {
                std::hint::black_box(Box::new(i));
            }
            thread_allocs() - start
        })
        .join()
        .unwrap();
        assert_eq!(theirs, 1_000);
        assert!(thread_allocs() - before < 100, "spawn bookkeeping only");
    }
}
