//! Live-heap accounting: a counting global allocator and the stage
//! marks that read it.
//!
//! [`CountingAlloc`] wraps the system allocator with two relaxed
//! counters, live bytes and their high-water mark. It is installed by
//! a harness binary or test with `#[global_allocator]`, never by the
//! library. Once it is installed, every lane-0 span (the scan root and
//! its stages) carries a `live_bytes` arg (live bytes when the span
//! closed) and a `peak_bytes` arg (the highest live count while it was
//! open). Without it, [`mark`] returns `None` after one relaxed load and
//! spans carry neither arg.
//!
//! The counters are process-wide. Allocation sizes are a pure function
//! of the work done, so a one-thread scan's figures repeat run to run;
//! worker threads interleave their allocations, so the peak of a
//! parallel stage does not, and scans running side by side in one
//! process (`batch --jobs`) count each other's bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A counting wrapper around the system allocator. Register it with
/// `#[global_allocator]`, then read [`live`] and [`peak`], or bracket a
/// region with [`reset_peak`].
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// True once a [`CountingAlloc`] has served an allocation: the process
/// installed it as its global allocator.
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Currently live bytes (0 when the allocator is not installed).
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Peak live bytes since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the peak tracker to the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The peak in force before a span opened, saved so that nested spans
/// each read their own peak and the enclosing span still sees theirs.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    outer_peak: usize,
}

/// Opens a heap window: saves the running peak and restarts it at the
/// live size. `None` when the allocator is not installed.
pub fn mark() -> Option<Mark> {
    installed().then(|| Mark { outer_peak: PEAK.swap(live(), Ordering::Relaxed) })
}

/// Closes a window opened by [`mark`]: returns `(live, peak within the
/// window)` and folds the window's peak back into the enclosing one.
/// Windows must close in the reverse order they opened; one left open
/// loses its enclosing windows' earlier peak.
pub fn close(mark: Mark) -> (usize, usize) {
    let inner = PEAK.fetch_max(mark.outer_peak, Ordering::Relaxed);
    (live(), inner)
}

fn grew(bytes: usize) {
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call delegates to `System` with the caller's arguments;
// the wrapper only adds relaxed counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    /// Forwarded, so a growing buffer keeps the system allocator's
    /// in-place growth instead of the default allocate-copy-free.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_are_inert_without_the_allocator() {
        // Unit tests run on the system allocator.
        assert!(!installed());
        assert!(mark().is_none());
    }
}
