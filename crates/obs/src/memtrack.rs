//! Peak-heap tracking via a counting global allocator.
//!
//! The paper's Fig. 6 reports GPU memory usage; this reproduction runs on
//! CPU, so the analogue is peak heap allocation. A binary that wants heap
//! numbers (`tgx-cli` for `train --telemetry`, the experiment binaries,
//! the benchmark suite) installs [`TrackingAllocator`] as its
//! `#[global_allocator]` and snapshots [`peak_bytes`] around each measured
//! run; without it the counters simply read `0`. The "OOM" cells of
//! Tables IV–VI are reproduced by checking the tracked peak against a
//! configurable budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A `System`-backed allocator that tracks live and peak bytes.
pub struct TrackingAllocator;

// SAFETY: delegates to `System` verbatim; only the counters are extra.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwards `layout` unchanged to `System.alloc`, inheriting
        // its contract; the counters never touch the returned memory.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards `ptr`/`layout` unchanged to `System.dealloc`;
        // the caller's GlobalAlloc contract is exactly what we require.
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwards all arguments unchanged to `System.realloc`;
        // only the byte accounting differs from the system allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                let cur = CURRENT.fetch_add(new_size - layout.size(), Ordering::Relaxed)
                    + (new_size - layout.size());
                PEAK.fetch_max(cur, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Live heap bytes right now.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Reset the peak to the current live size (call before a measured run).
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Pretty-print a byte count.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: the tracking allocator is only *installed* in binaries; in
    // unit tests these counters sit at zero unless installed, so we only
    // test the pure helpers here.
    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00 GiB");
    }

    #[test]
    fn counters_are_monotone_api() {
        reset_peak();
        assert!(peak_bytes() >= current_bytes() || peak_bytes() == 0);
    }
}
