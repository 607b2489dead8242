//! What the benchmark process asks of, and reads from, the host: one
//! pinned CPU, the peak resident set, a count of heap allocations made
//! while timed rounds run, and a reference kernel that tells whether the
//! core is running at full speed right now.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pin the calling thread to the highest-numbered CPU it may run on
/// (CPU 0 takes most of a small VM's interrupts). Returns whether the
/// kernel accepted the mask; the benchmark runs unpinned otherwise and
/// says so in `host.pinned`.
pub fn pin_to_one_cpu() -> bool {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a live, writable buffer of exactly `size`
    // bytes, which is what the kernel is told it may fill; pid 0 names
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return false;
    }
    let Some(cpu) = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
    else {
        return false;
    };
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `size` bytes that the kernel
    // only reads.
    unsafe { sched_setaffinity(0, size, &one) == 0 }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Time a fixed, register-only integer kernel (about 12 µs): eight
/// independent multiply chains, so it slows when something else takes
/// issue slots or clock from this core, and never touches memory the
/// workload could miss. The driver runs it between rounds and keeps only
/// the rounds it bracketed at full speed; it never scales a measurement.
pub fn reference_kernel_ns() -> u64 {
    let started = Instant::now();
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..4_000u64 {
        for x in &mut lanes {
            *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (*x >> 29);
        }
    }
    black_box(lanes);
    started.elapsed().as_nanos() as u64
}

/// The system allocator, counting calls and bytes while switched on.
/// The counters publish nothing else, so relaxed ordering is enough.
pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCATIONS.fetch_add(1, Relaxed);
        ALLOCATED_BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Start counting allocations from zero.
pub fn start_counting() {
    ALLOCATIONS.store(0, Relaxed);
    ALLOCATED_BYTES.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Stop counting; returns `(allocations, bytes)` since the start.
pub fn stop_counting() -> (u64, u64) {
    COUNTING.store(false, Relaxed);
    (ALLOCATIONS.load(Relaxed), ALLOCATED_BYTES.load(Relaxed))
}
