//! Host-side instruments: the thread CPU clock, the process's peak
//! resident set, and a counting allocator.
//!
//! The CPU clock is the scheduler's own ledger for the calling thread,
//! `CLOCK_THREAD_CPUTIME_ID`. The fiber engine runs the whole simulation
//! on the calling thread, so a delta of this clock prices exactly the
//! work under test and leaves out time spent preempted — which is what
//! makes host numbers repeatable on a shared two-core box. It is the same
//! quantity `/proc/thread-self/schedstat` reports (`sum_exec_runtime`),
//! but `clock_gettime` brings the ledger up to date before reading it,
//! whereas the proc file showed 4 ms steps (one scheduler tick) when a
//! thread read its own entry here. Off 64-bit Linux the clock falls back
//! to wall time, and the output says which clock was used.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod thread_cpu {
    /// `struct timespec` on 64-bit Linux: two 64-bit signed fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    /// On-CPU nanoseconds of the calling thread.
    pub fn nanos() -> Option<u64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec` with the layout the
        // 64-bit Linux ABI gives it, and `clock_gettime` writes nothing
        // else; the symbol comes from the libc `std` already links.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod thread_cpu {
    pub fn nanos() -> Option<u64> {
        None
    }
}

/// The clock host costs are measured on.
#[derive(Debug)]
pub struct CpuClock {
    /// Whether the thread CPU clock answered when the clock was opened;
    /// otherwise every reading is wall time (the two are never mixed).
    thread_cpu: bool,
    origin: Instant,
}

impl CpuClock {
    /// Opens the calling thread's clock. Readings are only meaningful on
    /// the thread that takes them.
    pub fn for_this_thread() -> CpuClock {
        CpuClock {
            thread_cpu: thread_cpu::nanos().is_some(),
            origin: Instant::now(),
        }
    }

    /// `"thread-cpu"` or `"wall"`.
    pub fn kind(&self) -> &'static str {
        if self.thread_cpu {
            "thread-cpu"
        } else {
            "wall"
        }
    }

    /// Nanoseconds on this clock since an arbitrary origin.
    pub fn nanos(&self) -> u64 {
        if self.thread_cpu {
            if let Some(ns) = thread_cpu::nanos() {
                return ns;
            }
        }
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` and returns its value with the nanoseconds it cost.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = self.nanos();
        let value = f();
        (value, self.nanos().saturating_sub(t0))
    }
}

/// Hands memory the allocator holds free back to the operating system.
/// Called between rounds, after a machine is dropped: glibc keeps the
/// freed pages and serves the next machine from fresh ones, so without
/// this the resident set ratchets up with every round (220 MB a round at
/// p=1024, none of it live) and later rounds run in a different memory
/// state from the first. A no-op off glibc.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases pages
        // of chunks that are already free; glibc documents it as safe to
        // call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The system allocator with two counters in front of it. Disarmed (the
/// state of every end-to-end run) an allocation pays one relaxed load;
/// the layers pass arms it around the spans it wants counted.
#[derive(Debug)]
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain atomics touched
// before the forward and do not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from a previous call on this
        // allocator, which forwarded to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a previous call on this
        // allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Allocation calls and bytes requested while a span was counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub calls: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

/// Runs `f` with the allocator armed and returns what it allocated.
/// Spans do not nest: the benchmark is single-threaded and counts one
/// span at a time.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, AllocCount) {
    let (calls0, bytes0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    ARMED.store(true, Ordering::Relaxed);
    let value = f();
    ARMED.store(false, Ordering::Relaxed);
    let count = AllocCount {
        calls: ALLOCS.load(Ordering::Relaxed) - calls0,
        bytes: BYTES.load(Ordering::Relaxed) - bytes0,
    };
    (value, count)
}

/// Whether the allocator is counting right now (end-to-end runs assert
/// it is not).
pub fn allocs_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}
