//! Heap allocations per block of the naive interface, the whole stack
//! counted — client, server, LFS, disk and the simulator under them — at
//! steady state on `BridgeConfig::instant(8)` (every switch off, so each
//! block is one client request, one server round and one LFS op).
//!
//! The counting allocator is armed only around the measured blocks, and
//! this binary holds this one test, so no other test's allocations reach
//! the counter. The simulation runs on one thread and is deterministic,
//! so the count repeats run to run: a rise is a new allocation on the
//! per-block path, not noise. A data round of the server builds its ops as
//! they are sent and keeps one in-flight list, which is what holds a read
//! block to the figure below.

use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine, CreateSpec};
use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain atomic touched
// before the forward and does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` and `layout` come from a previous call on this
        // allocator, which forwarded to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn note() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Allocations made while `body` runs.
fn counted(body: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    body();
    ARMED.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Blocks written and read before counting starts, so that the
/// directory, the LFS block maps and the simulator's queues have grown.
const WARM: u64 = 256;
/// Blocks counted, each way.
const BLOCKS: u64 = 256;

/// At most this many allocations for the `BLOCKS` counted `SeqWrite`s
/// (15.03 a block) and `SeqRead`s (8.0 a block).
const WRITE_CAP: u64 = 3_848;
const READ_CAP: u64 = 2_048;

#[test]
fn a_naive_block_allocates_no_more_than_it_did() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(8));
    let server = machine.server;
    let (writes, reads) = sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        let data = Bytes::from(vec![0x5Au8; 900]);
        let mut write = |ctx: &mut parsim::Ctx, n: u64| {
            for _ in 0..n {
                bridge.seq_write(ctx, file, data.clone()).unwrap();
            }
        };
        write(ctx, WARM);
        let writes = counted(|| write(ctx, BLOCKS));
        bridge.open(ctx, file).unwrap();
        let mut read = |ctx: &mut parsim::Ctx, n: u64| {
            for _ in 0..n {
                assert!(bridge.seq_read(ctx, file).unwrap().is_some());
            }
        };
        read(ctx, WARM);
        let reads = counted(|| read(ctx, BLOCKS));
        (writes, reads)
    });
    let per_block = |n: u64| n as f64 / BLOCKS as f64;
    let (write, read) = (per_block(writes), per_block(reads));
    println!("allocations per block: seq_write {write:.3}, seq_read {read:.3}");
    assert!(
        writes <= WRITE_CAP,
        "seq_write: {writes} allocations ({write:.3} a block), cap {WRITE_CAP}"
    );
    assert!(
        reads <= READ_CAP,
        "seq_read: {reads} allocations ({read:.3} a block), cap {READ_CAP}"
    );
}
