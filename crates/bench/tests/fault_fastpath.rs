//! The fault layer must be pay-for-what-you-use: a machine built with an
//! explicit [`parsim::FaultPlan::none`] — and one with retries armed but
//! no faults — must reproduce the plain machine's [`parsim::RunStats`]
//! counters and virtual timestamps bit for bit. The empty plan takes the
//! fast path (no PRNG draws, no delivery rewrites), so nothing about the
//! schedule may shift. Both hold at a breadth where Create is the serial
//! sequence and at one where it relays through agents, each reducing its
//! subtree's replies in arrival order.

use bridge_bench::write_workload;
use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine, RetryPolicy};
use parsim::{FaultPlan, RunStats, SimDuration};

/// p = 4: Create is the serial sequence; p = 32: it relays.
const BREADTHS: [u32; 2] = [4, 32];
const BLOCKS: u64 = 192;

/// Write-then-read-back on the paper machine under `config`, returning
/// the workload's virtual phase times and the kernel's run counters.
fn measure(config: &BridgeConfig, retry: RetryPolicy) -> (SimDuration, SimDuration, RunStats) {
    let (mut sim, machine) = BridgeMachine::build(config);
    let server = machine.server;
    let (write, read) = sim.block_on(machine.frontend, "bench", move |ctx| {
        let mut bridge = BridgeClient::with_retry(server, retry);
        let t0 = ctx.now();
        let file = write_workload(ctx, &mut bridge, BLOCKS, 42);
        let write = ctx.now() - t0;
        bridge.open(ctx, file).expect("open");
        let t0 = ctx.now();
        let mut read = 0u64;
        while bridge.seq_read(ctx, file).expect("read").is_some() {
            read += 1;
        }
        assert_eq!(read, BLOCKS, "every block read back");
        (write, ctx.now() - t0)
    });
    (write, read, sim.stats())
}

/// Zeroes [`RunStats::wakes_elided`], the one counter this suite must not
/// compare: arming a retry timeout that never fires parks a wake event the
/// scheduler later discards clock-free. The *simulation* is untouched —
/// every other counter and every timestamp stays bit-identical, which the
/// assertions below still check — but the engine-cost counter honestly
/// reports the elided wakes, so an armed run legitimately differs there.
fn sans_elided(
    (write, read, stats): (SimDuration, SimDuration, RunStats),
) -> (SimDuration, SimDuration, RunStats) {
    (
        write,
        read,
        RunStats {
            wakes_elided: 0,
            ..stats
        },
    )
}

#[test]
fn empty_fault_plan_is_bit_identical_to_no_plan() {
    for p in BREADTHS {
        let plain = measure(&BridgeConfig::paper(p), RetryPolicy::none());
        let with_empty_plan = measure(
            &BridgeConfig::paper(p).with_faults(FaultPlan::none()),
            RetryPolicy::none(),
        );
        assert_eq!(
            sans_elided(plain),
            sans_elided(with_empty_plan),
            "p = {p}: FaultPlan::none() changed timings or kernel counters"
        );
    }
}

#[test]
fn arming_retries_without_faults_is_bit_identical() {
    for p in BREADTHS {
        let plain = measure(&BridgeConfig::paper(p), RetryPolicy::none());
        let mut armed_config = BridgeConfig::paper(p);
        armed_config.server.lfs_retry = RetryPolicy::standard();
        let armed = measure(&armed_config, RetryPolicy::standard());
        assert_eq!(
            sans_elided(plain),
            sans_elided(armed),
            "p = {p}: idle retry timeouts changed timings or kernel counters"
        );
        // The un-fired timeouts do surface in exactly one place: the armed
        // run's elided-wake counter.
        assert!(
            armed.2.wakes_elided > 0,
            "p = {p}: armed retries should park (and elide) timeout wakes"
        );
        assert_eq!(plain.2.wakes_elided, 0, "p = {p}: none armed, none elided");
    }
}
