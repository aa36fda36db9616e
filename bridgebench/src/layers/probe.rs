//! Per-workload layer readings: the counters every layer already keeps,
//! read before and after one iteration, and the causal profiler's
//! critical-path categories from a traced iteration at reduced size.

use super::workloads::Round;
use super::{Kernel, Metrics, Tally};
use crate::host::{self, CpuClock};
use crate::stats;
use crate::workload::{Inputs, Kind};
use bridge_efs::{LfsClient, LfsData, LfsOp};
use bridge_trace::{HealthSnapshot, ProfileReport};
use simdisk::DiskStats;
use std::sync::Arc;

/// The traced iteration runs at this fraction of full size: the
/// profiler's cost grows faster than linearly in traced ops today
/// (0.6 s at 11.5 k ops, 17 s at 56 k), which the ledger's
/// `trace.profile_ns_per_op` row records.
pub const TRACE_SHRINK: u64 = 8;

/// Flight-recorder columns the profile report is asked for (its cost is
/// in the critical-path fold, not here).
const PROFILE_BINS: usize = 48;

impl Round {
    fn disk_stats(&mut self) -> Vec<DiskStats> {
        let servers = self.machine.lfs.clone();
        self.sim
            .block_on(self.machine.frontend, "disk-stats", move |ctx| {
                let mut lfs = LfsClient::new();
                servers
                    .iter()
                    .map(|&server| match lfs.call(ctx, server, LfsOp::DiskStats) {
                        Ok(LfsData::DiskCounters(stats)) => stats,
                        other => panic!("DiskStats query failed: {other:?}"),
                    })
                    .collect()
            })
    }

    fn health(&self) -> HealthSnapshot {
        self.machine
            .telemetry
            .as_ref()
            .expect("the benchmark's machines keep telemetry armed")
            .snapshot(self.sim.now(), None)
    }
}

/// Runs one warm-up and one measured iteration of `kind` at full size and
/// returns what each layer counted during the measured one, plus one more
/// iteration's allocations.
pub fn counters(kind: Kind, inputs: Arc<Inputs>, clock: &CpuClock) -> (Metrics, Tally) {
    let mut round = Round::setup(kind, inputs, false);
    let mut tally = round.warm_up();

    // The disk query is itself messages and served ops, so it brackets
    // the other two readings and stays out of their deltas.
    let d0 = round.disk_stats();
    let (k0, h0): (Kernel, _) = (round.kernel(), round.health());
    let (it, host_ns) = clock.time(|| round.iterate());
    let (k1, h1) = (round.kernel(), round.health());
    let d1 = round.disk_stats();
    tally.absorb(round.verify(&it));

    let (counted, allocs) = host::count_allocs(|| round.iterate());
    tally.absorb(round.verify(&counted));

    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64| m.push((name.to_string(), value));
    let events = k1.events - k0.events;
    put("parsim.events", events as f64);
    put("parsim.messages", (k1.messages - k0.messages) as f64);
    put("parsim.bytes_sent", (k1.bytes_sent - k0.bytes_sent) as f64);
    put("parsim.dispatches", (k1.dispatches - k0.dispatches) as f64);
    put("parsim.queue_high_water", k1.queue_high_water as f64);
    put("parsim.ready_peak", k1.ready_peak as f64);
    put(
        "parsim.host_ns_per_event",
        host_ns as f64 / events.max(1) as f64,
    );

    let delta = |f: fn(&DiskStats) -> u64| -> Vec<u64> {
        d1.iter().zip(&d0).map(|(a, b)| f(a) - f(b)).collect()
    };
    let reads: u64 = delta(|d| d.reads).iter().sum();
    let hits: u64 = delta(|d| d.buffer_hits).iter().sum();
    let busy = delta(|d| d.busy.as_nanos());
    let busy_sum: u64 = busy.iter().sum();
    let virt_ns = (k1.now_ns - k0.now_ns).max(1);
    put("simdisk.reads", reads as f64);
    put(
        "simdisk.writes",
        delta(|d| d.writes).iter().sum::<u64>() as f64,
    );
    put(
        "simdisk.track_loads",
        delta(|d| d.track_loads).iter().sum::<u64>() as f64,
    );
    put(
        "simdisk.buffer_hit_ratio",
        hits as f64 / reads.max(1) as f64,
    );
    put("simdisk.busy_sum_virt_s", busy_sum as f64 / 1e9);
    put(
        "simdisk.busy_max_virt_s",
        busy.iter().copied().max().unwrap_or(0) as f64 / 1e9,
    );
    put(
        "simdisk.utilization",
        busy_sum as f64 / (virt_ns as f64 * busy.len().max(1) as f64),
    );

    let lfs_delta = |f: fn(&bridge_trace::LfsTelemetry) -> u64| -> u64 {
        h1.lfs.iter().zip(&h0.lfs).map(|(a, b)| f(a) - f(b)).sum()
    };
    let served = lfs_delta(|l| l.ops_served);
    let commits = lfs_delta(|l| l.wal_commits);
    put("efs.ops_served", served as f64);
    put(
        "efs.batch_mean",
        lfs_delta(|l| l.batched_ops) as f64 / lfs_delta(|l| l.batches).max(1) as f64,
    );
    put(
        "efs.queue_depth_peak",
        h1.lfs.iter().map(|l| l.queue_depth_peak).max().unwrap_or(0) as f64,
    );
    put(
        "efs.queue_wait_virt_s",
        lfs_delta(|l| l.queue_wait_nanos) as f64 / 1e9,
    );
    put("efs.wal_commits", commits as f64);
    put(
        "efs.ops_per_wal_commit",
        if commits == 0 {
            0.0
        } else {
            served as f64 / commits as f64
        },
    );

    let (s0, s1) = (&h0.server, &h1.server);
    put("core.ops", (s1.ops - s0.ops) as f64);
    put(
        "core.txns_committed",
        (s1.txns_committed - s0.txns_committed) as f64,
    );
    put(
        "core.txns_aborted",
        (s1.txns_aborted - s0.txns_aborted) as f64,
    );
    put(
        "core.degraded_reads",
        (s1.degraded_reads - s0.degraded_reads) as f64,
    );
    put("core.lfs_resends", (s1.lfs_resends - s0.lfs_resends) as f64);
    put("core.replays", (s1.replays - s0.replays) as f64);

    put("client.virt_s", it.virt_ns as f64 / 1e9);
    put(
        "client.virt_op_p50_ms",
        stats::percentile(&it.op_ns, 50.0) as f64 / 1e6,
    );
    put(
        "client.virt_op_p99_ms",
        stats::percentile(&it.op_ns, 99.0) as f64 / 1e6,
    );
    put("tools.sort_local_virt_s", it.sort_phases_ns.0 as f64 / 1e9);
    put("tools.sort_merge_virt_s", it.sort_phases_ns.1 as f64 / 1e9);
    put("alloc.count_per_iter", allocs.calls as f64);
    put("alloc.bytes_per_iter", allocs.bytes as f64);
    (m, tally)
}

/// One traced iteration of `kind` (inputs already shrunk by
/// [`TRACE_SHRINK`]), folded into critical-path shares: the ten
/// categories partition the iteration's makespan, so they sum to 1.
pub fn categories(kind: Kind, inputs: Arc<Inputs>) -> (Metrics, Tally) {
    let mut round = Round::setup(kind, inputs, true);
    let mut tally = round.setup_tally;
    let collector = Arc::clone(round.collector.as_ref().expect("traced round"));
    // Set-up traffic is not part of the iteration's critical path.
    drop(collector.take());
    let started_ns = round.kernel().now_ns;
    let it = round.iterate();
    let data = collector.take();
    tally.absorb(round.verify(&it));

    // The profiler walks back from the last event to the start of the
    // host-spawned process that ran the iteration and books everything
    // before that — here, the set-up — as untraced. That stretch is not
    // the iteration's, so it comes off both the category and the total.
    let report = ProfileReport::from_trace(&data, PROFILE_BINS);
    let path = &report.profile.critical_path.breakdown;
    let total = path.total().saturating_sub(started_ns).max(1) as f64;
    let mut m: Metrics = path
        .iter()
        .map(|(cat, nanos)| {
            let label = cat.label().replace('.', "_");
            let nanos = if label == "untraced" {
                nanos.saturating_sub(started_ns)
            } else {
                nanos
            };
            (format!("share.{label}"), nanos as f64 / total)
        })
        .collect();
    m.push(("trace.spans".to_string(), data.spans.len() as f64));
    (m, tally)
}
