//! Disk-scheduling ablation: Fifo versus Sstf versus CScan under
//! concurrent multi-client load on a seek-sensitive disk.
//!
//! The paper's flat 15 ms Wren profile makes every positioning cost the
//! same, so request order cannot matter; this harness instead uses a
//! travel-dominated seek curve on a 1024-track platter — 2 ms settle,
//! 38.4 us per track — calibrated so the *average* random seek still
//! lands near the flat profile's 15 ms while a full stroke costs ~41 ms.
//! The LFS gets a link cache big enough to hold every block's link, so
//! requests cost one media access each and the ablation isolates head
//! scheduling from metadata-cache pressure.
//!
//! Twelve open-loop clients offer the LFS a combined ~50 ops/s — more
//! than Fifo's measured ~42 ops/s service capacity on this platter, but
//! comfortably within what the disk-aware policies sustain. Each client
//! paces sends on a fixed jittered period regardless of replies, drawing
//! a deterministic zipf-like file mix (rank r with weight 1/(r+1); ranks
//! scattered across the platter so hot files are not accidentally
//! adjacent) and an 80/20 read/overwrite split. Under Fifo the backlog
//! grows for the whole run and tail latency stretches into seconds;
//! Sstf/CScan keep the queue short. Each client records its operations'
//! round-trip latency in its own `Histogram` on the instant its `sched.op`
//! span closes, and `main` merges them, so throughput and p50/p99 come
//! from the same samples the trace shows; queue-wait and depth come from
//! the server's `lfs.queue_wait` spans.

use bridge_bench::profile::Profiler;
use bridge_bench::report::{count, secs, Table};
use bridge_bench::results::{emit, Metric};
use bridge_bench::{records_per_second, scale};
use bridge_efs::{spawn_lfs_sched, Efs, EfsConfig, LfsClient, LfsData, LfsFileId, LfsOp};
use bridge_trace::{Histogram, TraceCollector};
use parsim::{SimConfig, SimDuration, SimTime, Simulation, UniformLatency};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simdisk::{DiskGeometry, DiskProfile, SchedConfig, SchedPolicy, SeekCurve, SimDisk};
use std::sync::mpsc;

const CLIENTS: u32 = 12;
const FILES: u32 = 16;
const FILE_BLOCKS: u32 = 416;

/// Mean inter-send period per client: 12 clients at one op per 240 ms
/// offer ~50 ops/s combined — past Fifo's capacity on this platter,
/// within Sstf's and CScan's.
const SEND_PERIOD: SimDuration = SimDuration::from_millis(240);

/// Zipf rank -> file index: a fixed scatter so the hottest files sit on
/// far-apart tracks (allocation is sequential in creation order).
const RANK_TO_FILE: [u32; FILES as usize] = [9, 2, 14, 5, 0, 11, 7, 13, 3, 10, 1, 15, 6, 12, 4, 8];

fn ops_per_client() -> u64 {
    256 / scale()
}

/// The bench disk: 1024 tracks of 8 blocks with a travel-dominated seek
/// curve. The average random seek (a third of the platter, ~341 tracks)
/// costs 2 ms + 341 x 38.4 us ~= 15 ms, matching the flat Wren figure, so
/// Fifo's expected positioning cost is unchanged from the paper's model —
/// only the *spread* that ordering can exploit is new.
fn bench_disk() -> SimDisk {
    SimDisk::new(
        DiskGeometry {
            block_size: 1024,
            blocks_per_track: 8,
            tracks: 1024,
        },
        DiskProfile {
            seek: Some(SeekCurve {
                settle: SimDuration::from_millis(2),
                per_track: SimDuration::from_nanos(38_400),
            }),
            ..DiskProfile::wren()
        },
    )
}

/// Draws a zipf-like file rank: rank r with weight 1/(r+1).
fn zipf_rank(rng: &mut SmallRng, cumulative: &[f64]) -> usize {
    let total = *cumulative.last().expect("non-empty weights");
    let u = rng.random_range(0u64..1_000_000) as f64 / 1_000_000.0 * total;
    cumulative.iter().position(|&c| u < c).unwrap_or(0)
}

struct RunResult {
    policy: SchedPolicy,
    throughput: f64,
    makespan: SimDuration,
    mean: SimDuration,
    p50_bound: u64,
    p99_bound: u64,
    queue_wait_mean: SimDuration,
    depth_mean: f64,
    depth_max: u64,
    head_travel: u64,
}

fn run_policy(policy: SchedPolicy, profiler: &Profiler) -> RunResult {
    let collector = TraceCollector::install();
    let mut sim = Simulation::new(SimConfig {
        latency: Box::new(UniformLatency::default()),
        seed: 0x5C4E_D015,
        tracer: Some(collector.as_tracer()),
        ..SimConfig::default()
    });
    let lfs_node = sim.add_node("lfs");

    // Setup (untraced costs don't matter: measurement starts per client):
    // lay the shared files end to end across the platter.
    let efs = sim.block_on(lfs_node, "setup", move |ctx| {
        // A link cache spanning every data block: requests then cost one
        // media access each instead of walking the on-disk chain, and the
        // scheduler can place every pending request on its real track.
        let config = EfsConfig {
            link_cache_capacity: 8 * 1024,
            ..EfsConfig::default()
        };
        let mut efs = Efs::format(bench_disk(), config);
        for f in 0..FILES {
            let file = LfsFileId(f);
            efs.create(ctx, file).expect("create shared file");
            for b in 0..FILE_BLOCKS {
                efs.write(ctx, file, b, &[f as u8, b as u8], None)
                    .expect("populate shared file");
            }
        }
        efs
    });
    let server = spawn_lfs_sched(&mut sim, lfs_node, "lfs", efs, SchedConfig::new(policy));

    let cumulative: Vec<f64> = (0..FILES)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / f64::from(r + 1);
            Some(*acc)
        })
        .collect();
    let ops = ops_per_client();
    let (tx, rx) = mpsc::channel();
    for c in 0..CLIENTS {
        let node = sim.add_node(format!("client{c}"));
        let tx = tx.clone();
        let cumulative = cumulative.clone();
        sim.spawn(node, format!("client{c}"), move |ctx| {
            let mut rng = SmallRng::seed_from_u64(0x5EED_0000 + u64::from(c));
            let mut lfs = LfsClient::new();
            let mut pending: std::collections::HashMap<u64, parsim::SimTime> =
                std::collections::HashMap::new();
            let mut latency = Histogram::default();
            let mut finish = |ctx: &mut parsim::Ctx,
                              pending: &mut std::collections::HashMap<u64, parsim::SimTime>,
                              env: parsim::Envelope| {
                let reply = env.downcast::<bridge_efs::LfsReply>().expect("lfs reply");
                reply.result.expect("lfs op succeeded");
                let t0 = pending.remove(&reply.id).expect("reply matches a send");
                latency.record((ctx.now() - t0).as_nanos());
                ctx.trace_span("bench", "sched.op", t0, &[]);
            };
            let start = ctx.now();
            // Stagger client start so the offered load is spread evenly.
            let mut due = start + SEND_PERIOD / u64::from(CLIENTS) * u64::from(c);
            for _ in 0..ops {
                // Sends are paced by the wall clock, not by replies:
                // consume replies while waiting for the next send slot.
                loop {
                    let now = ctx.now();
                    if now >= due {
                        break;
                    }
                    match ctx.recv_timeout(due.saturating_duration_since(now)) {
                        Some(env) => finish(ctx, &mut pending, env),
                        None => break,
                    }
                }
                let file = LfsFileId(RANK_TO_FILE[zipf_rank(&mut rng, &cumulative)]);
                let block = rng.random_range(0..FILE_BLOCKS);
                let op = if rng.random_range(0u32..5) == 0 {
                    LfsOp::Write {
                        file,
                        block,
                        data: bytes::Bytes::from(vec![block as u8; 960]),
                        hint: None,
                    }
                } else {
                    LfsOp::Read {
                        file,
                        block,
                        hint: None,
                    }
                };
                let id = lfs.send(ctx, server, op);
                pending.insert(id, ctx.now());
                // Jittered period, mean SEND_PERIOD (deterministic).
                let jitter = SimDuration::from_millis(rng.random_range(0u64..61));
                due += SEND_PERIOD + jitter - SimDuration::from_millis(30);
            }
            while !pending.is_empty() {
                let env = ctx.recv();
                finish(ctx, &mut pending, env);
            }
            tx.send((start, ctx.now(), latency))
                .expect("collect client window");
        });
    }
    drop(tx);
    sim.run();

    let windows: Vec<(SimTime, SimTime, Histogram)> = rx.iter().collect();
    assert_eq!(windows.len(), CLIENTS as usize, "every client reported");
    let first_start = windows.iter().map(|w| w.0).min().expect("clients ran");
    let last_end = windows.iter().map(|w| w.1).max().expect("clients ran");
    let makespan = last_end.saturating_duration_since(first_start);
    let mut op = Histogram::default();
    for (_, _, latency) in &windows {
        op.merge(latency);
    }

    let probe = sim.add_node("probe");
    let stats = sim.block_on(probe, "stats", move |ctx| {
        match LfsClient::new().call(ctx, server, LfsOp::DiskStats) {
            Ok(LfsData::DiskCounters(stats)) => stats,
            other => panic!("expected disk counters, got {other:?}"),
        }
    });

    let data = collector.take();
    // Under --profile, the same trace also yields the causal profile.
    profiler.report(&format!("sched_{policy}"), &data);
    assert_eq!(op.count(), u64::from(CLIENTS) * ops, "all ops measured");
    let (mut waits, mut wait_nanos, mut depth_sum, mut depth_max) = (0u64, 0, 0, 0);
    for span in data.spans.iter().filter(|s| s.name == "lfs.queue_wait") {
        let depth = span.arg("depth").expect("depth arg");
        waits += 1;
        wait_nanos += span.dur_nanos();
        depth_sum += depth;
        depth_max = depth_max.max(depth);
    }
    RunResult {
        policy,
        throughput: records_per_second(op.count(), makespan),
        makespan,
        mean: op.mean(),
        p50_bound: op.quantile_bound(0.50),
        p99_bound: op.quantile_bound(0.99),
        queue_wait_mean: SimDuration::from_nanos(wait_nanos / waits),
        depth_mean: depth_sum as f64 / waits as f64,
        depth_max,
        head_travel: stats.head_travel,
    }
}

fn ms(nanos: u64) -> String {
    format!("{:.1} ms", nanos as f64 / 1e6)
}

fn main() {
    let ops = ops_per_client();
    println!(
        "## Disk-scheduling ablation — {CLIENTS} clients x {ops} ops, \
         zipf-like mix over {FILES} files on a seek-sensitive platter\n"
    );

    let profiler = Profiler::new("ablate_disk_sched");
    let results: Vec<RunResult> = [SchedPolicy::Fifo, SchedPolicy::Sstf, SchedPolicy::CScan]
        .into_iter()
        .map(|policy| run_policy(policy, &profiler))
        .collect();

    let mut table = Table::new([
        "policy",
        "ops/s",
        "makespan",
        "mean",
        "p50 <=",
        "p99 <=",
        "queue wait",
        "depth avg/max",
        "head travel",
    ]);
    for r in &results {
        table.row([
            r.policy.to_string(),
            format!("{:.1}", r.throughput),
            secs(r.makespan),
            ms(r.mean.as_nanos()),
            ms(r.p50_bound),
            ms(r.p99_bound),
            ms(r.queue_wait_mean.as_nanos()),
            format!("{:.1} / {}", r.depth_mean, r.depth_max),
            format!("{} tracks", count(r.head_travel)),
        ]);
    }
    table.print();

    // The acceptance bar: at least one disk-aware policy must beat Fifo on
    // both throughput and the p99 latency bound under this load.
    let fifo = &results[0];
    let best = results[1..]
        .iter()
        .filter(|r| r.throughput > fifo.throughput && r.p99_bound < fifo.p99_bound)
        .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
        .unwrap_or_else(|| {
            panic!(
                "expected sstf or cscan to beat fifo on both throughput and p99 \
                 (fifo: {:.1} ops/s, p99 <= {})",
                fifo.throughput,
                ms(fifo.p99_bound),
            )
        });
    println!(
        "\nHeadline: {} sustains {:.1} ops/s vs fifo's {:.1} ({:.2}x) \
         with p99 <= {} vs {}",
        best.policy,
        best.throughput,
        fifo.throughput,
        best.throughput / fifo.throughput,
        ms(best.p99_bound),
        ms(fifo.p99_bound),
    );

    let mut metrics = Vec::new();
    for r in &results {
        metrics.push(Metric::higher(
            format!("{}.ops_per_s", r.policy),
            r.throughput,
        ));
        metrics.push(Metric::lower(
            format!("{}.p99_ns", r.policy),
            r.p99_bound as f64,
        ));
    }
    emit("ablate_disk_sched", &metrics);
}
