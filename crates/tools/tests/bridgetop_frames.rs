//! Golden dashboard frames for the two canned `bridgetop` scenarios.
//!
//! `run_scenario` reads the machine only through the out-of-band sampler
//! and `TelemetryRegistry::snapshot`, so its frames are what an operator
//! sees — and the simulation is deterministic, so every figure in every
//! frame is a constant. This file pins them at `TopOptions::default()`:
//!
//! * the final (quiescence) frame field by field — the server's view,
//!   every LFS row including its disk counters and service histogram,
//!   the journal and the kernel's `RunStats`;
//! * every frame of the run by hash — virtual time, kernel counters,
//!   every server and LFS field, the journal and the alert rules;
//! * the frames at which the alert list and the server's `lfs_resends`
//!   change, spelled out, because those are the two arcs a reader wants
//!   to see rather than hash;
//! * the text rendering of the final frame, and the JSON export's
//!   schema check.
//!
//! Deliberately *not* in the per-frame hash: `lfs[i].disk.*` before
//! quiescence. The disk's counters reach the registry when the LFS
//! publishes, so a frame sampled inside a service batch may show them
//! as of the batch's start or part-way through it depending on where a
//! revision chooses to publish; the final frame, where nothing is in
//! flight, pins them exactly.
//!
//! When a change to the constants is intended, run with `--nocapture`:
//! a mismatch prints the observed `Pinned` value in source form.

use bridge_tools::{run_scenario, TopOptions, TopScenario};
use bridge_trace::{
    render_snapshot, snapshots_to_json, validate_health_json, DiskTelemetry, HealthSnapshot,
    LfsTelemetry, ServerTelemetry,
};
use parsim::{RunStats, SimTime};
use std::fmt::Write as _;

/// One LFS column of a frame: every scalar `LfsTelemetry` carries plus
/// the two figures the dashboard and the JSON export take from its
/// service histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LfsRow {
    disk: DiskTelemetry,
    wal_enabled: bool,
    wal_commits: u64,
    wal_checkpoints: u64,
    wal_ring_used: u64,
    wal_ring_capacity: u64,
    group_commit_width: u64,
    free_blocks: u64,
    media_lost: bool,
    crash_down: bool,
    ops_served: u64,
    batches: u64,
    batched_ops: u64,
    batch_max: u64,
    queue_depth: u64,
    queue_depth_peak: u64,
    queue_waits: u64,
    queue_wait_nanos: u64,
    service_count: u64,
    service_p99_ns: u64,
}

impl LfsRow {
    fn of(l: &LfsTelemetry) -> Self {
        LfsRow {
            disk: l.disk,
            wal_enabled: l.wal_enabled,
            wal_commits: l.wal_commits,
            wal_checkpoints: l.wal_checkpoints,
            wal_ring_used: l.wal_ring_used,
            wal_ring_capacity: l.wal_ring_capacity,
            group_commit_width: l.group_commit_width,
            free_blocks: l.free_blocks,
            media_lost: l.media_lost,
            crash_down: l.crash_down,
            ops_served: l.ops_served,
            batches: l.batches,
            batched_ops: l.batched_ops,
            batch_max: l.batch_max,
            queue_depth: l.queue_depth,
            queue_depth_peak: l.queue_depth_peak,
            queue_waits: l.queue_waits,
            queue_wait_nanos: l.queue_wait_nanos,
            service_count: l.service.count(),
            service_p99_ns: l.service.quantile_bound(0.99),
        }
    }
}

/// What one scenario is pinned to.
struct Pinned {
    /// The quiescence frame's server view.
    server: ServerTelemetry,
    /// The quiescence frame's LFS rows, in column order.
    lfs: &'static [LfsRow],
    /// Journal entries that fell off the ring by the end.
    events_dropped: u64,
    /// The kernel's final counters, as the quiescence frame carries them.
    kernel: RunStats,
    /// The quiescence frame's journal, oldest first, by event name.
    events: &'static [&'static str],
    /// `(frame, rules)`: each frame whose alert-rule list differs from
    /// the frame before it (the run starts with none).
    alert_arc: &'static [(usize, &'static str)],
    /// `(frame, lfs_resends)`: each frame where the server's retransmit
    /// count differs from the frame before it (the run starts at 0).
    resends_arc: &'static [(usize, u64)],
    /// FNV-1a of `render_snapshot(final frame)`.
    render_hash: u64,
    /// One hash per frame, oldest first (see [`frame_hash`]).
    frame_hashes: &'static [u32],
}

/// The observed counterpart of [`Pinned`].
struct Observed {
    server: ServerTelemetry,
    lfs: Vec<LfsRow>,
    events_dropped: u64,
    kernel: RunStats,
    events: Vec<&'static str>,
    alert_arc: Vec<(usize, String)>,
    resends_arc: Vec<(usize, u64)>,
    render_hash: u64,
    frame_hashes: Vec<u32>,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Hashes everything a frame carries except `lfs[i].disk` (see the
/// module doc) and `server.lfs_resends` (pinned by its own arc, so the
/// one figure has one constant).
fn frame_hash(f: &HealthSnapshot) -> u32 {
    let mut h = Fnv::new();
    h.word(f.at.as_nanos());
    let k = f.kernel.expect("sampler frames carry the kernel counters");
    for w in [
        k.events,
        k.messages,
        k.spawned,
        k.bytes_sent,
        k.queue_high_water as u64,
        k.dispatches,
        k.syscalls,
        k.wakes_elided,
        k.ready_peak,
        k.end_time.as_nanos(),
    ] {
        h.word(w);
    }
    let s = ServerTelemetry {
        lfs_resends: 0,
        ..f.server
    };
    h.bytes(format!("{s:?}").as_bytes());
    for l in &f.lfs {
        let row = LfsRow {
            disk: DiskTelemetry::default(),
            ..LfsRow::of(l)
        };
        h.bytes(format!("{row:?}").as_bytes());
        for w in [
            l.service.quantile_bound(0.5),
            l.service.mean().as_nanos(),
            l.service.max().as_nanos(),
        ] {
            h.word(w);
        }
    }
    for e in &f.events {
        h.word(e.at.as_nanos());
        h.bytes(e.event.name().as_bytes());
        for (key, value) in e.event.args() {
            h.bytes(key.as_bytes());
            h.word(value);
        }
    }
    h.word(f.events_dropped);
    h.word(f.service.count());
    h.word(f.service.quantile_bound(0.99));
    for a in &f.alerts {
        h.bytes(a.rule.name().as_bytes());
        h.word(a.at.as_nanos());
    }
    (h.0 ^ (h.0 >> 32)) as u32
}

fn rules(f: &HealthSnapshot) -> String {
    let names: Vec<&str> = f.alerts.iter().map(|a| a.rule.name()).collect();
    names.join(",")
}

fn observe(scenario: TopScenario) -> (Vec<HealthSnapshot>, Observed) {
    let frames = run_scenario(&TopOptions {
        scenario,
        ..TopOptions::default()
    });
    let last = frames.last().expect("a run samples at least one frame");
    let mut alert_arc = Vec::new();
    let mut resends_arc = Vec::new();
    let (mut shown, mut resends) = (String::new(), 0);
    for (i, f) in frames.iter().enumerate() {
        if rules(f) != shown {
            shown = rules(f);
            alert_arc.push((i, shown.clone()));
        }
        if f.server.lfs_resends != resends {
            resends = f.server.lfs_resends;
            resends_arc.push((i, resends));
        }
    }
    let mut render = Fnv::new();
    render.bytes(render_snapshot(last).as_bytes());
    let observed = Observed {
        server: last.server,
        lfs: last.lfs.iter().map(LfsRow::of).collect(),
        events_dropped: last.events_dropped,
        kernel: last.kernel.expect("quiescence frame carries the kernel"),
        events: last.events.iter().map(|e| e.event.name()).collect(),
        alert_arc,
        resends_arc,
        render_hash: render.0,
        frame_hashes: frames.iter().map(frame_hash).collect(),
    };
    (frames, observed)
}

impl Observed {
    fn matches(&self, p: &Pinned) -> bool {
        self.server == p.server
            && self.lfs == p.lfs
            && self.events_dropped == p.events_dropped
            && self.kernel == p.kernel
            && self.events == p.events
            && self.alert_arc.len() == p.alert_arc.len()
            && self
                .alert_arc
                .iter()
                .zip(p.alert_arc)
                .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
            && self.resends_arc == p.resends_arc
            && self.render_hash == p.render_hash
            && self.frame_hashes == p.frame_hashes
    }

    /// The observation as the `Pinned` literal that would accept it.
    fn as_source(&self, name: &str) -> String {
        let mut out = format!("const {name}: Pinned = Pinned {{\n");
        let _ = writeln!(out, "    server: {:?},", self.server);
        let _ = writeln!(out, "    lfs: &[");
        for row in &self.lfs {
            let _ = writeln!(out, "        {row:?},");
        }
        let _ = writeln!(out, "    ],");
        let _ = writeln!(out, "    events_dropped: {},", self.events_dropped);
        let kernel = format!("{:?}", self.kernel).replace("SimTime(", "SimTime::from_nanos(");
        let _ = writeln!(out, "    kernel: {kernel},");
        let _ = writeln!(out, "    events: &{:?},", self.events);
        let _ = writeln!(out, "    alert_arc: &{:?},", self.alert_arc);
        let _ = writeln!(out, "    resends_arc: &{:?},", self.resends_arc);
        let _ = writeln!(out, "    render_hash: {:#018x},", self.render_hash);
        let _ = writeln!(out, "    frame_hashes: &[");
        for line in self.frame_hashes.chunks(8) {
            let words: Vec<String> = line.iter().map(|w| format!("{w:#010x}")).collect();
            let _ = writeln!(out, "        {},", words.join(", "));
        }
        let _ = writeln!(out, "    ],\n}};");
        out
    }
}

fn check(scenario: TopScenario, name: &str, pinned: &Pinned) {
    let (frames, observed) = observe(scenario);
    assert!(
        observed.matches(pinned),
        "{scenario:?} frames moved; observed:\n{}",
        observed.as_source(name)
    );
    assert_eq!(
        validate_health_json(&snapshots_to_json(&frames)),
        Ok(frames.len()),
        "{scenario:?}: the JSON export validates frame for frame"
    );
}

#[test]
fn faulted_scenario_frames_are_pinned() {
    check(TopScenario::Faulted, "FAULTED", &FAULTED);
}

#[test]
fn control_scenario_frames_are_pinned() {
    check(TopScenario::Control, "CONTROL", &CONTROL);
}

const FAULTED: Pinned = Pinned {
    server: ServerTelemetry {
        ops: 206,
        replays: 5,
        dedup_occupancy: 1,
        dedup_peak: 1,
        txns_begun: 65,
        txns_committed: 65,
        txns_aborted: 0,
        txns_in_doubt: 0,
        degraded_reads: 16,
        columns_lost: 0,
        lfs_resends: 0,
        rebuilds_started: 1,
        rebuilds_done: 1,
        rebuild_done_blocks: 64,
        rebuild_total_blocks: 64,
    },
    lfs: &[
        LfsRow {
            disk: DiskTelemetry {
                reads: 108,
                writes: 188,
                buffer_hits: 64,
                track_loads: 44,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3304000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 70,
            wal_checkpoints: 3,
            wal_ring_used: 16,
            wal_ring_capacity: 64,
            group_commit_width: 8,
            free_blocks: 65313,
            media_lost: false,
            crash_down: false,
            ops_served: 176,
            batches: 168,
            batched_ops: 176,
            batch_max: 2,
            queue_depth: 0,
            queue_depth_peak: 2,
            queue_waits: 176,
            queue_wait_nanos: 694835300,
            service_count: 176,
            service_p99_ns: 29360128,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 40,
                writes: 65,
                buffer_hits: 16,
                track_loads: 24,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 1608000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 23,
            wal_checkpoints: 0,
            wal_ring_used: 24,
            wal_ring_capacity: 64,
            group_commit_width: 8,
            free_blocks: 65313,
            media_lost: false,
            crash_down: false,
            ops_served: 103,
            batches: 94,
            batched_ops: 103,
            batch_max: 2,
            queue_depth: 0,
            queue_depth_peak: 2,
            queue_waits: 103,
            queue_wait_nanos: 74593600,
            service_count: 103,
            service_p99_ns: 62914560,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 104,
                writes: 175,
                buffer_hits: 62,
                track_loads: 42,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3093000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 64,
            wal_checkpoints: 3,
            wal_ring_used: 7,
            wal_ring_capacity: 64,
            group_commit_width: 8,
            free_blocks: 65314,
            media_lost: false,
            crash_down: false,
            ops_served: 167,
            batches: 159,
            batched_ops: 167,
            batch_max: 2,
            queue_depth: 0,
            queue_depth_peak: 2,
            queue_waits: 167,
            queue_wait_nanos: 413968000,
            service_count: 167,
            service_p99_ns: 29360128,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 104,
                writes: 175,
                buffer_hits: 61,
                track_loads: 43,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3115000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 64,
            wal_checkpoints: 3,
            wal_ring_used: 7,
            wal_ring_capacity: 64,
            group_commit_width: 8,
            free_blocks: 65314,
            media_lost: false,
            crash_down: false,
            ops_served: 167,
            batches: 159,
            batched_ops: 167,
            batch_max: 2,
            queue_depth: 0,
            queue_depth_peak: 2,
            queue_waits: 167,
            queue_wait_nanos: 752698750,
            service_count: 167,
            service_p99_ns: 29360128,
        },
    ],
    events_dropped: 0,
    kernel: RunStats {
        events: 4153,
        messages: 1768,
        spawned: 10,
        bytes_sent: 731352,
        queue_high_water: 10,
        dispatches: 4153,
        syscalls: 5921,
        wakes_elided: 969,
        ready_peak: 12,
        end_time: SimTime::from_nanos(10027627350),
    },
    events: &[
        "disk.lost",
        "redundancy.degraded_onset",
        "disk.spare_installed",
        "rebuild.start",
        "rebuild.chunk",
        "rebuild.chunk",
        "rebuild.chunk",
        "rebuild.chunk",
        "rebuild.chunk",
        "rebuild.chunk",
        "rebuild.chunk",
        "rebuild.chunk",
        "rebuild.done",
    ],
    alert_arc: &[
        (58, "degraded-service"),
        (351, ""),
        (352, "degraded-service"),
        (453, ""),
    ],
    resends_arc: &[],
    render_hash: 0x50419fea170d5343,
    frame_hashes: &[
        0xa3bf9c4a, 0xf26c3ab4, 0xfb3f8d99, 0x5989e2d7, 0xa91aaa8b, 0x0d3a6c87, 0x1a94ea36,
        0x7aa4dd97, 0x471e62de, 0xbdd097f0, 0xb3a10a62, 0xdd58e97b, 0xf2e2f753, 0x09960f56,
        0xe47f8540, 0xc7fd25de, 0x127aec2a, 0x8e5ced93, 0xdfe5cc4e, 0x511a2cf6, 0xc4ae7a67,
        0xb49e8e6b, 0x301fcec6, 0x19e65a5d, 0x4222327a, 0x32d4b40a, 0x0d3ffa3a, 0x6177479c,
        0xaf4f4173, 0xd0c1d037, 0xca59940c, 0xf1ce58f8, 0xb69ff754, 0xe8a4d808, 0x9623ba19,
        0xe64f50a0, 0x51677cba, 0x6c2472b3, 0xfae933e1, 0x41b577fe, 0x248a3852, 0x0f774b81,
        0xae79ef22, 0xf5bfe8a8, 0x92e8c518, 0x4b8eac71, 0x6367106c, 0xfa87b716, 0x9ac3f08a,
        0x8e739025, 0xa084f6b6, 0x76c68a0b, 0xd7320f44, 0x522d688f, 0x894157a8, 0xad5b5d1d,
        0x23b5ff91, 0x85e0e68e, 0x0e1ade84, 0xa2b8abc1, 0x822ec52d, 0x98031a96, 0xc40f7dad,
        0x334aa941, 0xd01e0e30, 0x0ec6da40, 0x76fad655, 0x107fa2f3, 0x65ab09ef, 0x960d5a52,
        0xb6ac6063, 0x4a8e372b, 0xe00ba16d, 0xa7d23c8b, 0xadd697d7, 0xa8172660, 0xb0c245ed,
        0x8de7f15f, 0xa564c4d1, 0xc212517a, 0x49418036, 0x042c2d15, 0xeeeb8b21, 0x2033bcbc,
        0x428403a1, 0x097470c6, 0xfc9e43e8, 0xd2f1b614, 0x59b52a25, 0x0f311df7, 0x8e46a45e,
        0xde36410e, 0xc42aebb1, 0x6d59702e, 0x6bc575df, 0x8e9cabb2, 0x663fc5f0, 0x1ee08036,
        0x099b084a, 0x339735d1, 0xb4883a08, 0xdf98cf57, 0x39f83926, 0x33f57a5c, 0x59427f5f,
        0xc9bda40c, 0x0264dded, 0x30cfb011, 0x9df09eb9, 0xe3069d15, 0x8c6a5b40, 0x0e35ce56,
        0xd48c398b, 0xcc6103e7, 0xaa9d4eb5, 0xb82a3976, 0xf8a3bc57, 0x3adbc428, 0x657fd2bc,
        0xf363aa99, 0xa4076a9f, 0x84b6b00d, 0xf92a64dc, 0x28577f5c, 0x1fd2e3c8, 0x31afeb9a,
        0xbbb2914f, 0x6274cf6c, 0x6758d52e, 0x10220bbd, 0x3cfbc01c, 0xb85bdbcb, 0xe501fc00,
        0x026c5b0c, 0xdbc0ce42, 0x1a336712, 0x7fdf9d3f, 0xd9333d08, 0xc2ad14fc, 0x58697c84,
        0xcb463bba, 0x25e53fc2, 0xe0e4a207, 0x6a097098, 0x6e2984d1, 0xa2a84c2e, 0x68c19a04,
        0xc56a18a1, 0x5837dc8b, 0xab83e2cd, 0xe2b57311, 0x76de11c1, 0x279d1219, 0xcf3b1c5f,
        0x466d736c, 0xe930b54d, 0xf13b8a8f, 0x71c99688, 0x7e3550b3, 0x942f2920, 0x65db4393,
        0x2fd96381, 0x42052f14, 0x995ed97e, 0xcf5e1c1f, 0x5dc7d12e, 0x430748a9, 0x62628a91,
        0x3613f5d3, 0x490e2855, 0x1ce42ef8, 0x88bf9d75, 0x2e257f00, 0x304b655f, 0xa6386269,
        0x6587577f, 0x114cac09, 0x53b90f9f, 0xdf23f2a5, 0x716556a2, 0x256617f4, 0x97972b19,
        0x98d4506d, 0x31294107, 0xf848b001, 0x7982f463, 0xa2910396, 0x764aa86b, 0xf4d369c3,
        0x683ac0b4, 0x6880e93d, 0x1cfc4644, 0xdd71de61, 0xe1d8acac, 0xad33d8c2, 0xa2916784,
        0xdaef50bc, 0x950f0c50, 0xa8805d00, 0xf8bace97, 0x2a75c492, 0x49047d47, 0x6ee9eddf,
        0x0641c793, 0x2eb352f2, 0x773d9b5f, 0x47b4a237, 0xcdf6513f, 0xd1a1439a, 0x02e39133,
        0xd979b878, 0xb5e9102c, 0x526a0ca9, 0x01db5529, 0xacd3035d, 0xc6e5b9b4, 0x391b758c,
        0x3b01d69d, 0xded5f99b, 0xec12b373, 0xe767e1e1, 0x2a8ec4b3, 0xd3e5a1be, 0x3bc75c36,
        0xc1387d16, 0x24bb7ed7, 0x46ba485f, 0x9362dafd, 0xf3b4ccae, 0xc38f01f0, 0xb7ef7f8c,
        0xb4da4e89, 0x6539208c, 0xbd2e2f2d, 0xb2485d43, 0xd470217e, 0xa0b49598, 0xe9028375,
        0x0a54af0c, 0x9577837d, 0xb704f05c, 0xd3f48f09, 0x4539dab4, 0xf11f3f42, 0xe6bef33f,
        0x301ae4fb, 0x3dc66dfa, 0x9025d93c, 0x49b0ce7e, 0x55149562, 0xb16fc7e1, 0x1b65d52e,
        0x62d6e5ed, 0xcb0c60f0, 0x9b9e6ae3, 0xe66fc7c1, 0x94f5ca5d, 0x5b334490, 0x3de0e7fb,
        0x70e87b5c, 0x3c0e186b, 0xc8b4c9bc, 0xfec4dac1, 0xadc23e14, 0x9606dad8, 0xaf686955,
        0xc8c92b2f, 0xe2f676f0, 0xe190377a, 0x6e35bcbc, 0xc2ff64b8, 0xbed31f09, 0x9dd51cfb,
        0x34774b3e, 0xa8d93023, 0x975f0a71, 0x1b0e5979, 0xdee54cdf, 0xfe2ec4c0, 0x5505754e,
        0x5b12cc11, 0x7e9469b6, 0xf2c77d28, 0xe71b0faa, 0x1120c2f0, 0xa753c200, 0x04165c70,
        0x608c6fc8, 0xbe6b0bae, 0x35707abb, 0xe5bc3dad, 0x16102f5f, 0x98d68d43, 0x34f7287c,
        0xb02e655a, 0xbf1af906, 0xe5c674a8, 0x6b3ddd17, 0x9b8a7363, 0xe59a32aa, 0x3239c84a,
        0xde08744f, 0x1759d11c, 0x898a959e, 0x7ab58c7e, 0xb57564cd, 0xca3bb959, 0x37d39edf,
        0x3630363a, 0x7eb55d9c, 0xce5b09a5, 0x4f3aec2d, 0x8acd7244, 0x0bda7ddc, 0x9f105247,
        0x2b06db03, 0x9d90ca4d, 0x0046afd3, 0x8a8ed67d, 0x2351288b, 0xe8e0bfbf, 0x28d104ee,
        0x97ea6706, 0x957b893f, 0x8d23e917, 0xb47a25fd, 0x1994220c, 0x25caa886, 0x06ecb71a,
        0x75e61541, 0xf9ed5fe6, 0xc17ef245, 0xce82916c, 0x40f4ebf7, 0xe1248b58, 0x60e237d3,
        0x3e9e722a, 0xd4e289cb, 0x0caff2f8, 0x8e7c07d7, 0x0fe05955, 0xcb245893, 0x22f72051,
        0xc86e2be6, 0xb082fc26, 0x40fc62ce, 0xd6c8dd91, 0x664961f2, 0x1a8fa7cb, 0x6f42e038,
        0x7883276a, 0x1daebeb2, 0xa022f750, 0xd84f0d2d, 0xd392b0f7, 0x72e6f6e0, 0x0cf15aff,
        0xccacd508, 0x9a30a5a9, 0xbf6ca63a, 0x8f688669, 0xd378b432, 0x0973c629, 0xfb7d6496,
        0x71fe64e1, 0x892dfc19, 0xcd78d8e9, 0xe769fda8, 0x89dfa757, 0x96bd64c7, 0x3c38966f,
        0x9245401e, 0xedc3d8ca, 0xd12e0a41, 0xfec833a5, 0xa821eb6f, 0x059ffe3c, 0xa72f08e6,
        0x7cb8cde2, 0x5eead181, 0x85724bbb, 0xc8453ab3, 0xb9d421f7, 0x9da859e8, 0x4f8b9b62,
        0x2ec8d2a9, 0xd1ecb61c, 0x8104611d, 0xc1f37b5c, 0x83024d0e, 0xc5ba5c0f, 0x44537eaf,
        0x04597821, 0x515da8a5, 0xd2054bbc, 0x906ce72a, 0xf2f4fd58, 0xc58c0d75, 0x0f15da98,
        0x0e6b64e2, 0x75b83b7e, 0xde628fa2, 0x8da06d50, 0xe5e248dc, 0x7ce06c6f, 0x43fc2dca,
        0x45a88860, 0xabe29416, 0xc0c75b22, 0xbdbb32aa, 0xdc9816fb, 0xa084cb9b, 0xde7a5894,
        0x922497a8, 0x6753a786, 0x48b8b99a, 0x64d5868c, 0x05518493, 0x66490c29, 0x32a3b8e5,
        0xf06c6c07, 0xbaedfbb9, 0x39052e58, 0x7bc1f72c, 0x11411ee5, 0xba0e17b7, 0xef13392c,
        0xb463317b, 0x1c27bfa1, 0x642dc54c, 0xe1769190, 0xd6b38f00, 0x06537ddb, 0x6e0e752d,
        0x982e41fd, 0x913abc13, 0xe9057eb5, 0xd64d576d, 0xfa92d4d0, 0x338d17aa, 0x2fe3d9f7,
        0x71bcc3c6, 0x8f8af011, 0xbcffe233, 0x95a97ef7, 0xdaf31083, 0x82d1ef02, 0x772b5526,
        0x1fe23b7c, 0x896e2198, 0x6bf9c949, 0xe1d268e5, 0x4c7147cd, 0x57a0db27, 0x2dacae12,
        0x24fc357c, 0xd912c21d, 0x35012e21, 0x51eb6696, 0x2fd1f985, 0xe6866180, 0x9fb01e00,
        0xdeea6faa, 0x9b843e56, 0xd4927544, 0x2be113ab, 0x5abd5886, 0xc72a4142, 0x93a6a456,
        0x60824eda, 0xe522b6e8, 0xbf9b048b, 0x5c9e08eb, 0x46202e2d, 0x87d562ae, 0x800c582b,
        0x8e90307a, 0x9734e70d, 0x62e9d4f5, 0x16926e11, 0xfd20b012, 0x86ae6261, 0x206831fa,
        0x5bd13ba1, 0x577a9827, 0x76731cec, 0xbab70ff1, 0xfb1b5aaa, 0x27277261, 0x4cd94556,
        0x7ca65fde, 0x5cbc1249, 0xa6365a92, 0x2ce00afe, 0x3112a619, 0x3b398b29, 0x1bfadbb7,
        0x1b765993, 0xbed205c4, 0x31bf5097, 0xebd72543, 0x15124636,
    ],
};

const CONTROL: Pinned = Pinned {
    server: ServerTelemetry {
        ops: 197,
        replays: 0,
        dedup_occupancy: 1,
        dedup_peak: 1,
        txns_begun: 65,
        txns_committed: 65,
        txns_aborted: 0,
        txns_in_doubt: 0,
        degraded_reads: 0,
        columns_lost: 0,
        lfs_resends: 0,
        rebuilds_started: 0,
        rebuilds_done: 0,
        rebuild_done_blocks: 0,
        rebuild_total_blocks: 0,
    },
    lfs: &[
        LfsRow {
            disk: DiskTelemetry {
                reads: 65,
                writes: 188,
                buffer_hits: 27,
                track_loads: 38,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3129000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 70,
            wal_checkpoints: 3,
            wal_ring_used: 16,
            wal_ring_capacity: 64,
            group_commit_width: 8,
            free_blocks: 65313,
            media_lost: false,
            crash_down: false,
            ops_served: 116,
            batches: 116,
            batched_ops: 116,
            batch_max: 1,
            queue_depth: 0,
            queue_depth_peak: 1,
            queue_waits: 116,
            queue_wait_nanos: 654835300,
            service_count: 116,
            service_p99_ns: 29360128,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 63,
                writes: 180,
                buffer_hits: 25,
                track_loads: 38,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3029000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 66,
            wal_checkpoints: 3,
            wal_ring_used: 10,
            wal_ring_capacity: 64,
            group_commit_width: 8,
            free_blocks: 65313,
            media_lost: false,
            crash_down: false,
            ops_served: 110,
            batches: 110,
            batched_ops: 110,
            batch_max: 1,
            queue_depth: 0,
            queue_depth_peak: 1,
            queue_waits: 110,
            queue_wait_nanos: 427764800,
            service_count: 110,
            service_p99_ns: 29360128,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 62,
                writes: 175,
                buffer_hits: 26,
                track_loads: 36,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 2919000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 64,
            wal_checkpoints: 3,
            wal_ring_used: 7,
            wal_ring_capacity: 64,
            group_commit_width: 8,
            free_blocks: 65314,
            media_lost: false,
            crash_down: false,
            ops_served: 108,
            batches: 108,
            batched_ops: 108,
            batch_max: 1,
            queue_depth: 0,
            queue_depth_peak: 1,
            queue_waits: 108,
            queue_wait_nanos: 373968000,
            service_count: 108,
            service_p99_ns: 29360128,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 62,
                writes: 175,
                buffer_hits: 25,
                track_loads: 37,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 2941000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 64,
            wal_checkpoints: 3,
            wal_ring_used: 7,
            wal_ring_capacity: 64,
            group_commit_width: 8,
            free_blocks: 65314,
            media_lost: false,
            crash_down: false,
            ops_served: 108,
            batches: 108,
            batched_ops: 108,
            batch_max: 1,
            queue_depth: 0,
            queue_depth_peak: 1,
            queue_waits: 108,
            queue_wait_nanos: 712698750,
            service_count: 108,
            service_p99_ns: 29360128,
        },
    ],
    events_dropped: 0,
    kernel: RunStats {
        events: 3253,
        messages: 1278,
        spawned: 10,
        bytes_sent: 602504,
        queue_high_water: 10,
        dispatches: 3253,
        syscalls: 4531,
        wakes_elided: 0,
        ready_peak: 10,
        end_time: SimTime::from_nanos(8827077750),
    },
    events: &[],
    alert_arc: &[],
    resends_arc: &[],
    render_hash: 0xcc512bed7d261b3e,
    frame_hashes: &[
        0xa3bf9c4a, 0xf26c3ab4, 0xfb3f8d99, 0x5989e2d7, 0xa91aaa8b, 0x0d3a6c87, 0x1a94ea36,
        0x7aa4dd97, 0x471e62de, 0xbdd097f0, 0xb3a10a62, 0xdd58e97b, 0xd58e4619, 0x9a30373a,
        0x4065269c, 0xd78f655a, 0x5541f6a7, 0xbda2b40d, 0xba52f93a, 0xacf6eba4, 0x43ce8b56,
        0xf44bc44c, 0x7b2f675c, 0xb732cd55, 0x985fef5b, 0x62374087, 0xa3c9030e, 0x6a73c93d,
        0x3d4b7f7e, 0xe5d2d022, 0xfe03e481, 0xf91a7348, 0xc3234b35, 0x0e877b62, 0x87c9d67e,
        0xfb5511be, 0x9b7e85ef, 0xca65f29b, 0x06d73fe1, 0xb6174bd3, 0x823b0aa9, 0xf7e54099,
        0x26105700, 0x3e3195da, 0x8c1b9c5a, 0x7c7c8acd, 0xc0e629c8, 0xfffe50b1, 0x4b7aa671,
        0x065adf05, 0x010b26bb, 0x3899b2d7, 0xeef573cd, 0xf58d57d3, 0xeb4f67b7, 0x621ba9ff,
        0xbc8ec364, 0xa52a872f, 0x14f4cf91, 0x2a6db9ab, 0x0efd393d, 0x596b78f7, 0x68d418db,
        0xf5a7c728, 0x9370da0f, 0xad284f46, 0xe828f8f0, 0x07a2f93c, 0xb2ebb797, 0x1410db8b,
        0xd95df69c, 0xfa381866, 0x65934eb9, 0x5c968b87, 0xe6180c5a, 0x0836220a, 0xfc423525,
        0x434b6f4c, 0xd53bf641, 0xded9b0eb, 0x6dde157c, 0x1aea98cd, 0xe96ffdcb, 0x4c42b732,
        0x18c0c07e, 0x32432270, 0x9ac9428b, 0xf20ba176, 0x46af05d8, 0x39d4990c, 0x99576260,
        0x0aa1554e, 0xdf5a452f, 0xae54076a, 0xb810c4c6, 0x49ccaca1, 0x971edfca, 0xc2b1579b,
        0xe8f5ad8a, 0xdbe4db75, 0x75dcce79, 0x702136cc, 0xd7e82db3, 0x873700c0, 0x768bc47e,
        0x4e3da019, 0xb212430d, 0xbd270815, 0x4e192e33, 0xdb3386f6, 0x84a45bf9, 0x1aac588c,
        0x6732375c, 0xa6ca22ec, 0x722a2b39, 0x6361b5f3, 0xe5322cc6, 0xdeacbb42, 0x4d0ed82f,
        0x83ebd97b, 0xd3940d23, 0xf83d97ec, 0xfa3a9791, 0x6f991f19, 0x736dfde9, 0x74bf5d2f,
        0x1d7e4264, 0x969714e5, 0xd0d11273, 0xcbd187bb, 0xa4973f6f, 0x085a9717, 0x5e75e7fa,
        0xe899b53b, 0xd9d10e28, 0x780341c9, 0x38393ea2, 0xb8bdbb77, 0xd01ca5ef, 0x0855874e,
        0x3a880ec7, 0x3b46ee2c, 0x6650d566, 0x4fe99339, 0x4acec119, 0x929889f6, 0x4532ed57,
        0x51539d97, 0xeb17a5f9, 0xef4c10fe, 0xe217f1dd, 0x6bf99ab4, 0xd2e6a3d4, 0x1a6be199,
        0xfb2dbc0a, 0xc8131555, 0x6552a3b3, 0x45e95437, 0x95051054, 0xb9978b02, 0x5a1e7c58,
        0x5283dfd7, 0x9a796e95, 0xea93f5f4, 0x4dd3b21d, 0x3ad9f799, 0x52316b0f, 0xe95d5f11,
        0xb73108cd, 0x996291be, 0xfadd318b, 0x841e711f, 0x4ffe99a6, 0xe87ddb38, 0x1ea7b250,
        0x2000d593, 0x683f2bb5, 0x37687ec0, 0xb2bb1937, 0x154cde74, 0x1b23d9ba, 0xa9c96842,
        0x7333b799, 0x44049ab1, 0xe2ac6b06, 0x2b3bde13, 0xae7948f9, 0x6ca3569f, 0x76117fcc,
        0x74cbb767, 0x960ee59d, 0x45365cfa, 0xfa23f82d, 0x5da09b06, 0x7449d27c, 0x64e2a1bc,
        0x69b8e5e7, 0x8996d90b, 0x8abea0fe, 0x43be7d8a, 0x69742640, 0x83242c6e, 0x2550f17e,
        0xde69a4fe, 0x0eef228e, 0xda3695f9, 0x90b656c4, 0x5624e5e3, 0xc7dc69df, 0x8d19b917,
        0x9ce78573, 0xf82c7672, 0xc594656b, 0x3ba5804d, 0x63ebae27, 0x0356c7d4, 0xd2064676,
        0x081bbb60, 0x34212690, 0x8aded7d5, 0x1f89fbed, 0x012dc978, 0xf8944735, 0x275360fe,
        0x824c04a9, 0x072a7b50, 0x4cf7b53e, 0x1096eae2, 0x35d18deb, 0xca2ceb49, 0x5839b00c,
        0x3cff2f3f, 0xda4fccd0, 0x5342cda7, 0xca6c0fea, 0x27b4f22b, 0xd5fd1739, 0x31b9f856,
        0x5b550a7d, 0x18f276ed, 0x4371d075, 0x6ffbf047, 0x9bcb67a2, 0xed21d546, 0xc27e94ac,
        0x73700601, 0x87168174, 0xfde03971, 0xaf8c4605, 0x5fa1d015, 0x115ddbe8, 0x805417aa,
        0x638c6312, 0xd090bb66, 0x4d66e1ac, 0x412574ad, 0x3dfdef76, 0x6981276d, 0x629ac60f,
        0xa4410968, 0xf5f8bcfa, 0xaa909b07, 0x9bf37242, 0xc2559671, 0x6f617d3d, 0xdaf5c941,
        0x38526871, 0x441c1ac7, 0x43b870f3, 0x98b68d36, 0xbe97aad4, 0x2604a0f1, 0xf6cb9230,
        0x4df43abb, 0xa7b5ba84, 0x9929dd5e, 0x3ef03cc6, 0x7d266349, 0x804f4bd7, 0x6432f427,
        0xcbb35d2a, 0x944db982, 0x47d25cd4, 0x35c0b918, 0x67618124, 0x3695053c, 0x0e4398ec,
        0xad65e94c, 0x6291cb74, 0xbf07e295, 0x12943ccc, 0x98d3cd71, 0xacf2e24b, 0xe611a8d5,
        0x69684c12, 0xddc68a21, 0x86f3f405, 0x91317eae, 0x0d165c5d, 0xc0c88af6, 0x82ec6cb3,
        0xa268f102, 0xc6b39c92, 0x967424c1, 0x7a0f2d1c, 0xf295b778, 0xb66ff426, 0xf9c7baa8,
        0xad14681a, 0x2f559cb6, 0x5c4f41d5, 0xa68d727e, 0xe10c3cf8, 0x7a7bdf74, 0x405fa130,
        0xbfa88b69, 0xb7d6fcdf, 0x6a0cb35b, 0x4faff406, 0xd8a01052, 0xb294d2f7, 0xb752b7db,
        0x7c8aa6b6, 0xd89a934a, 0x1f6b0483, 0xce316dba, 0xbf37460d, 0x651cb8a2, 0x28c284a7,
        0xce210e58, 0x2f09c201, 0xde4605b3, 0x78e33f01, 0xd28fe14e, 0x45522670, 0x13f2b191,
        0x1d35e89c, 0x3ecce3db, 0x00fde656, 0x38b343a6, 0x493592b4, 0x47fa3418, 0xd1279bc5,
        0xf643c594, 0xd625d3b7, 0xf23e9597, 0x0b6e6a07, 0xb3b3bf0b, 0x44968280, 0x92b879e0,
        0xaa107874, 0xa452c985, 0xf2d32ab9, 0x4779dbda, 0x61671e32, 0x181aa654, 0xe4c96aa3,
        0x22f1b714, 0x45f09a5c, 0xc6702ab2, 0x45c4805d, 0x1a685840, 0xc7b86812, 0x8119752f,
        0x31c2c1e0, 0x8f5d23a9, 0x5848d610, 0x919ecabc, 0x574d4c98, 0xf498ba21, 0x08523d62,
        0xc3234452, 0x9083712c, 0xf0228307, 0xacdb9714, 0x4162ca51, 0x3ea815a0, 0xb5f781c1,
        0x3e43287d, 0x1351aeff, 0x439dd924, 0x3e486635, 0xffdd0101, 0xf230a023, 0xdcc6724e,
        0x9d7b9cae, 0x7e39ef66, 0x96ebeb92, 0x36404911, 0x8aea3d13, 0x7ee21916, 0x548cdbbd,
        0x13060ca4, 0x554f0eb1, 0x236bf0c0, 0x75864b44, 0x810a47f8, 0xbcf3b5ca, 0x1ada2c48,
        0x16ad9158, 0x472e10e4, 0xf59d8ca2, 0x6c455b41, 0x3bbda281, 0x037d4b4d, 0xa8902350,
        0xe3a708ab, 0xc1033062, 0x556d998c, 0x66385adb, 0x6c78021c, 0x148ac5a3, 0xd4a0a6e7,
        0xf37ed807, 0x1eec11ae, 0x78439032, 0x4d4cc728, 0x9ec532f5, 0xd6901186, 0x2bf89b0a,
        0x0c97afb5, 0x92e491c4, 0xf64b792e, 0xa3307164, 0x20f9525b, 0x06c97422, 0x87e2901e,
        0x641fc946, 0x4cf156eb, 0xddf9beec, 0x7ecaa44f, 0x6d5e74c4, 0x730a75a8, 0xe1881b4a,
        0xd645a28c, 0x44cc4590, 0xca619d9a, 0x89e6333f, 0x9249ee75, 0x62a69be8, 0x29bb07b0,
        0x4e5dfa35,
    ],
};
