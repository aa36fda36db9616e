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
        replays: 8,
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
                reads: 135,
                writes: 188,
                buffer_hits: 81,
                track_loads: 54,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3551000000,
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
            ops_served: 203,
            batches: 195,
            batched_ops: 203,
            batch_max: 2,
            queue_depth: 0,
            queue_depth_peak: 2,
            queue_waits: 203,
            queue_wait_nanos: 690924300,
            service_count: 203,
            service_p99_ns: 29360128,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 53,
                writes: 65,
                buffer_hits: 26,
                track_loads: 27,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 1687000000,
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
            ops_served: 114,
            batches: 105,
            batched_ops: 114,
            batch_max: 2,
            queue_depth: 0,
            queue_depth_peak: 2,
            queue_waits: 114,
            queue_wait_nanos: 74181800,
            service_count: 114,
            service_p99_ns: 62914560,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 131,
                writes: 175,
                buffer_hits: 79,
                track_loads: 52,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3340000000,
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
            ops_served: 194,
            batches: 186,
            batched_ops: 194,
            batch_max: 2,
            queue_depth: 0,
            queue_depth_peak: 2,
            queue_waits: 194,
            queue_wait_nanos: 411909000,
            service_count: 194,
            service_p99_ns: 29360128,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 131,
                writes: 175,
                buffer_hits: 78,
                track_loads: 53,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3362000000,
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
            ops_served: 194,
            batches: 186,
            batched_ops: 194,
            batch_max: 2,
            queue_depth: 0,
            queue_depth_peak: 2,
            queue_waits: 194,
            queue_wait_nanos: 749610250,
            service_count: 194,
            service_p99_ns: 29360128,
        },
    ],
    events_dropped: 0,
    kernel: RunStats {
        events: 4627,
        messages: 1958,
        spawned: 10,
        bytes_sent: 832280,
        queue_high_water: 10,
        dispatches: 4627,
        syscalls: 6585,
        wakes_elided: 1002,
        ready_peak: 12,
        end_time: SimTime::from_nanos(12423697050),
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
        (369, ""),
        (370, "degraded-service"),
        (416, "degraded-service,stalled-rebuild"),
        (418, "degraded-service"),
        (443, "degraded-service,stalled-rebuild"),
        (448, "degraded-service"),
        (492, "degraded-service,stalled-rebuild"),
        (494, "degraded-service"),
        (519, "degraded-service,stalled-rebuild"),
        (524, "degraded-service"),
        (568, "degraded-service,stalled-rebuild"),
        (573, ""),
    ],
    resends_arc: &[],
    render_hash: 0xced61b6da4423598,
    frame_hashes: &[
        0xa3bf9c4a, 0xf26c3ab4, 0xfb3f8d99, 0x5989e2d7, 0xa91aaa8b, 0x7db6984a, 0x1a94ea36,
        0x7aa4dd97, 0x0783cb97, 0xbdd097f0, 0x2f5051dc, 0x08c37c67, 0xc5284c3b, 0x268e1f08,
        0xc26104e6, 0xea2edc94, 0xbdd98d82, 0x3e4743d8, 0xbeaac9f2, 0x2765e840, 0xd4531bdb,
        0x4d27cc8d, 0xeee9b2d1, 0x276bc4ea, 0x0c8986bf, 0xa80f4846, 0x64133616, 0xca4d50c8,
        0xf44fa22c, 0xcb73a81e, 0x0d283472, 0xe86d5da1, 0x0064e504, 0x6cd7a35d, 0x79362215,
        0x663143f3, 0x1b09560f, 0x117f9746, 0x5101ede1, 0x8d0bd060, 0xeb248369, 0x49aeeaaf,
        0x8b40c05e, 0x8299c5af, 0x59fc9bfd, 0xae8cf00d, 0x73a5f4d1, 0x896dc3dc, 0x14b93939,
        0x041a00a4, 0x3544837e, 0xbf8f6388, 0x8ee41360, 0x87056090, 0x5029c027, 0xd3fc67da,
        0x20b27e73, 0x9f743e86, 0x06f49564, 0x26216c70, 0x83f5ab09, 0x71a47215, 0xd03977ad,
        0xc4149d4f, 0xa84b8b91, 0x6daa7bc0, 0xa9d68675, 0xd1bfc9b7, 0x9a6253ef, 0x05f6f0f9,
        0xa2ebf2ad, 0x44c2e0cd, 0x6929615d, 0xae93c084, 0x224bc771, 0x638a6f0f, 0xe1c7b480,
        0x6c554f1b, 0xffdfddc1, 0xc5ccf73b, 0xccf76298, 0x175ebe5e, 0x77e5a0f2, 0x345fda32,
        0x604e5184, 0xadf31e37, 0x14c8aff4, 0xc00c7591, 0xc16da3c1, 0xf61fb82b, 0x1609fdb9,
        0xf380b46e, 0xe42d470d, 0x4acc3f89, 0xaa62eafc, 0x6d82f856, 0xca26add4, 0x7b903385,
        0x016eccd3, 0xb63ff413, 0x1b30b2b8, 0xd02bca17, 0x8d286a59, 0x6d4bf55b, 0xf0fd4f55,
        0xd48b6ff7, 0x1feb52aa, 0xb7ff3f42, 0x444cc3ff, 0xac2710b7, 0xc8dac651, 0x32885596,
        0xf2a3b520, 0x52da8e83, 0xff855a56, 0x26a9f437, 0x27824ed3, 0xac7d5292, 0x1d30ab5d,
        0xe47e244e, 0xaabb704a, 0x214f4549, 0x270e0f8e, 0x714f2f4f, 0x73b2fbef, 0x7ac3bcca,
        0xcaab0ea7, 0x47853f95, 0xc00d8554, 0x4fd0e83d, 0x8c39761b, 0x514a6d0e, 0x5a72dfd4,
        0x46e68d68, 0x875827ba, 0xf021ecaf, 0x44987e8d, 0x68bdad88, 0x93dc5787, 0x46075db6,
        0x0a8d4e4b, 0xbca15886, 0xdc0f7ec7, 0x60b690e9, 0x5922afd2, 0xbc87ab3c, 0x10af9573,
        0x0764b647, 0x0dc971ae, 0xff26abdf, 0x223aa9d6, 0x10c2dae4, 0x9d8bc72d, 0xcecba555,
        0x2b84a6b6, 0xb22231b1, 0x3cd73372, 0x9d8ee2c6, 0xd9490cd7, 0x5d101ecb, 0xe81c0ae3,
        0xd31c08b0, 0xdccfde0d, 0x0a8c7cc7, 0xac77336f, 0xf8979c99, 0xd6d905b6, 0x899ad806,
        0x9bee099e, 0xfe6f7556, 0xae531cde, 0xc37bdf6d, 0xacf2bec0, 0xa4b58746, 0xce88c0d3,
        0x76a52775, 0x65217daf, 0x4ca7a300, 0x07b21c4e, 0x49e671ff, 0x887aab92, 0xc8044149,
        0x88ec2224, 0xcd6ea0b2, 0x993c2238, 0x332cd4c2, 0x7973b43b, 0xa194f6a3, 0xf48b48cb,
        0x881632b3, 0x11e5c4d9, 0x2224c8c5, 0xf2fad964, 0x0443ab27, 0xf2128515, 0x3d33c693,
        0xb7f40e8b, 0x3abbe503, 0x273867ef, 0x1fa70e89, 0x5222d36c, 0x2b5f6b51, 0xb3059dc2,
        0xc960cfee, 0x1ebfb52a, 0xe7d787f3, 0x98b47e3b, 0x1639ab42, 0xc6d9ba9b, 0x85cad5d6,
        0xc49d23b6, 0xcfd354aa, 0x405482cd, 0xc9440c72, 0xcce1d78f, 0x87b3b7a7, 0xb8531161,
        0x1d2f06a8, 0xe657495a, 0x8a746c3d, 0xfb19c685, 0xdde02169, 0x40ca64f6, 0x02201571,
        0x6e981587, 0x80496982, 0xbaaea5a0, 0x42b8ad58, 0xb10d4dbd, 0x82005be4, 0x5d0e6bad,
        0xa241e1e7, 0xe36b0349, 0x031dfb1a, 0x38cd59f8, 0xc21fc400, 0x13e50a57, 0x02ea43d2,
        0x45e7aee2, 0x92f2b53e, 0xb11dd173, 0x9f8e2ebd, 0x5b3f27fe, 0x16b74d5c, 0xe7e213f9,
        0x08afbf41, 0xf152c503, 0xf69699a2, 0x9022feca, 0xe4a780f7, 0x9de1ee33, 0x47a9e3bf,
        0x86c819dd, 0xb8abef75, 0x92a2d3fc, 0xa866380d, 0x74e3de4f, 0xff307944, 0x493b62e9,
        0x9ceddc1d, 0x9b8dae74, 0x54654cf2, 0x0c6413fd, 0x3e6ab606, 0xf192a24e, 0xa703cb31,
        0x55a29535, 0xd87b4494, 0xc8b49991, 0x89961d94, 0xd2684aa1, 0x7006d561, 0x6e7d2736,
        0x25d1967d, 0x39f2b958, 0x114fef1e, 0xcd3b8a84, 0x016c8f72, 0x79015669, 0xca30371c,
        0x066f92d0, 0xce02d8e0, 0xf7eebc15, 0x1e1e9102, 0x22bc89a2, 0x20eee32c, 0x064d1b6d,
        0x646c4eda, 0x5c84ab34, 0x0d5f325e, 0x17f23dd8, 0x3be7b28d, 0xf8ee5787, 0x1354693c,
        0x47e95ba1, 0xa31bed1e, 0xeac5b3a4, 0x772ef78c, 0xe2dbc0c7, 0xec26a2ae, 0x6ec1de34,
        0xc114369c, 0x993f9c8f, 0x5e7f0070, 0x43a9920a, 0x3ea7b4bd, 0x98a2b823, 0x46569cb9,
        0x332aa106, 0x04402639, 0xd6ee6e3a, 0x031936ef, 0x0ec5de0a, 0xf2a1381a, 0x499a9ab0,
        0xce620186, 0xce2dc11e, 0xee19a10a, 0xed3946b1, 0x3df94dcc, 0x126b5a5c, 0xfc227804,
        0x44927b99, 0xf6120d1b, 0x163da318, 0x1a21d179, 0x3c972882, 0x1d150e0f, 0x0f00a875,
        0xceaea25a, 0xf59fb942, 0xd0fe18e7, 0x38967cd9, 0x6b64cd47, 0x1fbf3452, 0xee4e9307,
        0x477a7e73, 0x06515277, 0xf977d947, 0x32318f56, 0xbff35ae1, 0x499364a8, 0x8c9e099b,
        0x9886e16c, 0xc1a62814, 0xac87bb30, 0x272a5ae5, 0x01e98f39, 0x3cfbbfa6, 0x5e0024ff,
        0xe0ee2067, 0xfe778e1c, 0xfa0c3040, 0x087bbc64, 0x40190ec6, 0x8110d130, 0x7b5f0dd4,
        0xc560c281, 0x29177223, 0x8821ca74, 0xee87fdf7, 0x589ba4b1, 0xba90e5b2, 0xf417431f,
        0xca61a84a, 0xd41c528a, 0xc047a914, 0x4d029b8d, 0x3c2572a3, 0x347b0d0e, 0x15d6b5d0,
        0xd22099cc, 0xbccf6696, 0xc0204c3d, 0x277c53df, 0xeba7076e, 0xaeb10570, 0xb4637f0a,
        0x0432309a, 0xd1fc098e, 0x409f26cf, 0xc93322d5, 0x17c7aa37, 0xedce39f8, 0xfac20050,
        0x08cb2c09, 0x2b643e40, 0xffe035d6, 0xe988990f, 0xde207e65, 0xa3ff96e6, 0x2034e22a,
        0x38692de4, 0xa2d0ba13, 0x7b0debd9, 0xe14cadff, 0xa03e6d79, 0x946738d8, 0xcbfff0d5,
        0xf1802f6f, 0xf1194632, 0xa8d4e8cc, 0x9009e280, 0x955350a0, 0x9324bf09, 0x29de7b73,
        0xf5577173, 0x12c8947a, 0x1309444d, 0x2c31d61b, 0x04e77c7f, 0x15ba11dc, 0x431f0508,
        0xbfced945, 0xb914fd21, 0xb602c2d6, 0x6dddf315, 0xcfc57b54, 0xf0b93118, 0x0553495c,
        0x9e675152, 0xaea0872f, 0x678ac7a7, 0x34bf6d3a, 0x959d6c0f, 0xf03b6f97, 0xbadbee47,
        0x059a542d, 0xa2af224b, 0xdc5950be, 0x07587a97, 0x9b8a6dde, 0x84ccb789, 0xcd31ca17,
        0x32ec282b, 0x66da6215, 0x496422b1, 0xb60d8ec4, 0xc31fd8db, 0xd9e9e87d, 0xafab7d1f,
        0x6cab77a9, 0xd3d609c8, 0x4f02a54b, 0x25ca2fe5, 0xd009ccf4, 0xabecc99a, 0x0b037b36,
        0xde233c7a, 0x9ae20c90, 0xcb58be86, 0x986ae855, 0x1e3e6344, 0x2d29b738, 0xfbbef151,
        0x6ad47eaf, 0x14532c68, 0x1ce9a24a, 0xf2490a75, 0x2eb95e21, 0x982bcd1a, 0x00f39d63,
        0x8745a325, 0x95067142, 0x3a40e05c, 0xc4a5a72f, 0x3a93174c, 0x08f23b2f, 0x942f9668,
        0xf3262d91, 0x5d3bb695, 0x27b1c0f6, 0x5ac40b8f, 0x5a68c589, 0x7b04de72, 0x1df1cd59,
        0x9e9b0547, 0x5e8b170b, 0x6304fb62, 0x80344c99, 0x4ff1cc3d, 0x5b4ba7be, 0xb576ef26,
        0xa11b539f, 0x691d56fa, 0x69f56f81, 0x48c02ac7, 0x60cc29f7, 0x30278172, 0xd7cf98be,
        0xfdacebe8, 0x188865c3, 0x4f37ffa1, 0x447b95d8, 0xf9c1a772, 0x4fd3dd2f, 0xaf33e8d1,
        0xff4deb72, 0x52c3704d, 0x251300ed, 0x6af4fcc9, 0x09c24723, 0x7b70c00b, 0xe50ec68b,
        0x897bf49c, 0x5045b7a1, 0x61a90526, 0x27e78bd7, 0xfc5f293d, 0x15ac9f5b, 0xc45a00de,
        0x51157914, 0x3574cb98, 0x4782e959, 0xdf90c560, 0x9095381b, 0xd6c0e028, 0xd86124a7,
        0xb5307237, 0xbe2b7ab7, 0x0b22cf40, 0xb78e945d, 0x83053312, 0xd3ef7238, 0x6eefe91c,
        0x9ea32fda, 0x2ad8ec9f, 0xdd4c757e, 0x9d9422f2, 0x272e910b, 0x0ad950ea, 0xdae320b7,
        0x7e8a50d4, 0xbdd7f7fe, 0xe2a93df6, 0x06793ce7, 0xee069344, 0x2a20f693, 0x9bdd1ed4,
        0x19eedd83, 0xab8e8039, 0x575ff09e, 0x8ed831be, 0x2450b042, 0x8dd33f0d, 0x757ff334,
        0x338f1e1b, 0x7896934b, 0x06f902ce, 0xe449e604, 0x6f62ed86, 0xabc31ed1, 0x7c9e56fb,
        0x7786df26, 0x272d9076, 0xb4c8d614, 0x3003242a, 0x924f431b, 0xffd5b100, 0xc6d1114a,
        0x8fe7b71f, 0xa504799f, 0x2b7a8600, 0x1c03316c, 0x7b0ccbf3, 0xc6934a1e, 0x83e84368,
        0x822a263c, 0x9a0eef49, 0xf60ed55a, 0x79e14af8, 0xf085d950, 0x2849a05c, 0x7b96cc59,
        0x250c8ee7, 0xdbdd6d8a, 0xbb1e35b4, 0x53387f6b, 0x164990b2, 0x5a71e4a3, 0x9d042da7,
        0x209e46c0, 0x39f70aee, 0x9c3f313d, 0x3384dc49, 0x50939d01, 0xe19da352, 0x7a114ed0,
        0xea93d7c1, 0x9a9cf95a, 0xdcb248f1, 0x05f419d9, 0x60161e4f, 0x2dc2f169, 0x0c051757,
        0xd5a17298, 0x7d5db150, 0x2f1bf27b, 0x582e3283, 0xada988b8, 0xd0e1a92f, 0x6ad01a4e,
        0x18fd6aa4, 0x8ce5f057, 0x505c85be, 0xdd3bbd59, 0x34d7a2f5, 0xbd16e75b, 0xd386accf,
        0xc9f45c58, 0x0d63ebf8, 0x4ab19b83, 0xcd24f2d5, 0x2aeef45f, 0x701acec4, 0x82887e7f,
        0x7ec1d4d5, 0xfc7922b3, 0xc7519fe7, 0xb1acd8e5, 0x70f19e95, 0x5ec8ed69,
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
            queue_wait_nanos: 650924300,
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
            queue_wait_nanos: 425501000,
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
            queue_wait_nanos: 371909000,
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
            queue_wait_nanos: 709610250,
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
        end_time: SimTime::from_nanos(8829342650),
    },
    events: &[],
    alert_arc: &[],
    resends_arc: &[],
    render_hash: 0xb620d9e41c9091e4,
    frame_hashes: &[
        0xa3bf9c4a, 0xf26c3ab4, 0xfb3f8d99, 0x5989e2d7, 0xa91aaa8b, 0x7db6984a, 0x1a94ea36,
        0x7aa4dd97, 0x0783cb97, 0xbdd097f0, 0x2f5051dc, 0x08c37c67, 0xc314f426, 0x9ac1dcbf,
        0x96d82b0a, 0x240c1789, 0x4dd2c235, 0x67cf117c, 0x292b72d5, 0xda28a23f, 0x05e05a12,
        0x82e9a325, 0x1e8f093c, 0x37a1e3db, 0xe1c6eaa7, 0xa25cbf37, 0x261d61a3, 0xd7e30195,
        0x7f812e8f, 0xca33e55f, 0x0050b43b, 0x8dea7c01, 0x8eb3529f, 0xd14fffe6, 0x11f19da2,
        0xdd51ad05, 0x314e43e6, 0xe462a77e, 0xf0d0ac6c, 0x7c24f3d1, 0x021e0c30, 0x1884a6e7,
        0xdf07e045, 0x05496451, 0x2a36ba88, 0xdc620cd5, 0x70bbd11d, 0x627ccd34, 0xa34dde9c,
        0x82e91a88, 0xdbd50337, 0x7da6c05d, 0x9a6782d8, 0x755caa1a, 0xc1952c4c, 0x3a3e79cc,
        0xce542207, 0xd70aa51e, 0x08016c45, 0xcc8857a2, 0x517492aa, 0x99488864, 0x9a5711f0,
        0x39546083, 0xb73e0736, 0xd22d2f79, 0x60b8eff8, 0x4d241ff6, 0xdb81f1da, 0x46cc4d2e,
        0x7c96a543, 0xe34db107, 0xe4d7803a, 0x4e005826, 0xf3506384, 0x63fc6d3f, 0x9b8970ee,
        0x9bb76922, 0x4cc098eb, 0xb4372229, 0x2fe610fa, 0x8e61fc10, 0xfe0ad7e4, 0x5fc2022c,
        0x820d1979, 0x5e72df21, 0x3f79f2c6, 0x51d864ba, 0xa7afd309, 0x9a837b31, 0xee40f3d3,
        0x359a6e5e, 0xd54d4d5c, 0x4ec1372c, 0x1a5c0424, 0x9451598f, 0x78256e76, 0x73718571,
        0x0e4dc17a, 0x491b6068, 0xf076adcf, 0xd7a8d7b7, 0xd50a1a1e, 0x0234f93c, 0xbcb496fb,
        0xbb13da82, 0xccb0a3e4, 0xad23371d, 0xf4fcfa20, 0x5af37aac, 0x45724347, 0x98c33f23,
        0x53be740b, 0xa86e61db, 0x380639d9, 0x3a0c3114, 0x1c34f26d, 0x1aa6e2a0, 0xcffc556d,
        0x4e9973f4, 0xb9067a56, 0x6f553704, 0xb5c2a48c, 0xe09afc53, 0x10d4b754, 0x90ff06a1,
        0x88a8eebb, 0x53bdb0eb, 0x469c6d36, 0x1e594222, 0xb7bb53e1, 0x6d05c40b, 0xb079bf94,
        0xf9f4cebc, 0x72ea8a6e, 0xd6cb9ad8, 0x94f6f458, 0xfcd4eb34, 0x2c548f33, 0xfabd30a0,
        0x0d3bfe6b, 0x530002eb, 0x16fd9ece, 0xc1dd315c, 0xe75b9338, 0xf597e033, 0x6f987bff,
        0x2755d269, 0x7ef0051d, 0xe2bab3f6, 0xd36d6c13, 0xa0a52e6a, 0xa2c9ab8a, 0x4efef74b,
        0x1e4ec825, 0x14234b68, 0x3431a7e1, 0x689f2c72, 0x69d7317a, 0x55191567, 0xd4eef77a,
        0xab197705, 0xf13ad434, 0x38078a97, 0x0b6db310, 0x3688d8d7, 0xeebee0d1, 0xa31b7d0c,
        0xd35d4cd5, 0xbab07644, 0x3b4a0f2b, 0x173625b8, 0xa4f50888, 0x183aa784, 0x385441bf,
        0xfd0fa79a, 0x1aa7f64b, 0xfd35c765, 0x1335d15b, 0x7b92a957, 0x655f647a, 0x436b8f35,
        0x98746271, 0x36bae521, 0xf32fda0d, 0xf06528bb, 0xd6828500, 0x73f94caf, 0xabe1ec5a,
        0x57f48b07, 0x619e55af, 0x2f738408, 0x9ec6c564, 0x443babb6, 0x7ebe3f96, 0x69a7ccfe,
        0x2914c829, 0xa8165b26, 0xf59b7f08, 0x2a1462e5, 0x764f80ea, 0xf828d307, 0x357e6832,
        0x251efe10, 0x1a13df88, 0x6d42162a, 0xdf509c38, 0x3505cf57, 0xc1d21b17, 0xf3f019d5,
        0x30affe8b, 0xddeb475a, 0x03c88f17, 0x1c9eb3d5, 0x173680d1, 0xced55036, 0xfffb2694,
        0x084aedab, 0x90985dea, 0xf42141bf, 0xb70c2989, 0x9e8bac51, 0xb90d9625, 0x1eec07ad,
        0xa2998614, 0x87ca7035, 0x8dee163a, 0x57d111b1, 0x7b4c7469, 0x0e014b2b, 0x64a3441b,
        0xb62e2fb8, 0xe387e671, 0x8c7b0f9a, 0xbd18ba90, 0x51f97e73, 0x7d1f5985, 0xd3a63ab7,
        0x30209dd4, 0x4359ae09, 0x1276f24a, 0x66ccec46, 0x7cef4051, 0xdbcf619f, 0xa22f4f8b,
        0x54e81974, 0xb19836fc, 0xad33b0d8, 0x225045f8, 0x5a097ac3, 0xd96b502d, 0x24b94f08,
        0x241c3241, 0x37b250bc, 0x7594aed9, 0x85d61336, 0x600ff1d5, 0xb9e0c46b, 0x731a9504,
        0x8afdbded, 0xf79319d9, 0x6e2e6a38, 0xf2f44efe, 0xe0b027ac, 0xb701069b, 0x25ab1d6e,
        0x6c6c0a16, 0xc8682bbb, 0x0c9c739c, 0xde20e7a4, 0x78a73cc7, 0x3eb701f3, 0x559cad54,
        0x6766ce7e, 0x2d7746e2, 0xc584e3ce, 0xfbe8748f, 0x21a4eec2, 0x59451c41, 0x1a022136,
        0x49fdc491, 0x527ca45f, 0x5705560f, 0x42d02aa5, 0x6c04a589, 0xfb4c8e9f, 0x019e2d01,
        0x281c1917, 0x0079207c, 0x79ba6797, 0x0eafc4f8, 0x997fc01c, 0x21d6d67e, 0xadbf92d5,
        0x229731fc, 0xc701989e, 0x56cd8168, 0x4779e321, 0xe46fad74, 0xbcde35cf, 0x1ee34b58,
        0x7cb6ab58, 0x844c1fa2, 0x05aedb47, 0xb026e6b4, 0x45cf4e9d, 0xf2c4f9d4, 0x2940d84b,
        0x3b0f2427, 0x24c5007b, 0xb796e1d0, 0x30c4b3fa, 0xaa510477, 0x88c33d18, 0xe0114a93,
        0x8f1dd719, 0x63e21114, 0xb9e21a4d, 0x661db414, 0x1426bf80, 0xc679833c, 0x2dfea324,
        0x8ca8e7d1, 0x092980ee, 0x795bcb8f, 0xcc53c8b2, 0x29b17aca, 0xc0421ab5, 0x4ea581bd,
        0x2fb65a58, 0x6bcaa362, 0x5ce8c38a, 0x61c11964, 0xd48b4992, 0xc43ef8d5, 0x6b851763,
        0x84936807, 0xe3a0b55f, 0xbb49e1c5, 0x4dff3c51, 0x40391e72, 0x0c05bd7c, 0xe5ac1adf,
        0x5da4ae5a, 0xd9baf41c, 0xbacac5f4, 0xb8285035, 0x428f4ca0, 0xf869f6c9, 0x270f6df2,
        0x0f8b824f, 0xd52bd5c0, 0x7dbdab4a, 0xe93e8f44, 0xbf46e50f, 0x3c7a7b54, 0x1d45eb41,
        0x25c5b5e8, 0x4e68e2f0, 0x179a68ea, 0xbb75ceaf, 0x80f0aea9, 0xffddc33d, 0x727844ef,
        0x3cd90144, 0x347fed0d, 0xf386142c, 0xe4382633, 0x039b293e, 0xf78520b5, 0xf345b3bd,
        0xb804c976, 0x4585c12c, 0x5d550333, 0x521b0886, 0x7ae2c460, 0x009b1d91, 0xf69719fb,
        0x23890b16, 0x5fd4a2e6, 0x17b809a0, 0x72e6e591, 0xbcfbdb79, 0xc008adea, 0xc070deaa,
        0xfbbe9708, 0xa6f0ed13, 0x16b82d06, 0xf1d7350e, 0xf375bb87, 0xa176ca8e, 0xc7c68d73,
        0x08f3d993, 0x50aa674d, 0xcffe905b, 0x2cc34d14, 0xcaf253a6, 0xb387b0a6, 0x5e05a0c3,
        0xa43f5160, 0x1c8ab915, 0xd06ca5c6, 0xae10670f, 0x59014ff8, 0x407cb13e, 0x3a6adac0,
        0xb2a67aa2, 0x6a84e367, 0xd02ebc79, 0x55aea16e, 0xb9c181ce, 0x3887d11a, 0xedafce71,
        0x9fc0f3d8, 0xab55a76c, 0x8330826c, 0xbc0dd12b, 0x9e307d9b, 0x3f6cbc6e, 0xe8687ff2,
        0x88f4eb8c, 0xd4cb69f4, 0x42acf88c, 0xd1616416, 0xfbaeaceb, 0x263789e5, 0x445039f1,
        0xc11bd8c0, 0xdfa82265, 0x9728d2ce, 0x8d6bb951, 0x5f1ff594, 0x4031ae6d, 0xcb7b3e18,
        0x4801e592, 0x3c4575eb, 0x333c7f54, 0x134fff77, 0xf406e819, 0xbe40f953, 0x91310b6e,
        0x08f9069f,
    ],
};
