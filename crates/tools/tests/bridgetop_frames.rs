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
        replays: 9,
        dedup_occupancy: 72,
        dedup_peak: 89,
        txns_begun: 65,
        txns_committed: 65,
        txns_aborted: 0,
        txns_in_doubt: 0,
        degraded_reads: 16,
        columns_lost: 0,
        lfs_resends: 1,
        rebuilds_started: 1,
        rebuilds_done: 1,
        rebuild_done_blocks: 64,
        rebuild_total_blocks: 64,
    },
    lfs: &[
        LfsRow {
            disk: DiskTelemetry {
                reads: 135,
                writes: 232,
                buffer_hits: 74,
                track_loads: 61,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3929000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 70,
            wal_checkpoints: 4,
            wal_ring_used: 9,
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
            queue_wait_nanos: 99181800,
            service_count: 203,
            service_p99_ns: 62914560,
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
            ops_served: 111,
            batches: 102,
            batched_ops: 111,
            batch_max: 2,
            queue_depth: 0,
            queue_depth_peak: 2,
            queue_waits: 111,
            queue_wait_nanos: 45000000,
            service_count: 111,
            service_p99_ns: 62914560,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 131,
                writes: 206,
                buffer_hits: 73,
                track_loads: 58,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3623000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 64,
            wal_checkpoints: 3,
            wal_ring_used: 29,
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
            queue_wait_nanos: 108590900,
            service_count: 194,
            service_p99_ns: 62914560,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 131,
                writes: 206,
                buffer_hits: 73,
                track_loads: 58,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3623000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 64,
            wal_checkpoints: 3,
            wal_ring_used: 29,
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
            queue_wait_nanos: 108590900,
            service_count: 194,
            service_p99_ns: 62914560,
        },
    ],
    events_dropped: 0,
    kernel: RunStats {
        events: 4627,
        messages: 1961,
        spawned: 10,
        bytes_sent: 833443,
        queue_high_water: 10,
        dispatches: 4627,
        syscalls: 6588,
        wakes_elided: 1003,
        ready_peak: 12,
        end_time: SimTime::from_nanos(14843229400),
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
        (71, "degraded-service"),
        (490, ""),
        (491, "degraded-service"),
        (537, "degraded-service,stalled-rebuild"),
        (539, "degraded-service"),
        (564, "degraded-service,stalled-rebuild"),
        (569, "degraded-service"),
        (613, "degraded-service,stalled-rebuild"),
        (615, "degraded-service"),
        (640, "degraded-service,stalled-rebuild"),
        (645, "degraded-service"),
        (689, "degraded-service,stalled-rebuild"),
        (694, ""),
    ],
    resends_arc: &[(81, 1)],
    render_hash: 0xfa9ef65146b3ef2f,
    frame_hashes: &[
        0xa3bf9c4a, 0xf26c3ab4, 0xfb3f8d99, 0x5989e2d7, 0xa91aaa8b, 0x7db6984a, 0x1a94ea36,
        0x7aa4dd97, 0x0783cb97, 0xbc4f712e, 0xae526f74, 0x31005981, 0x3a112f44, 0xf4418afc,
        0xe24809fd, 0xb2f1f177, 0x8ba3b95e, 0x18f382a1, 0xf5ac3836, 0xe270167e, 0x7435a0da,
        0x1274e471, 0x5a9dae40, 0xc29ab647, 0x52edfe69, 0x11a7e8ea, 0x9b9083b3, 0x6db66405,
        0x204ccace, 0x31d57115, 0xe3c5ae24, 0x63e3fd8b, 0xea10b203, 0xccde785d, 0x6d5a24b7,
        0x2623dfe8, 0xd9f4ea54, 0xcfd4c763, 0x88839953, 0x454ff3f5, 0x09ceeb1c, 0x717a9b2c,
        0x4c6e8d17, 0x67e92c1c, 0xdd6d376a, 0x8b62b194, 0x95a2692d, 0x7fd0fa08, 0xc8905c02,
        0x95e27a94, 0x60c971b5, 0x4c4eb657, 0x85677a88, 0x9f339527, 0x4e57cda0, 0x71f888b5,
        0x2868de48, 0xe7076d92, 0x8b8bc7f0, 0x699edff9, 0x4f3e2fd3, 0xe68b1695, 0x40bf1d0e,
        0xe91d41cb, 0x922c88ba, 0x8ffd7622, 0xcb2c83b9, 0x6b7446e1, 0x66269ec3, 0xef3f8aa9,
        0x2c955709, 0xe6a23f4c, 0xa8534fb5, 0xf1fa0295, 0x4dd41703, 0x155940a6, 0x78011761,
        0x8b826e44, 0xc71db82b, 0x7a992daf, 0x21dc18a2, 0x232f47ba, 0x78fc30b4, 0x53a20eea,
        0xada9a8e8, 0x1e1c4cf4, 0xcc5a785f, 0xface85c9, 0xc7a9fcff, 0x7b28250a, 0x0b631da5,
        0xcf6a945c, 0x2cd34c43, 0xb7124554, 0x33115f52, 0x369e0e4b, 0x12de5c32, 0xdce6dc40,
        0xc574fbda, 0xf30e8ba3, 0xc2f691f4, 0xb9eedba0, 0x3561a5ed, 0x325b1c0e, 0xf47d9beb,
        0x29340060, 0x41b40c2d, 0x739f6704, 0xfe3b87d7, 0xfbbcd56f, 0x125be3ad, 0xc7676261,
        0x62fded6f, 0x58eddabd, 0xc0f6bd4c, 0xdb8f4847, 0xbfc86f60, 0x05fec94f, 0x95b2be6d,
        0x0ac1fea7, 0x20ec0b71, 0x5f3507d1, 0xb3861e35, 0xceee8547, 0x73f4ec99, 0xbe26c4b7,
        0x7ba5d698, 0xb1bb4dca, 0xfd577a07, 0xa93ee99b, 0x88e8a958, 0xb395cf96, 0x5d2b95a3,
        0xb49b8eeb, 0xd1e4977c, 0x8f394830, 0xd3296873, 0xec95edfa, 0x0278ae3c, 0x2111a1a2,
        0xdff5b93d, 0x8edfe1f2, 0xeaf6af6c, 0xbcad63ea, 0xb5b80be6, 0xeb138420, 0xa7b1fbfb,
        0x374bf4e6, 0x300ef260, 0xa6fea12f, 0x650a4219, 0x66e801a5, 0xfe692b36, 0x26c19ca3,
        0x6f5f9df6, 0x90e53c39, 0x48126b78, 0x59fdb9df, 0x5608475b, 0x875cb38b, 0xd2785995,
        0x1a2f87c7, 0x4b380e0c, 0x931b01c6, 0x86eca518, 0x2c464507, 0x0ac4942b, 0x5e361054,
        0x6b77e294, 0xd177e81f, 0x052c45f6, 0xc9d93600, 0xf7d365f6, 0xcffca298, 0x0fcdf780,
        0x3e791ee6, 0x25d05ba1, 0x85bffaf0, 0xb2a64f6a, 0xfe61dd4b, 0xecb0c0e6, 0xce2a84a2,
        0xf9433472, 0xca5c29bc, 0x53debffa, 0x737d622e, 0xce4a3e79, 0x903b520c, 0x663e16b4,
        0x682667ec, 0x2726f332, 0xbe0fdd39, 0x958ab794, 0xfb465448, 0x20011380, 0x665269f2,
        0x97ebb358, 0xc728bb9c, 0x30e448d2, 0xd18a9d3b, 0x28655542, 0x41a89703, 0x364a7b2a,
        0x412392e2, 0xc007ecc9, 0x3792ea23, 0xf5b6fd98, 0x32ab2f06, 0xb10ca2d6, 0x9b8c9868,
        0x8db1dcfd, 0x1137e78c, 0xbf26b218, 0xeece9416, 0x94e294f5, 0x567e28ad, 0xf0b96eed,
        0x294a37eb, 0x2c6e53d6, 0x49fef99a, 0x7cf491be, 0xe6be735f, 0x03231369, 0xa8af5e9e,
        0x7d036364, 0x4043ca84, 0x6a3a234b, 0xbb36b619, 0x19f13499, 0x1e520b54, 0x231a6419,
        0xc1c923bf, 0xc1f6f058, 0x8c905ccc, 0xb9fd3645, 0xcb326d4d, 0x60872446, 0x2b52a0b2,
        0x76149490, 0xb0effa29, 0xe4be70f1, 0x1def8488, 0xce36bc49, 0xd8f70c8e, 0x616cc31d,
        0x6cbbcafa, 0xec79f39a, 0x6d7d7ff5, 0xc9033304, 0x1347c43b, 0xb955b8fa, 0x57b1f1db,
        0xaaf58199, 0x612f3f4e, 0x3df401b0, 0xc17ec7aa, 0x170a45fa, 0x4327edab, 0x0e4c7a81,
        0xcc88dfc9, 0x532c0147, 0x5fe13dd1, 0x73cfa8f5, 0xc2925bf8, 0x2fe1d3b6, 0xec7d05f2,
        0xf26ec87d, 0x74ff3048, 0x76ce8321, 0x3d50c196, 0xa4de1ce9, 0xb6a246ba, 0xe912d694,
        0x4ba7e57d, 0x5a975b1d, 0x89266471, 0x91729ca0, 0x1208d8cb, 0xeaaf55cf, 0x9e9c229b,
        0x7fc48933, 0x7dfdae9b, 0xcb90f031, 0x019616ac, 0xe842d6fb, 0x4633eac1, 0xd1544bcc,
        0xa689995e, 0x256c28f4, 0xca28dbbb, 0x71400b62, 0x6df91ac2, 0x1ffd4a96, 0x612d2313,
        0xf715569e, 0x24106e8e, 0x6de3a93b, 0x80473e10, 0xf4d60bee, 0xf64a823f, 0x8a09baa0,
        0x3318b159, 0x0d4a2030, 0x523e2109, 0x65a1bf68, 0x07137e9e, 0xf20df8d3, 0x301d0ff9,
        0x479229b7, 0x284a9c5e, 0x9c2afb5e, 0x0355b039, 0x5119a15b, 0xe0fd7c1f, 0x11dca770,
        0xc6f9f597, 0xe006afb7, 0xdd73fdc0, 0x48bfbb32, 0x32d0c7f7, 0x11c059d2, 0xf75cce17,
        0xbd38e550, 0x53d5d54e, 0x7ec6b86f, 0x39d2fdba, 0x9d9d2658, 0x8e16d7fd, 0x91b2df21,
        0xa33f9b09, 0x0fdfde04, 0xc42961d6, 0xe81338aa, 0x0b66b708, 0x4b2f41b0, 0x7effed20,
        0x01716616, 0xf4391dec, 0x56e1e24f, 0x7afede84, 0x76b9222f, 0x35e128ac, 0x5e012ac2,
        0xc4adce79, 0xabe0c7ce, 0x9ce4599c, 0x9b0cf5ba, 0x8d23fd94, 0xcdb348d1, 0x6caa86b4,
        0x8f2de6c3, 0x4f67b953, 0x21ea0287, 0xf1e89c07, 0x97e5e101, 0x4b53a472, 0xba7c6b44,
        0x4c148faa, 0xc6054016, 0xa88ab8ad, 0x9848701c, 0xba2b6357, 0x0462af87, 0x0dd2162b,
        0xd960ca99, 0x6f4b6d19, 0xb7475787, 0x9a68595b, 0x8ad42c4c, 0xd27a97ed, 0x2bec3081,
        0x2b052a15, 0xe3b6e3ac, 0xbb2a1fc3, 0x9f87d2e0, 0x19548edb, 0x16508f0a, 0x70cafa60,
        0x87ae86db, 0xc0d82173, 0xf1db20c0, 0xf208c03f, 0x2fdabe6d, 0x42d1580f, 0x03dd25c7,
        0xe14a8986, 0x8fc6e6af, 0x6a7e291d, 0xa2bf04c9, 0x5c27541d, 0x1d9c3bfb, 0xa636741c,
        0x01448148, 0x301b8f63, 0x0b71fc70, 0xcc8ab192, 0x4bcf4db5, 0x6dfd62a5, 0xda59e791,
        0x370c2636, 0xf9a2686e, 0x5f5fe824, 0x14ac8403, 0xb565e33f, 0x98478caa, 0x4f61bdc4,
        0x189de935, 0x0b2d86f3, 0x58ce529a, 0x4a072b77, 0x114b3815, 0x5f2d2fe4, 0xbc72826f,
        0x21cfefe0, 0x26ceb9b0, 0xf9fec5ce, 0x61f2051c, 0xbabf5059, 0xb5a5e2ef, 0xf1f4cba5,
        0xb39f98a7, 0xbdb0f563, 0x9a70c711, 0x6a78724b, 0x4f98c991, 0x1c626cb9, 0x1cd8a970,
        0x2c78b187, 0xd40b22d7, 0x58a1a04b, 0x0ace86d8, 0x4e431ab6, 0x51e66b5b, 0x49c79efc,
        0x50ec493f, 0xaaa4a730, 0xab29316a, 0xf5ae0a3d, 0x088e12e4, 0x302f1b22, 0x253391c9,
        0x9e05312a, 0xa8c5d543, 0x54c88753, 0x570cd05b, 0x7295bb7d, 0x19d7039f, 0xe5c00df7,
        0x24ceee81, 0x6119c200, 0xbd9be354, 0x6831f13d, 0xc54ce969, 0xe98d7e71, 0xe0bdc369,
        0x71ed8c4c, 0x4aa9bdcf, 0x91d9fdb6, 0xa810ff3c, 0xff746f04, 0x3be6c0a2, 0xb8849725,
        0x1b7cb887, 0xf4b8a523, 0x087f4381, 0x80080d9d, 0x00dbfa98, 0x6a623c2e, 0x01a6f476,
        0x176a9e9a, 0x1b01cde5, 0xa25a53ba, 0x636f7e7b, 0x0efcb44a, 0x7d022316, 0x11a1d365,
        0x072ed9ed, 0x9174950f, 0x92a4e93a, 0x510cd9f8, 0x4f27fa89, 0xbb65ee90, 0x35751fa3,
        0x399edb38, 0x9b1db290, 0xa6561925, 0x5e505555, 0x97e4ec05, 0x246167df, 0x2ff96979,
        0x9b70672e, 0xaa638ba1, 0x2b23f5dc, 0xf22e6f1f, 0x1b2d64d7, 0xcfb80041, 0xe244d3d8,
        0xd3742335, 0x93967707, 0x009cc9f0, 0x69dc43dd, 0x2c897865, 0x683dbb20, 0xf5306837,
        0x6ef92906, 0xd89c5568, 0xea191787, 0xff6b341f, 0xf24cc0c4, 0x3f834562, 0x68c5a64d,
        0x7263b9f0, 0xfd9119b4, 0x2f31c9e2, 0xead6218b, 0x75591dba, 0x27afae9a, 0x2f12faa9,
        0x46eda959, 0x9130080f, 0x50b36e05, 0xbc2248bf, 0x4a656fdf, 0xd98f2a0a, 0x75f3c994,
        0xe7475147, 0xbfc823b8, 0x78595430, 0x48fc1d30, 0xa71e5fa9, 0x00920ead, 0xa379ea54,
        0x8351e75b, 0x7b306aef, 0x7d2aa873, 0x8bff6ab4, 0x959e16ff, 0xccfd3dcd, 0x9927fdcf,
        0x890221a6, 0x7e66b80f, 0xf28beb19, 0x679ef247, 0x625e0be1, 0x7b6b933f, 0x1fb6b961,
        0xdbe21c77, 0xf3df6a13, 0x05cd5d5e, 0x21aadb19, 0x082f217f, 0xf579f750, 0xb5acddbb,
        0x3ca7e2d6, 0xd2ad31f1, 0xe43efb4c, 0xdded8bf8, 0xa75f0ca6, 0xafafe181, 0x21fcc8f6,
        0x1dea1da4, 0x64b9c72e, 0xa17057dc, 0x386a93f7, 0x7f3795f6, 0xe3728c10, 0x998701c5,
        0x2a884d96, 0x27396e9a, 0xd473d6dc, 0x62b0da9d, 0xf43de6f8, 0xd2fe5aee, 0x7f562540,
        0x7bde51dc, 0x8199c095, 0x5c0f991a, 0x8a2db0a2, 0x1d278388, 0x31323bba, 0x4ba0b39d,
        0x3b481b3c, 0x4feca7b4, 0x7447b85b, 0x354bcf3a, 0x9bf310ab, 0x6b73210d, 0xd255ce15,
        0x2e33ca6e, 0x90c63a2d, 0x05e5c6bd, 0x128ab63a, 0x1a56baa3, 0x074dc483, 0x20595502,
        0xae3afe01, 0x6fe73869, 0xbecad4cb, 0xd29475bc, 0x7f37aa36, 0xc0f975af, 0x697bc6ae,
        0x690d170d, 0x1b81fa77, 0xf0805a74, 0xaeaa6caa, 0x56c9ba20, 0x9fd731f9, 0xa98c801d,
        0xbe04deb6, 0xd96e5e4b, 0xf60e2bb4, 0x809007eb, 0x4eec18ea, 0xfc93f25b, 0x2fec2f4c,
        0x8583d397, 0xe689cdee, 0x388c80cf, 0xab2ef402, 0x171753c2, 0x665c7ebd, 0x64f9230a,
        0xb7390acb, 0xd27c077a, 0xab40a2a1, 0x8f7673f1, 0x139b9604, 0x78cd12d2, 0x768c127c,
        0xe6e50640, 0x66cffbb1, 0x903ee702, 0x06524b16, 0xada71ab2, 0xfd858060, 0x03fcadd0,
        0x33a979dd, 0xb2cf31d8, 0xc2358f9b, 0xe44b324f, 0x760567e5, 0x00645461, 0x4e17163a,
        0xc5e15f8a, 0x133afb2b, 0x2cb35340, 0x3ec1aa47, 0xeefe3e35, 0xbc7d93df, 0xe239076a,
        0x18422d18, 0x32c1526a, 0xc5aa2f99, 0x27e9fcfb, 0xabcabe91, 0x5a39117c, 0xa3195cd7,
        0x1592bc6e, 0x6ef7e7cf, 0x54d2fcf7, 0xf33806a0, 0xd91e23f9, 0xef9d32a8, 0x4b59e80b,
        0x84e13b0d, 0xcc47414a, 0x814f4c25, 0xcdf78c6d, 0x6573f629, 0x5837636d, 0x7afdc348,
        0xb45092f1, 0x675c0fc1, 0x2ccd03a2, 0x37122d53, 0x9909b137, 0xf578913c, 0xe110476d,
        0x5b55d0e1, 0xd2072fa5, 0x6875c59d, 0x92562b7f, 0xbac5d7fd, 0x78d48e3f, 0x88de4ab3,
        0xf66e3e23, 0xb7243901, 0xa2266e32, 0x7c13d983, 0x45cfc909, 0x1a3a2475, 0xb3b6e0ef,
        0x54f9426b, 0x9b6f9f33, 0x406bc42e, 0xb598ce19, 0xde502b3e, 0x20ea0a59, 0x33970a3a,
        0x146dc8e3, 0x1da77665, 0xc510c31f, 0xd28ded93, 0xc4d0e138, 0x217da302, 0x69faa587,
        0x246a7169, 0x274b5b4e, 0x4d84f23b, 0x9b8ed3ad, 0x84f7f55b, 0x5b49100a, 0x563b9ea9,
        0x874c7438, 0xb88de9c6, 0xc7ba16d0, 0x377962fb, 0x828ecaf6, 0xa3657053, 0x99db86a4,
        0x3885c96c, 0xc1d09f9c, 0xcd93966c, 0x56937fa7, 0x6ff20927, 0x28b2fbab, 0x7605f990,
        0x8a82edb8, 0xbb25afad, 0x98322617, 0x70a944b8, 0x5eaf4c8e, 0x289700b7, 0xa29dc07f,
        0x72101ca5, 0x3e8a828f, 0xca1829ac, 0x8aa19196, 0xfcdc4cd8, 0xa3a817a1, 0xc324536c,
        0xd33165ce,
    ],
};

const CONTROL: Pinned = Pinned {
    server: ServerTelemetry {
        ops: 197,
        replays: 0,
        dedup_occupancy: 146,
        dedup_peak: 146,
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
                writes: 232,
                buffer_hits: 20,
                track_loads: 45,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3507000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 70,
            wal_checkpoints: 4,
            wal_ring_used: 9,
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
            queue_wait_nanos: 59181800,
            service_count: 116,
            service_p99_ns: 62914560,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 63,
                writes: 222,
                buffer_hits: 20,
                track_loads: 43,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3361000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 66,
            wal_checkpoints: 4,
            wal_ring_used: 1,
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
            queue_wait_nanos: 137182900,
            service_count: 110,
            service_p99_ns: 62914560,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 62,
                writes: 206,
                buffer_hits: 20,
                track_loads: 42,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3202000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 64,
            wal_checkpoints: 3,
            wal_ring_used: 29,
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
            queue_wait_nanos: 29590900,
            service_count: 108,
            service_p99_ns: 62914560,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 62,
                writes: 206,
                buffer_hits: 20,
                track_loads: 42,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 3202000000,
                lost: false,
            },
            wal_enabled: true,
            wal_commits: 64,
            wal_checkpoints: 3,
            wal_ring_used: 29,
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
            queue_wait_nanos: 68590900,
            service_count: 108,
            service_p99_ns: 62914560,
        },
    ],
    events_dropped: 0,
    kernel: RunStats {
        events: 3257,
        messages: 1278,
        spawned: 10,
        bytes_sent: 602504,
        queue_high_water: 10,
        dispatches: 3257,
        syscalls: 4535,
        wakes_elided: 0,
        ready_peak: 10,
        end_time: SimTime::from_nanos(11238536600),
    },
    events: &[],
    alert_arc: &[],
    resends_arc: &[],
    render_hash: 0xd1c792117870caf0,
    frame_hashes: &[
        0xa3bf9c4a, 0xf26c3ab4, 0xfb3f8d99, 0x5989e2d7, 0xa91aaa8b, 0x7db6984a, 0x1a94ea36,
        0x7aa4dd97, 0x0783cb97, 0xbc4f712e, 0xae526f74, 0x31005981, 0x43f44e1a, 0xac87bd42,
        0xa8d8c66a, 0xa3a7adef, 0xf8f7be98, 0xbf3521e9, 0x12fdd364, 0x4759db99, 0x00280e28,
        0xd33055b9, 0xaf679803, 0x524d1988, 0x089e815c, 0xf9445366, 0x1b875859, 0x4ef79fa9,
        0x57d62b5e, 0x346cc48c, 0xd040b1e7, 0xee041a07, 0xe2f7f343, 0xfdf77460, 0x8dd9171f,
        0x72a778bb, 0xead89d8f, 0x75986a7c, 0x14f29218, 0x49bafce6, 0xc61c573a, 0xc8361f05,
        0x042e3e83, 0x900ab950, 0x7d13d32e, 0x8e27cf82, 0x8f9123d3, 0xca5f36b7, 0x99290fb9,
        0x58cda0bb, 0x6cef3724, 0x9288e08a, 0x75a2aa58, 0xf276404b, 0xb2abf593, 0xbfb73b00,
        0xb4edcc63, 0xaf81d5e5, 0xbcf04cca, 0x68aee55f, 0xe9e42b08, 0x4fb37685, 0x15eada01,
        0xa0398db5, 0xafa44127, 0x633c4106, 0xe6af59af, 0x8718ec24, 0xe46da5c1, 0xb5051b59,
        0x268a0ab7, 0xecc8fe3b, 0x6ed76711, 0x6e12e88d, 0x1b1e9f37, 0x2d892299, 0xe03500c5,
        0xd03535a6, 0xfd349c00, 0x66263380, 0x608c928c, 0x66372ba4, 0x622fa377, 0x29ac7251,
        0x5a0ee301, 0x9374d90d, 0x7fb63580, 0x16d27cb6, 0x36bf51b5, 0x93c94bbc, 0x65c38819,
        0xdd892923, 0x06d06fad, 0x9dfb28d3, 0x5a6509e8, 0x4578c6e1, 0xc567c3a2, 0x54593d07,
        0x78da355b, 0x1ef844d7, 0x197074d1, 0xdefcb4fa, 0xa99bb502, 0x9902380c, 0x1121de69,
        0xeb342162, 0x87709fe3, 0xec02fb42, 0x87b62574, 0x7239eecd, 0xd42a5ebc, 0x9733587f,
        0xc2004f22, 0xeb246b63, 0x44c8f5cb, 0x50e33129, 0x32457b70, 0xb27305a9, 0x6e178b4f,
        0xc5c87239, 0x91a8c257, 0x062d7984, 0x5e390b12, 0x93d5d494, 0x108127b4, 0x5fa57957,
        0x525d3a1e, 0xeb034274, 0x0df5c4d0, 0x8fbb35b1, 0x645926bf, 0x6369ccf3, 0x5afbc867,
        0x9b21b19f, 0xcbeea13d, 0xa86f26b5, 0x38cba735, 0xdd665131, 0x897def20, 0x96bf85a1,
        0xbf87987d, 0x5391c0ae, 0xd4dab917, 0x0e7df564, 0x7b6069a3, 0x87049266, 0x83f9c3c2,
        0xe53294d8, 0x6a494f41, 0x3e10c7a5, 0x4dde0d66, 0xe490ed44, 0x9956ae5d, 0x9c1bed5a,
        0xb3966ba9, 0x8e79c1fc, 0x08799993, 0x2647dfde, 0x95121e35, 0xda0f9352, 0x6abb7049,
        0x731a0905, 0xb6858dfc, 0x73ce7f7a, 0xb7e1811d, 0x89ec6600, 0x64f62a9d, 0x566d730e,
        0x2843dfc5, 0xfd01b6b0, 0xd33b2c51, 0x30311215, 0x71ff8f83, 0x382d3705, 0x0bfde968,
        0x6a839412, 0x51aca26e, 0x79259233, 0xb81c3f7d, 0x91441248, 0x4a24e453, 0x67ea1031,
        0xed1ea02b, 0xbbe32b85, 0xf932c579, 0x92556c3b, 0x743e18b4, 0x719c7483, 0x4c76ad36,
        0xe3888209, 0x478deabc, 0x38a26f24, 0xecb4665d, 0xe508a0bf, 0xd7c3cda1, 0x72c36d4e,
        0x0824efc1, 0xa15062b8, 0xab757715, 0x240247e4, 0x98b8c9f9, 0x79f87d16, 0x42fdf51c,
        0xbc65c182, 0x359d1dcf, 0xe718a822, 0x7465102d, 0xf09b03a5, 0x5e9ed7da, 0x20a6574f,
        0xf3c30ef5, 0x3fd589e5, 0x247f2bd6, 0x089f3486, 0x55c5ab2f, 0x6ff9f23d, 0x5cd6f176,
        0x96282d3d, 0x898fccb0, 0xff2b60e2, 0xad8ed215, 0xead93f17, 0x78c66e60, 0xb4269f5d,
        0xb0581efa, 0xbb0310e6, 0x0742df9e, 0xdf6f73e0, 0x4b2d5cce, 0xc1213130, 0xbbfccbc5,
        0xfb138e28, 0x2a8b904e, 0x7c078b75, 0x389b3645, 0x84c7da7d, 0x5ed7f4d1, 0x99fbab0f,
        0x6876e324, 0x78075392, 0xf2f82e4b, 0x1473fd7e, 0xd3b77cd7, 0xa56b6d4f, 0x3e7f3769,
        0x53079cfe, 0xda30508c, 0x87a7fe49, 0x6c016b36, 0xe9fedd14, 0x7f5288a4, 0xd023ad0f,
        0x4bf8985c, 0xf788d0f3, 0xc2e2b75c, 0x2190e9d5, 0xc09a0349, 0x481fe047, 0x485a6fe6,
        0x5ce271c3, 0x308508a9, 0x6e7a6ad7, 0x4f8da425, 0x5c208290, 0x24944b40, 0xaac0d048,
        0x2aac57ff, 0xdeed60ad, 0x813c4ddd, 0x47e8f732, 0x9e05727b, 0xa898ee4b, 0x72cb5fe3,
        0xf69e099a, 0x6aa24e12, 0xed69a145, 0xececc878, 0x310c2ef8, 0xfb58f98b, 0x27813ef6,
        0x8db7ecb8, 0x4b45627d, 0x26805082, 0xc4a82c43, 0xbff5b813, 0x02d69c5b, 0x57b211dc,
        0xfc99688b, 0x3a49734e, 0x9a11a36c, 0x34602663, 0x100f107f, 0x188ed908, 0xb26cfec9,
        0x9b3efe29, 0x3e1ff947, 0x416d6589, 0x267f0a8e, 0x5d5eef50, 0x3b796613, 0x9b6e2113,
        0x1e641522, 0x92283aa1, 0x24f9b2fd, 0xfd642e3e, 0xa2fb8452, 0xbb4a1124, 0x5a2407e9,
        0x188a0ef0, 0x4ed875cf, 0x8cd70c2b, 0xaac2ed67, 0x8ad2f159, 0x6b255a84, 0x15f6a91b,
        0x91e08a62, 0x10d36164, 0xde987f1a, 0x75ccc72b, 0x82ce14f1, 0x6f4b1fbc, 0xe838901b,
        0x4685b3be, 0xd1d7ee60, 0x36c24d18, 0x5367c1b2, 0xc41a5da0, 0x47c9f398, 0x9d623554,
        0xa428bc31, 0x550c1362, 0xd504f5ea, 0xd28755b3, 0x4267e9a5, 0xa5ea6a5a, 0xf4f5b58b,
        0xeb192c59, 0xf7c318d4, 0x25467a98, 0xaa4da1cc, 0xdf7ebb4d, 0xe4b2a6dd, 0x86043d06,
        0x927769a6, 0xef2f3291, 0x0007ddc6, 0x6113bd8e, 0x3e2389d1, 0xeed5c5c4, 0x04cdd446,
        0xa661e48d, 0x20995bc8, 0xa1224e1f, 0x52b56e30, 0xe5ad1e1c, 0xc3f1946f, 0xf9ed76be,
        0x7ae7d896, 0x773f63c0, 0x575bf7f7, 0x4cf5cf0d, 0xa726227a, 0xe7192fb8, 0x9c1ff125,
        0x8fff68bd, 0x1869cf27, 0x36380209, 0xb15e7763, 0x72bffb3b, 0xe8f23cea, 0x0126fbee,
        0x3a501f40, 0x31d0edec, 0x5492844c, 0x98fb3409, 0x990b47c6, 0x807b3100, 0x3cac0bfc,
        0x2fb4a6d9, 0xa5a369ad, 0x0fded7f3, 0x15e52074, 0xc97069da, 0xc13b3a81, 0x37f3b16c,
        0xf0e5dbf0, 0xbe0d64d7, 0xe0d5c1e2, 0xe1d29b55, 0xcb056623, 0x1031b4ac, 0x761446f5,
        0xae99530a, 0x0e6f87eb, 0x2d809c32, 0x8f3f8c34, 0xb356d3cb, 0x07d6503b, 0xfdc96994,
        0x14966842, 0x72a64535, 0xe41be58a, 0x0e1df94c, 0x86d82402, 0x12e632e0, 0xa3ef8b9a,
        0x1b3e753d, 0x698c7d41, 0x1dafe0f1, 0x06023b1e, 0x11b48e0f, 0xaf26f2b6, 0x5e5fdf6a,
        0x5ad56b07, 0xd45cc62f, 0x7ad62882, 0x6039c4c3, 0xd0e6e9e9, 0x7a7e0966, 0x9110c34c,
        0xdfa8e10b, 0xbbbd85f9, 0x19b5e228, 0x8c590a45, 0xf602015e, 0x43557f8c, 0x2420357d,
        0x82a956f4, 0x3c221975, 0x06a0a90a, 0x95cd856f, 0xdc4ecb16, 0x24bfa1fa, 0x33a985e8,
        0x3fb95431, 0xbb914b70, 0xbed90ec7, 0x85567df2, 0x37d88ab4, 0xca79d957, 0xc3994ade,
        0x84d314a2, 0xcf0e3c80, 0x27122d50, 0xe288cc43, 0x4fcba976, 0x3cbb9892, 0x24a57908,
        0x24e2d86f, 0x1e7a68ec, 0x165e5a83, 0x50cc538c, 0x0352bee6, 0x219bbb3f, 0x4a4eff85,
        0xfac42fe6, 0xb3fae48c, 0x3b3bf816, 0x8563dcee, 0x697015ef, 0x0d034a23, 0x7e669bb7,
        0x84321bce, 0xfde86acf, 0xe64c03c2, 0xda114000, 0x1c746a9d, 0x0e17742a, 0x02496e82,
        0x6f7c0afb, 0x8b946454, 0xd6804414, 0xcb9527ca, 0xf365f215, 0x29daad61, 0xad584bfe,
        0x14214ebe, 0xf95badcc, 0xb78ffb6f, 0x5c49b59b, 0x9693216f, 0x6fbe42fe, 0xb9043cd4,
        0xab262a40, 0xfc408dc4, 0xb24cd09f, 0x1da56932, 0xe2fc1e37, 0xd2c8fb33, 0x2b8f74cd,
        0xc4803700, 0x6bce3a82, 0xee448d32, 0x927c8e58, 0xbeca076c, 0x331726ab, 0x4bf6bc8a,
        0xc26c95e3, 0x65e414d5, 0x22152c5c, 0xed15a89a, 0x6354a323, 0xb72d4c9d, 0x533708af,
        0x29a0f150, 0x8c4a8b2d, 0xd2c020fc, 0xdd6f1b83, 0x7eb8a837, 0xa02a3b94, 0xb7d11c24,
        0xf2680b24, 0x16142c41, 0x4d41845a, 0x22cc07ae, 0x3c2b9cf4, 0xc4b9be2e, 0xda11f45d,
        0xd4f167dd, 0xcf1fda07, 0xa4fe408a, 0x4616c4b7, 0xea816d82, 0xfffa06f7, 0x600b43ac,
        0x8c9ec687, 0x230a815e, 0x170d5094, 0x855ddf5d, 0x005ee937, 0x07d22b41, 0xd5afd5cb,
        0x70048e02, 0xc3a6bea0, 0xa2813cd9, 0x4ca3cc49, 0xd3d86bc0, 0xfe241b72, 0x9481d5f8,
        0x51ae2b6e, 0xad06b474, 0x75c31e32, 0xc460720c, 0xcef3ecbd, 0x8eefab77, 0x0e013536,
        0x5ce6e8a7, 0xe2ab8b13, 0x08c447cb, 0xe34e6fcc, 0x71aafbb7, 0xee124858, 0x9c7858fc,
        0x0a0ccb26, 0x19852bee, 0xb337cf13, 0x1954bb27, 0xdec2141d, 0xba49cc65, 0xd9e1388b,
        0x0b061bb7, 0xae9c0941,
    ],
};
