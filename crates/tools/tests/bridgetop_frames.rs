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
        replays: 18,
        dedup_occupancy: 72,
        dedup_peak: 84,
        txns_begun: 65,
        txns_committed: 65,
        txns_aborted: 0,
        txns_in_doubt: 0,
        degraded_reads: 16,
        columns_lost: 0,
        lfs_resends: 6,
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
                busy_nanos: 5189000000,
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
            queue_wait_nanos: 40000000,
            service_count: 203,
            service_p99_ns: 67108864,
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
                busy_nanos: 4703000000,
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
            queue_wait_nanos: 40000000,
            service_count: 194,
            service_p99_ns: 67108864,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 131,
                writes: 206,
                buffer_hits: 73,
                track_loads: 58,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 4703000000,
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
            queue_wait_nanos: 40000000,
            service_count: 194,
            service_p99_ns: 67108864,
        },
    ],
    events_dropped: 0,
    kernel: RunStats {
        events: 5063,
        messages: 1989,
        spawned: 10,
        bytes_sent: 839890,
        queue_high_water: 10,
        dispatches: 5063,
        syscalls: 7052,
        wakes_elided: 1021,
        ready_peak: 12,
        end_time: SimTime::from_nanos(17981012700),
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
        (90, "degraded-service"),
        (647, ""),
        (648, "degraded-service"),
        (694, "degraded-service,stalled-rebuild"),
        (696, "degraded-service"),
        (721, "degraded-service,stalled-rebuild"),
        (726, "degraded-service"),
        (770, "degraded-service,stalled-rebuild"),
        (772, "degraded-service"),
        (797, "degraded-service,stalled-rebuild"),
        (802, "degraded-service"),
        (845, "degraded-service,stalled-rebuild"),
        (851, ""),
    ],
    resends_arc: &[(99, 1), (163, 2), (179, 3), (267, 4), (433, 5), (457, 6)],
    render_hash: 0x3bc762d074b2e01f,
    frame_hashes: &[
        0xa3bf9c4a, 0xf26c3ab4, 0xfb3f8d99, 0x5989e2d7, 0xa91aaa8b, 0x7db6984a, 0x1a94ea36,
        0x2832e65d, 0x17da69d6, 0xd3df1e58, 0x5927871f, 0x5649d326, 0x5486819d, 0x0a448a4a,
        0x243b76f3, 0xb807d8de, 0x47a44bdb, 0x489c23f7, 0xd8f934f1, 0x5e5132a5, 0x3db47e24,
        0x4d35eb9e, 0x704b63a3, 0x5290ac85, 0x53acbaee, 0xa09312a0, 0x599e5bec, 0xc049e0e4,
        0x5f641e2b, 0xd052bc6f, 0xd7aec07d, 0x4ab40332, 0x3df7dd8e, 0xa8cfc5e2, 0xe299ad97,
        0xcef537de, 0x4904a220, 0x90e119de, 0x60c99069, 0xe8dddeee, 0x0f97ca0b, 0x7d4bc978,
        0x53be8705, 0x625ddf0a, 0x38fbc501, 0x629f8aa4, 0x74a620a6, 0xb52627af, 0x2db4b357,
        0x4b25022d, 0x4d4067d6, 0x7b3e68a8, 0x48ae8710, 0x829cf282, 0x14abf33d, 0x9b1d6c9b,
        0x48339f35, 0x63fb8f93, 0x0f15551a, 0x29690f07, 0x91705d5b, 0xaaba35e6, 0x8ffd4f77,
        0x4c839127, 0x1ad0d9b3, 0xb7ac216c, 0x35cdb89e, 0x1adbe111, 0xfa47365a, 0xa98ba3fd,
        0xdeef689d, 0x64836de8, 0xc457ceee, 0x22b82b81, 0x256ca5ff, 0xe85680b3, 0xf0ee7bac,
        0xacb8292a, 0xec179e70, 0x5baaa24e, 0x06555bf9, 0xa410abb7, 0x2386ebda, 0xf420a141,
        0xd9812f52, 0xacb6bd1d, 0x5dd42f40, 0x2f207284, 0x8ea5ef6c, 0xc6c00697, 0xa468a8f4,
        0x2acbd25b, 0x6b8851c5, 0x4c8c97da, 0x3a1042ef, 0xe41da954, 0x791c0829, 0x967c63aa,
        0xf8faa2df, 0xcb5fe909, 0x741a989b, 0x9983583f, 0x2a4db1f2, 0x4a5a8cb6, 0x330d0b4f,
        0x1803ca41, 0x652eaa60, 0xc53b8e5a, 0x696b52cb, 0xe3d41477, 0xb2e075f0, 0x1f938367,
        0x322d40de, 0xd2bd20aa, 0x6849bfbe, 0x944057b1, 0xa612f7fe, 0x093abadc, 0xcd1fac22,
        0x923c05a4, 0x2808a63b, 0xb6c82700, 0xa134a2c6, 0xf8d58b2c, 0x741193a5, 0x43b28f16,
        0x7dfb0e65, 0x99d7544f, 0x2b8074d8, 0xa7af8479, 0x45b1c73b, 0x6ea42882, 0xcf51f522,
        0x43fc21b7, 0x305b2a36, 0xd63b7d9e, 0xb84cd881, 0xc3e32a1b, 0x17f989a7, 0xfd3d7523,
        0xd88f93fa, 0x5d6a5ad6, 0x26af2ecc, 0x9101612f, 0x885a7e91, 0x237b677b, 0x4bb577c7,
        0xaeb68382, 0x65be8758, 0x3b6772f6, 0xe46cbe56, 0x00f08e3b, 0xd6d0a42b, 0xd5b8a362,
        0x9c7207f3, 0xa3ba227e, 0xa3a88ea2, 0x8074def3, 0x73b4076d, 0x561050b1, 0x84eb9bd7,
        0x8d7bbc31, 0x37cd8452, 0xb695c40e, 0x9cf90960, 0x4a257f94, 0x47e5e7b5, 0x0ec205e0,
        0xacd78bb7, 0x0336210e, 0xe7ba594d, 0x35b1fd65, 0x0eb26efe, 0x8cb7951f, 0x73f07780,
        0x32057f26, 0x5b138d08, 0x300205e3, 0x645b344d, 0xb93d4047, 0xd8c41094, 0x1a529904,
        0x6140623d, 0xb4c4ed50, 0x1e504b5b, 0x4f416c90, 0x7112e15e, 0x959f7773, 0x371e2b81,
        0x79f5c414, 0xa20123eb, 0xf169cdab, 0xc5517648, 0x7a75b7fc, 0xb3da00a1, 0xe2896798,
        0x069f7f3f, 0x78195731, 0x90871901, 0xee29b093, 0x0546cbfe, 0xfced1771, 0x1a8ca2f1,
        0xfd3e1bb9, 0x56c9bca7, 0xc8869f16, 0x203fdd0c, 0xb4112409, 0x27f6ea62, 0xe0d14f97,
        0x4aaa9ac0, 0x91b02f1e, 0x1e6c452b, 0x10dde586, 0x781cb4eb, 0x792e2733, 0x3fd858fc,
        0x4233ad82, 0xf500c334, 0xa07ab0d0, 0x96a117d9, 0xa320cba2, 0x9ecd014e, 0x303eb2ef,
        0xeb4d1697, 0x3ad5ff9a, 0x59b7e449, 0x48c1e639, 0x84367372, 0x6b0c32de, 0xc40002a3,
        0xfb2c165d, 0x163e492a, 0xec530946, 0xb1a03270, 0x9c6fdb92, 0x12507d9e, 0xb97016d3,
        0x18ccbaa7, 0x13225963, 0xb64c21a2, 0xd4d3a58c, 0x77ea9855, 0x938bfe7e, 0x408f36a0,
        0x8087656f, 0x39cf64a5, 0x2817a825, 0x4cac402d, 0xe624df0d, 0x70881127, 0x035a62e2,
        0x3cbb795e, 0x00e310b1, 0x8eb9c92d, 0xf9040bb4, 0xadf62619, 0x15e65d0c, 0xd2a27293,
        0x808cb9b2, 0xdcea46a2, 0x8b43ec70, 0x836a42ab, 0x5100a037, 0xee1a8739, 0xcf8fbf19,
        0x59b2e57d, 0x2136d994, 0xd9fa2f5a, 0xf88b9af9, 0x2bf5a711, 0x48ee8247, 0x166328d0,
        0x4917308b, 0x4979c690, 0xfa4b758c, 0x3657e055, 0x3edf442b, 0x755422a2, 0x501a81bb,
        0x5d988253, 0xe66eac14, 0x830ce649, 0x08f927e8, 0xd1833bc3, 0xd8bbe7a2, 0x4edc075a,
        0x3761ca87, 0xe3a5ce0f, 0x77bea8ae, 0xba3fd5da, 0x540d372d, 0x3bb577fd, 0x76c13fbd,
        0x04a8cc4e, 0xd4abfa2c, 0x32cc944c, 0xf725b4a3, 0x61951e5a, 0xcfd195ab, 0x157551d9,
        0x3589ab2f, 0xe640179e, 0x130608d4, 0x0013ec78, 0x04e48b8f, 0x381cb66a, 0xc9f530d1,
        0xb0601f0a, 0xaf246b1f, 0x07cc18a2, 0xe8f9b104, 0x352e32ff, 0x297b87f9, 0x18e82a16,
        0x9562f928, 0x7857e9ad, 0xf0a6500a, 0x98997447, 0x89145bec, 0x50c90fec, 0xc7366f01,
        0xb3c79791, 0x65f24922, 0xe5181159, 0x256e2503, 0x957ceab8, 0xaef6dda3, 0xa6af2ced,
        0x6d41cd13, 0x93d1ea08, 0x46d9e2d6, 0x03874edb, 0x5d40d3fe, 0xfc3877ee, 0x9befea11,
        0x49d0b6a0, 0xf558cf96, 0x88b43906, 0x45e5a46d, 0x5539d6e6, 0xe03d5820, 0x267ccac8,
        0x4be4657b, 0x799fd821, 0xf2651f36, 0x952d5153, 0xe36bb028, 0x19a4285a, 0x8ae42263,
        0x360d2e31, 0x0eba144e, 0x5b5486a7, 0x393ff93b, 0xc1f2efcb, 0xad3f4c41, 0x532f23e0,
        0x3590be17, 0xb7a5246c, 0x45296698, 0xa99b4874, 0x9c1880a7, 0x8232ba2a, 0x85cdd469,
        0x65d5d781, 0x774f09b8, 0x718eb8de, 0xe981fac2, 0xf192f8a8, 0x9a6b3d16, 0x077316bf,
        0xec35b695, 0x515aa394, 0x3606bb9c, 0x6d78a691, 0xa54d3948, 0x258b4fd1, 0x15d54a64,
        0xa0c52fae, 0x932bad74, 0x03e73223, 0x4ff46926, 0x175047ef, 0x3ae880f7, 0x2b46f59a,
        0xb46111bf, 0x56e7e789, 0xfbf389b4, 0xd51ca71c, 0xf35dbe87, 0xcbad0c39, 0x9b6847fd,
        0xfd7dd034, 0x1cbc8703, 0x236587c5, 0x048cc184, 0xe0834ae8, 0xd5c5dabb, 0x9f3ce3ea,
        0x573ebbfa, 0x40ab40a0, 0xbc412f73, 0x462a3b31, 0xc03f8dad, 0x09f6dfc6, 0x30f88ae4,
        0xd36bfdc8, 0x5646935e, 0x2d064343, 0xe2c808fb, 0x67d0456a, 0x16c38de9, 0xb7fc5ebc,
        0x55a9eff7, 0x20f1f3ab, 0x9e558b01, 0x2b021b4c, 0x2d876efa, 0xaa7e4ee7, 0x9264e53f,
        0x00646ecf, 0x9b7eda0f, 0xb23d69e2, 0x56731cf8, 0x252aa996, 0xeae8a360, 0x2a8d9eb8,
        0x2b6c7fb7, 0x1efc2add, 0xe8a40b4f, 0x3ec060c6, 0x58427398, 0x0fe93c02, 0x4caddcd3,
        0x0ab4e294, 0x77fbc992, 0x7b88830d, 0xe1429749, 0x8ff89bfc, 0xd7882737, 0xfb09f825,
        0x92b59a7f, 0xd1d99448, 0xa9f6ac98, 0x4603b0ca, 0xb72f982e, 0x74627209, 0x3e87321a,
        0xb55f9501, 0xcb018615, 0x0c303cad, 0xbd4a6f24, 0x719c21d4, 0x646ccdf6, 0x8d2d015d,
        0x1a01fed6, 0x7c2c1361, 0x7ae1d9de, 0x3dd7953d, 0x24a9a5b8, 0x68519976, 0x7bb9a35a,
        0x4f16e723, 0xb71a6f61, 0xa20b6674, 0xdce4d31e, 0x5199bf56, 0x74247b83, 0x5831e2a8,
        0x96f89462, 0xb4f59d5f, 0xa554ab96, 0xde981a1a, 0x777e24c2, 0x371e507c, 0x2c58a063,
        0x062ff7ea, 0x0192da31, 0x5e004fbf, 0xb21b1a3b, 0x85dcd182, 0x119f13fa, 0xdf5f471c,
        0xfdd63d5f, 0xd70cf65c, 0x95258f52, 0x1be56695, 0x2a8885a7, 0xd101222f, 0x4afe1624,
        0xf537a0e6, 0x41362d4f, 0xa3ed2303, 0xeb9937c6, 0x78d72f17, 0x65ca27d9, 0x0892aa33,
        0xa0a7b71e, 0xf04751f7, 0x33e9a5ba, 0x84b9a04a, 0x7ba07dd6, 0xb9c77a66, 0x4bf160c7,
        0xd30252c9, 0x723f802c, 0x2e427326, 0x59d9aeea, 0xd9fa1510, 0x764c92ac, 0xdeec0cc8,
        0x4e56ff5d, 0xbbce4f0a, 0x66f81429, 0x96ed46f6, 0x5b77d02b, 0x2ff04f11, 0x1a670405,
        0xbdf8a7ea, 0xd688528d, 0xaa21f883, 0xc39ecc1c, 0x9a70de5e, 0xb7943f90, 0xe0c0a198,
        0xfaf823fa, 0x5963dc0f, 0x16ee181c, 0x24f48e15, 0xc4e0d286, 0x54bc4f96, 0xb30c2bd2,
        0x2ee10228, 0x408ca6a3, 0xf97da275, 0xd02f038f, 0x141f40b5, 0x4c066ad7, 0x6cd37f18,
        0xa3a006c1, 0x4bfb6c73, 0x8bdaef69, 0x749c83fe, 0xfd0b58fa, 0xd3c9d762, 0xd72c1495,
        0x151ce84d, 0x2438f202, 0x11a3a617, 0x7da2b8fb, 0x99d888df, 0x294ecc5c, 0x3644146b,
        0xe90e0a96, 0xa7a070a6, 0x98ccd02c, 0x680c4597, 0x1cfb436f, 0x6b4f9ea2, 0xabd2de54,
        0x39868aeb, 0xfdd13c4a, 0xcd5c1192, 0x5ba35011, 0xaf4d39dd, 0x5d51611d, 0x5c125923,
        0xc0195ec6, 0x1b56a0eb, 0x38874ec4, 0x968eb6e6, 0x7eed7ac9, 0x8a69ab32, 0x859c6272,
        0xcb18e3e2, 0xf5f97512, 0x59c32486, 0x2588a2d9, 0x44bc8b92, 0x40e10a51, 0x904dc212,
        0x847d1daf, 0xcfc65c38, 0x65b6dc6e, 0x1e68d10b, 0xec587f4e, 0x85475aab, 0xc2131949,
        0xe53455e2, 0x8272420d, 0x48415785, 0xec1ea56e, 0x0f4eede6, 0x609d2644, 0xf2b84f56,
        0xb9f6e6e6, 0xcb94dab1, 0x53716c85, 0x6ba34612, 0xed4e2729, 0x11dc8210, 0x0688f9f3,
        0x6decadbb, 0x243da70d, 0x7fd080d6, 0x5495aec0, 0x3d7c0837, 0x7f9790a1, 0x94aa41d1,
        0xdb7c86a4, 0x1b51dbb9, 0x5abdd3c6, 0x5a1d7a25, 0xbb2a8f21, 0x23d47d4d, 0x6908fe15,
        0x14d609d1, 0x42050985, 0x4bdd5637, 0x6b777cb8, 0x57a4239b, 0xa66a73b4, 0x02a9d8b5,
        0x56e433fb, 0x739a8286, 0x847346b2, 0x1c5e9093, 0x12b7968c, 0x75970ee4, 0x759802f4,
        0x8c6a270d, 0xd86982a8, 0x86381518, 0x8f05915f, 0x260f51c8, 0x326f7faa, 0x2d9d903d,
        0xc2cf685c, 0x481d4b31, 0x5a495663, 0xe499432c, 0x719d6a7e, 0x9681a261, 0xab48a931,
        0x6602f72e, 0x277bbff6, 0x46496ec1, 0xbf4c6f0c, 0x020166aa, 0x5b592e2c, 0xb525f197,
        0x35812ff7, 0xd98cf585, 0xfdbfe0a3, 0xfb4d5b28, 0x06f0eb00, 0x3179517a, 0xe6d587c9,
        0x0979ea63, 0x2677e931, 0x569abd0a, 0xc8c36fb3, 0xd5d78ac5, 0x6576c3fe, 0x36c87da7,
        0x5963d6b2, 0xb9d0f269, 0x1d71cf2f, 0xf55646e5, 0xa5ff2a64, 0xf9828ccb, 0x777b0451,
        0xfee9932e, 0x57c29fc3, 0x4f3605e2, 0xfd1a0833, 0xc103d797, 0x5bae6a6b, 0xca220793,
        0xb00da5f0, 0x5e8beb2d, 0xe0688a62, 0xee27d708, 0x233080b6, 0xe27b10e8, 0xba8acf67,
        0x677189ca, 0x2c1d764c, 0x2fc82b5a, 0x298dced9, 0xc3e446c9, 0x7d4e5f77, 0x287d3bc8,
        0xc2641300, 0x6d8bb8d3, 0xf7f1843e, 0x386baada, 0xd518e336, 0x75122601, 0x6d7e6e6c,
        0x4521de91, 0xa92b1c3c, 0x204b10a4, 0x7b5d9ae8, 0x5e08ba80, 0x079d170d, 0xeaaf7fa2,
        0x30517a89, 0x8199a10d, 0x29a96384, 0x531aa268, 0x940a53fc, 0x5c18b758, 0x34c23769,
        0xa9863c57, 0x0bb68323, 0x6f0855c0, 0xa49d2dd0, 0xae70569e, 0x7197c1b6, 0x7f8fc62c,
        0x523836a8, 0xf40f591a, 0x6f07cbee, 0xcbb233fd, 0xf5a20307, 0x9f4e60c4, 0x3e509ce4,
        0x49c95fa4, 0xa1440e08, 0xcb08e98b, 0xdf9c59ed, 0xeba60096, 0x8d2449d0, 0x5a139f37,
        0xab7a8f15, 0x69638b94, 0x634f3db4, 0xe0d7e78a, 0x4f178e6e, 0xbed0f031, 0x9382b589,
        0xbd28b74f, 0xebd50968, 0x464c5b70, 0xb4c599db, 0xe8361274, 0xb2472803, 0x3d29b44d,
        0x6d1d7e9a, 0x410c2b49, 0xa93c7c9a, 0x60b7c057, 0x1873713e, 0x8665a122, 0x1fbcf564,
        0x4680eb6d, 0x7e376ee9, 0x15710a3e, 0xdb5ac682, 0x14fdef57, 0x4d253237, 0xe0154206,
        0x2754d689, 0x1675b784, 0x9ffe38de, 0x290c9e16, 0x1b8631cc, 0x2b515b35, 0x31d0e65d,
        0x5d409cba, 0x45b19ec6, 0x6097ba10, 0x75faf63d, 0x3d7bbfa9, 0x43c358d7, 0xcd69732f,
        0x1b83c1f9, 0x251ea57d, 0xd389a411, 0x9cf17966, 0x22d73910, 0x834c1282, 0xc4673735,
        0xd5aad23d, 0xdb8dcc66, 0x524d4899, 0xb5279427, 0x317edbb3, 0x4704e497, 0x8d857a11,
        0xeca7a148, 0x95d02a03, 0x01e4c818, 0xdf1bd322, 0x40475e01, 0xa36df86c, 0x3562570a,
        0x3f7e6299, 0x632e5fa4, 0x76f2b8c7, 0x92d45095, 0xdd3fa6dd, 0x2db93311, 0xac098492,
        0x1ae376ab, 0x7edd5383, 0x857d1c40, 0x2bb20d70, 0xa427fc31, 0xa9ed8938, 0xf8fd97f5,
        0x6f0a26ae, 0xa2894c79, 0x18491702, 0x4133991f, 0x2176cec9, 0xf80089e3, 0x46d5cd36,
        0xcdcf3bba, 0x5769497e, 0x4a5261a4, 0xcb4b7327, 0xcb27da0a, 0x452f1568, 0xf1c184e2,
        0x87f72e47, 0x8831e1e6, 0x58af277d, 0x81042329, 0xda9604ce, 0x180203c3, 0x78344af2,
        0xd7121efd, 0xd30081d8, 0x1a263ca3, 0xd1ee0c7b, 0xa1d0752b, 0xe9a5a634, 0x94cb50d8,
        0x0b0bfcc7, 0x307c4fbc, 0x06b9f7bc, 0x99ec005e, 0x92ddb207, 0x31db1106, 0x025c6124,
        0xce90e6aa, 0x0d8b2a7d, 0xf12507b8, 0xc0490f5d, 0x3ad36796, 0x4eb955c2, 0xb8612951,
        0xef36acd5, 0x320f70ea, 0x80639f4b, 0x19653a0b, 0x5486097d, 0x8fd260c3, 0xe88ad87e,
        0xd5d466d1, 0x30b9ceb7, 0x5a1cc107, 0xc4e7b64d, 0x8f9661f1, 0x8303cd98, 0x138dce38,
        0x656ffb91, 0x181e4884, 0x0d2aecf0, 0xde6231bb, 0xe5016671, 0x374b5d35, 0x44fe0a54,
        0x94368e5e, 0x8cd417af, 0xd62cf284, 0x2adfb7c2, 0x237156f6, 0xf78d5644, 0xbdd095fa,
        0x54094be0, 0xce4c657b, 0xdb6a1422, 0xd7faa3b7, 0x98f39164, 0xb23e1325, 0x8d88251a,
        0xae958737, 0xf228dfdd, 0xe9f77384, 0x6d9dc786, 0x5e664214, 0x2cced883, 0x770949fa,
        0x4823a64f, 0xae35951a, 0x0bedc009, 0x37597c18,
    ],
};

const CONTROL: Pinned = Pinned {
    server: ServerTelemetry {
        ops: 197,
        replays: 0,
        dedup_occupancy: 143,
        dedup_peak: 143,
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
                busy_nanos: 4767000000,
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
            queue_wait_nanos: 0,
            service_count: 116,
            service_p99_ns: 67108864,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 63,
                writes: 222,
                buffer_hits: 20,
                track_loads: 43,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 4561000000,
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
            queue_wait_nanos: 0,
            service_count: 110,
            service_p99_ns: 67108864,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 62,
                writes: 206,
                buffer_hits: 20,
                track_loads: 42,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 4282000000,
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
            queue_wait_nanos: 0,
            service_count: 108,
            service_p99_ns: 67108864,
        },
        LfsRow {
            disk: DiskTelemetry {
                reads: 62,
                writes: 206,
                buffer_hits: 20,
                track_loads: 42,
                head_travel: 0,
                transient_faults: 0,
                busy_nanos: 4282000000,
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
            queue_wait_nanos: 0,
            service_count: 108,
            service_p99_ns: 67108864,
        },
    ],
    events_dropped: 0,
    kernel: RunStats {
        events: 3753,
        messages: 1278,
        spawned: 10,
        bytes_sent: 602504,
        queue_high_water: 10,
        dispatches: 3753,
        syscalls: 5031,
        wakes_elided: 0,
        ready_peak: 10,
        end_time: SimTime::from_nanos(14822990100),
    },
    events: &[],
    alert_arc: &[],
    resends_arc: &[],
    render_hash: 0xec1c635ad40ce047,
    frame_hashes: &[
        0xa3bf9c4a, 0xf26c3ab4, 0xfb3f8d99, 0x5989e2d7, 0xa91aaa8b, 0x7db6984a, 0x1a94ea36,
        0x2832e65d, 0x17da69d6, 0xd3df1e58, 0x5927871f, 0x5649d326, 0xcadb1859, 0x446ba191,
        0xc52b48e2, 0x4b14821a, 0x13b8fefd, 0xa4b24cee, 0x1a3e016f, 0xb66cd2ef, 0x4795b3e4,
        0x4b7782fe, 0x757643d0, 0x3ef895ad, 0xe3c77bf4, 0x2855c3ed, 0xe6e94d8b, 0x1ec6a0e9,
        0x3e91fa5a, 0xa3cffa8b, 0xcc642d10, 0xe564a3ff, 0x198f9678, 0xd48ad9da, 0x297a9778,
        0x77aaf328, 0x0fb14f58, 0x0478aa92, 0x5f951b07, 0x60465d8f, 0xefcad64e, 0x4cb2be78,
        0x054da68a, 0x4e83a923, 0xc75c90de, 0xbf2c972b, 0xfbfe20b0, 0x7c6f842b, 0x575f54d9,
        0x1ec87947, 0x8c57d3d4, 0x0566c109, 0xa70e7d2d, 0x5112b282, 0x883a1aef, 0x22f2f122,
        0x77803f6b, 0x0a881002, 0x0cd80577, 0x04732a02, 0xf8ec3af2, 0x0cf736b8, 0xb946b308,
        0xec5d78a4, 0x9fbaf395, 0x84af7728, 0x4464cde2, 0x11ab892b, 0x1886d1ee, 0x5eef28a8,
        0xfc364dbb, 0x0cf2fddf, 0xcac47357, 0x0f0ab406, 0xd72909c6, 0x846a40ef, 0xc709e0cc,
        0xb36cfc82, 0x130b24da, 0x10da5ce5, 0x88389435, 0x64e2eb1c, 0x1a8c2b59, 0x081d447a,
        0x68006798, 0x9d6fd107, 0x940b062c, 0xe3483ee0, 0xdf7f37ab, 0x6a529342, 0xa1ab6086,
        0x482f8129, 0x8bffbff2, 0xb797f0a3, 0xeeb4f775, 0xa58c912e, 0x9d3ff3cf, 0x0e23d092,
        0x9d29bacf, 0xffce2295, 0x18b0febd, 0xde6fe699, 0xbb50b5b8, 0xe78e96d7, 0x4d9bac2f,
        0xe8483201, 0xb8612ef0, 0x798ba7ea, 0xedf0037c, 0x494c825a, 0x946643ac, 0x36b51a5f,
        0x10ffd909, 0x0bf50fa4, 0x5779c064, 0x51c218d8, 0xfa37a2e0, 0xe2fbae08, 0x7fb199f4,
        0x305285ff, 0x68899f01, 0x0796c962, 0xd27c2cfa, 0x5dd42564, 0x868b50ba, 0x2a90e90c,
        0x11777843, 0x6478f651, 0x318dcb43, 0x5d77f6e5, 0xdde33cf4, 0x953438bc, 0xa05efee5,
        0xac0ff4aa, 0x2fa1c5dd, 0x8714932a, 0xc33bf2ef, 0x379e6db6, 0x026180b1, 0x1f55f2b7,
        0x982cc371, 0x5171ffc5, 0x3f94dd9d, 0xccc79071, 0xea0937d5, 0x1cf79059, 0x1d90c768,
        0x94178d71, 0x0183c7eb, 0x18ae672c, 0x5fdb95e5, 0x13409924, 0xd56cb9bd, 0xa235f98d,
        0x468128a2, 0x66124beb, 0xc50dd2f7, 0xee93fb24, 0x5b46de20, 0x5dcc5ea9, 0x0e38872b,
        0x34437597, 0x24f4fdd6, 0x0cd88500, 0xa71a0005, 0x38a65951, 0x925a52f5, 0x0f31170a,
        0x9ba0f5b5, 0xe9d90a8d, 0x1d81dece, 0x780dac1b, 0x6c23b97b, 0x13c4d105, 0xec80ccdd,
        0x3b896d8f, 0xe59b6b10, 0x51171ac9, 0x4eb51505, 0xab111d55, 0xe32916cd, 0x00dd4095,
        0x2b601ef7, 0x49fa0170, 0x3cfd3c49, 0x2202b1b1, 0x35264c19, 0x8ab90b41, 0x0d43ee56,
        0x25284b76, 0x6c034d07, 0x6e1aa49c, 0xdb82921c, 0x9a7958c2, 0x4f49e5d4, 0x98e522ad,
        0x3f94bf06, 0x4b00dbd9, 0x0d4d66e1, 0x1e7712fd, 0xeee1c477, 0x454eb2d2, 0xc244f230,
        0x75855efc, 0xc3c26a30, 0x506297fb, 0x03e214c5, 0xd8c82005, 0x5ad872c0, 0x0f87e8e2,
        0x7bb41ccf, 0x6a9615d5, 0x4268fcbf, 0xd5847385, 0x65001451, 0xf4424ad8, 0xeddef9c9,
        0xe7520287, 0xddc9eff9, 0x36101ad2, 0x30407d67, 0x372bae8f, 0xb72dfa75, 0xc45ec2d9,
        0xa040d592, 0xdd89b72c, 0x9750c2d7, 0x9e8dd61c, 0xdc596978, 0xd2369460, 0xc5e72c61,
        0xdf99bb4b, 0x65676c03, 0xba9b3bad, 0x9d13f2e3, 0x0c3a3902, 0x7d5fcf01, 0x37885fbb,
        0x6e6881cb, 0xca5ea17f, 0xbe73c7a6, 0x48a04cef, 0x40b115ac, 0x183888c3, 0xfc0f59bd,
        0xb1943766, 0x139bf5cc, 0xa5d320c8, 0x69a630a4, 0xfac8b7a8, 0x8304d148, 0x8e5c5923,
        0xa6e31a20, 0xd8be8180, 0x48102515, 0xe3a05166, 0x0b482f00, 0x156ff46a, 0x7be07d93,
        0xf8503ff1, 0x63066652, 0xb2bf79e9, 0x65a72a02, 0x5e0b69dd, 0x44ebf024, 0x58809d8e,
        0x231400ab, 0x96af55b1, 0x792c7dae, 0xe88a99ea, 0x5355277a, 0xb34d8725, 0x7cc4d407,
        0xe0193259, 0xc8de4998, 0x928698c3, 0xfb398ab2, 0x6a0198e3, 0x3a415caf, 0x4fc265d3,
        0xd3d93e3c, 0x79c06133, 0x264bd7c4, 0x4ca8df69, 0x3d78cde2, 0x78ce9290, 0x69914036,
        0x9cad492f, 0x8eadb194, 0xa753173b, 0x1b39c806, 0x901547ca, 0xb3c7411f, 0x42ff0098,
        0xc18445e8, 0xbf50847b, 0x016ffab5, 0x7099ba56, 0xe9a0913a, 0x16562cb8, 0xcc83ccde,
        0x52f15631, 0xbd83c212, 0xd3c5976a, 0x451a909c, 0xc985deb0, 0xca98cdc8, 0xa9aabc58,
        0x769924a4, 0x8f2640fc, 0x1c3f6971, 0xfe2f5fe4, 0xb8d92976, 0xbad2ff9b, 0xe2919c25,
        0xffd66069, 0x21439e6e, 0x2cf551c3, 0x43d3cf7d, 0x86793d7f, 0xa7188ad8, 0x5a000827,
        0x90687103, 0x73a361a9, 0x0ba2913a, 0x7d124a7d, 0x5eaf4a6b, 0xd157d2f2, 0x49207595,
        0xe1d40168, 0x98c44429, 0x0588d37b, 0xae43663d, 0xbfb5a88f, 0x781ffd76, 0xd47b69bc,
        0xd0f889b5, 0x428a82ae, 0x49334e5e, 0x42a9de12, 0xaba180d4, 0xa8b2e201, 0x7b380477,
        0xcd59f98a, 0xb635a71e, 0x59e86a1f, 0x6936e4da, 0x50e70173, 0xf223ad9d, 0xfa3925c5,
        0x7bd51bea, 0x12a2287c, 0xd076fc30, 0x693c4d2d, 0xf36c48a1, 0x47862177, 0x22886de6,
        0x58c0f01a, 0x6915b35d, 0x1a3488fd, 0x3bfa1780, 0x0066fc9f, 0x7eeb3e63, 0xc97859d9,
        0x452a76b8, 0xa201705f, 0x26922296, 0x34aa5bba, 0x8efd6cb5, 0x4c020fa3, 0x87f2e3de,
        0xb0456a84, 0xcdbb0cf8, 0xdb49d056, 0x2cccb353, 0x508a3af8, 0xa8c38cd1, 0x150a73ba,
        0x0462674c, 0x23e8c7ba, 0x27c59c07, 0xb23798e0, 0x4b2dca60, 0x70317d16, 0x012a1627,
        0x3d477f68, 0xa1481c21, 0xaec8c57b, 0xff3a256a, 0x3aa81299, 0x78d87b06, 0x255392b3,
        0x5d75bccb, 0xfc2fa87f, 0x1ed26a3a, 0xe836ef77, 0xb1442b85, 0xf1f3d4ba, 0x94bb0feb,
        0x0638d208, 0xcf524aab, 0x75eda273, 0xe5d8bda2, 0x114d48dd, 0x07ce433e, 0x8a73e6e8,
        0xbffa024d, 0x5609e6dd, 0xde92b03d, 0x4e21932e, 0x7a900001, 0x64e7b9e6, 0x0490b3c8,
        0x52d60ab5, 0xb5b3e5c6, 0x0f407d7b, 0xa4e9f22f, 0xee02d1ff, 0xf3bda921, 0x8cf19d1e,
        0xb66fbda2, 0xcf3246a9, 0x97fa117b, 0xa5cee6ab, 0xcf0807c6, 0x8a24c71b, 0x5d6d781b,
        0xcfedefa6, 0xf88c5502, 0x8d37dfdd, 0xbd5d5105, 0x7c5ed70a, 0x7383e70a, 0x4242d7db,
        0x1adf2bf0, 0x2b513275, 0x9cea26de, 0x49a3ec49, 0x28a38faa, 0x1d0975e1, 0x3e82ee3f,
        0x9a12711a, 0x3522c4cd, 0x0a18db97, 0xced1f91c, 0xc63d69d6, 0xe485881d, 0xa6382676,
        0x4feb9df5, 0x7ae87e2f, 0x6920b778, 0x87114b94, 0x6a2d2584, 0x2b94980a, 0x06eea57f,
        0xcbe664ca, 0xaf578c4b, 0x5a1fa652, 0x3cc3e132, 0xf782d831, 0x04a70aeb, 0x4b41468e,
        0x5deaee04, 0xcc4b8b7c, 0x59c7f78b, 0x5dd42dc2, 0xabee1270, 0x5f17dc7b, 0xecd20d23,
        0x8a00e991, 0xaf479d14, 0xc554860b, 0x6ece1df8, 0xeea5c010, 0x89fc6e44, 0xee6c08b9,
        0x4d72795f, 0x08499d9f, 0x573f8997, 0xdb30d460, 0x204ddbc8, 0xe16ade93, 0x8bef5a69,
        0x3a42cdd0, 0x2f9dadb4, 0xb23ce076, 0x4ab7d8b7, 0xee31efb9, 0x9f816c43, 0xd124e463,
        0xf6b5f209, 0x52d20b55, 0x96d784ca, 0xda361fad, 0x8c80bfb2, 0xb54baf50, 0x077e8688,
        0xb92e3cff, 0xb8833930, 0x41fb7fd5, 0xdf498dea, 0xe2cf6a80, 0x75467238, 0x4b7ec183,
        0xe38729e9, 0x6f32356d, 0xa3faf5e8, 0x89eeeb71, 0x9d912692, 0xffbacb43, 0x7e382394,
        0x3ebc7f4f, 0x1d329a0b, 0xcfdbf4ea, 0x48942736, 0xb4041bc8, 0x743a1622, 0x5fe841a1,
        0xfbae648d, 0x3fefb79d, 0xe11c894b, 0xe964ceab, 0xe320f503, 0x1886bde4, 0x3ab7d9bc,
        0xfcbafc6d, 0x48d2e0ea, 0x062269ef, 0x98220cd5, 0xb4530d64, 0xca5218ad, 0x9a912db6,
        0x3b93c3eb, 0xe5fea18c, 0x807ae9c4, 0x7362af56, 0x3f0bad89, 0x1a087ccf, 0x8e4361d2,
        0x5022d40e, 0x09ce8c4a, 0x000478eb, 0x216afb48, 0x813f03de, 0x4af69560, 0xf5ffb3c6,
        0x00b0eaa1, 0x5de7b54c, 0xe5233812, 0x24a7937b, 0x0e451e8b, 0xc521af02, 0x7b4a508e,
        0xbe73b750, 0x870ed0cf, 0x166f4092, 0x9a530f9c, 0x7736bc0c, 0x6f71e701, 0xc98fb0e3,
        0x3e86602c, 0xb5250b7e, 0xa6d4c314, 0x0e2fe5fb, 0xcf8ce1cc, 0xb4a8be57, 0x1d7caf1e,
        0x06aab8dd, 0xc5d88787, 0x7026308d, 0x45efe25f, 0xda3884fa, 0xe2f2f550, 0x9a26b162,
        0x00e64486, 0x966d2bd6, 0x99c28bfb, 0xcf898855, 0xf8b7d86e, 0x87b74b83, 0x9ef68d6e,
        0x728b6493, 0x337d6575, 0xa905fcb0, 0x3bc855e1, 0x8d4b3239, 0x5dde1276, 0x5b0371b5,
        0xeb68b0a9, 0xd4354a8a, 0x87d082c0, 0x7df8168a, 0x1179c795, 0xac9fa2a1, 0xc62ab95c,
        0xd851f0ac, 0xe44045dd, 0x9d169381, 0x63dae914, 0x87685070, 0x149cc14f, 0x3a8238e9,
        0x09337e22, 0x06dcc888, 0xb04ec0bd, 0x2ad1f50f, 0x67caab34, 0xedf142e9, 0xc041a2eb,
        0xf133f938, 0xcc75ae65, 0xa8fd9eec, 0xafbe2a7c, 0xaa584dfe, 0xa6f75385, 0x650f9434,
        0xbd23fda8, 0xbb4e6841, 0x5615b9a5, 0x425f2267, 0xf88aa333, 0xb8d3ca53, 0x3d4b6154,
        0x5da0c61b, 0x13aa3089, 0x70de61c5, 0xa8f5623e, 0x92940882, 0x016a33e1, 0xff3f6594,
        0x9ddfa252, 0xdccb0153, 0xe19855cf, 0xf51e3ae1, 0x2a29c3e3, 0x83aebd05, 0xbe01d486,
        0x2a269c7e, 0x8234ec9b, 0x5c5d52ad, 0xb1ae78c5, 0x72df3f0a, 0x1a7e30ff, 0x9f058139,
        0xaf2982c2, 0xedae5f11, 0x010d4ad6, 0xffccda2d, 0xba599cae, 0xebf51282, 0xe20a46c2,
        0x7fd64fdd, 0x54958184, 0x4c957b2c, 0x4fa3d628, 0x0d09ca2d, 0x124edace, 0xa77d2718,
        0xa0133f5a, 0x628413cd, 0xda8fc28b, 0xa92d3975, 0x73cdf371, 0xe8af1a38, 0x06b114fa,
        0x8f62a1ea, 0x0cf8a5be, 0x09ea57e5, 0x0d2edc68, 0xe1342350, 0xef8ccd00, 0x6670de8d,
        0x3e9ccddd, 0xc0538c8c, 0x76cd6339, 0xe52b5222, 0xaecced3a, 0xe7cac54e, 0x59482fbd,
        0xd2cfad73, 0x6635c0c8, 0xf0daf0f9, 0x9fd64032, 0x9c6620df, 0x05d7fb42, 0xa7f96e6b,
        0x2819958e, 0xcf16a859, 0x89134781, 0xc69dc8bc, 0xdbaa9342, 0x72006f98, 0xf470bb97,
        0x4c080155, 0x7b07d910, 0x5ee401db, 0x8b6c23b3, 0xfe1b2353, 0x58876e0f, 0x9de046c9,
        0x8c8d9314, 0x6058b5fa, 0x05b6dc1a, 0xfb5f111f, 0x2cd9c301, 0x43f6c7da, 0x9457b896,
        0xa2f0c4e1, 0xb61f4d66, 0xa282a7dd, 0x14f79206, 0x97836a36, 0x014127f1, 0xfd05e21f,
        0x23232137, 0xeb31aeab, 0xddb92d01, 0xbb9f3b97, 0xed947a92, 0xf503ef6d, 0x837b181b,
        0x929c731b, 0x1871e073, 0x5251fa78, 0x8405ad72, 0x071cda34, 0x70358b2b, 0x52d0203c,
        0x4dcebc85, 0x53d7354e, 0xc26ab437, 0xc44de63b, 0x791e3f35, 0x6b86c440, 0x8cd92a7f,
        0x50de3dde, 0x6eb87156, 0x69acdcd7, 0x2f5e5f73, 0x5edb2aef, 0x30822d59, 0x2d0379f2,
    ],
};
