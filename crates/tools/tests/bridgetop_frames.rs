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
        dedup_occupancy: 72,
        dedup_peak: 97,
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
    render_hash: 0x10b8044da2ce06f5,
    frame_hashes: &[
        0xa3bf9c4a, 0xf26c3ab4, 0xfb3f8d99, 0x5989e2d7, 0xa91aaa8b, 0x7db6984a, 0x1a94ea36,
        0x7aa4dd97, 0x0783cb97, 0x3a18651e, 0x647378ca, 0x3f4a48c0, 0xcebfab7f, 0x9a37e713,
        0x0d7656c2, 0xfee124d2, 0xc1c5b307, 0x0385812f, 0xffcdd96c, 0x56ab3b0c, 0x7b1543fc,
        0xee29ff10, 0x14c9a629, 0x6c9d62f5, 0x3cd0335c, 0xf7072bfc, 0xb744b09d, 0xb5d4ac24,
        0xfd60997a, 0x13fb0bdb, 0xf3cb6289, 0x4950348f, 0xb270acf5, 0xcfa20c38, 0x71955f54,
        0xf20cdfaf, 0xa8abb7c4, 0x25eae72b, 0x51611b70, 0xa8d0ac51, 0xa196eec8, 0x272a25a8,
        0x08be642d, 0x8fcb2dba, 0x53da5481, 0xf5354131, 0x8009e02a, 0xa5f0deb9, 0x57aa8c73,
        0x199b4e47, 0xd86ec0e1, 0x1155ab35, 0x8160b313, 0x901d250b, 0xcc334eeb, 0x4a33ecde,
        0xc31c8478, 0xe49ba356, 0x03bab685, 0x27908e28, 0xc7a487c5, 0x1d999519, 0xe7b170e7,
        0x077a1dfd, 0x1b7dbabf, 0xc1d2b5c5, 0x79be199c, 0x498aad35, 0x3e4aec4f, 0xf885c2bc,
        0x8c5c304b, 0x20a46404, 0x91df49d1, 0x41258366, 0x6f68c85b, 0x9fdf07d5, 0xf3034757,
        0x4a16cf5c, 0xf844f287, 0xa0450c38, 0x9d8c0297, 0x6afcb492, 0x7d42611f, 0xe2b3488d,
        0x59ed979e, 0x9ad9d5cc, 0x1c15fdfe, 0xb171ac97, 0x6aaeb8e5, 0x8e106ef2, 0xb3f1716e,
        0xdb8a56c7, 0x9f2e55d0, 0xec20a53a, 0x86b77d7d, 0xb44512c8, 0xa3a70753, 0x58ffa7d7,
        0x67e46f8b, 0x012a1255, 0xcfe05cbc, 0x0f4eee2d, 0x5b368668, 0xe798ef5b, 0x48a13dab,
        0x17a88eaa, 0x9be4ed08, 0x67fbdd36, 0x13c303c0, 0xa3445266, 0xe2da4697, 0x9f01fa98,
        0xbf787eff, 0x147f4ed9, 0x5773c513, 0xf1608687, 0x393fde5c, 0xa88c71aa, 0x9646657c,
        0xc966982d, 0x6d462f74, 0x5a5aabb0, 0xbbca3823, 0x97d2a31c, 0x95a156b5, 0x1a358b3b,
        0xcb1de9f0, 0xe4db4a45, 0x1cb4fd4b, 0x20e4a08c, 0xf273fb71, 0x0b7bc8c6, 0x8c988a16,
        0xb4fd437f, 0x09fd10a7, 0xc93fde2a, 0xbd2eff1b, 0x07494dbf, 0xec8e67da, 0x1d984d7b,
        0xb01afd5d, 0x9f606a13, 0x224918e7, 0x3be2aea1, 0xd7da7aeb, 0xb3652941, 0x5a4fa8c2,
        0x32380685, 0x67f71b93, 0xea35195b, 0x86e1bc0a, 0x5cca588d, 0x4024d3e5, 0x1db5ef96,
        0xe9e81a18, 0x4ed4bc73, 0x984963af, 0x4d096bb5, 0x453e088a, 0xc3280138, 0xa1678ac7,
        0x711e10c8, 0x03456d22, 0xea5c0664, 0xa26a858e, 0x522719a9, 0xd042842d, 0x0dca97cb,
        0xcd383686, 0x7334d489, 0x5a540397, 0x09224555, 0x169cd28e, 0x18ce507a, 0x72546f1b,
        0xc881993d, 0x5b80fde7, 0x221313a7, 0x2c823a81, 0x7f333144, 0x51359ce4, 0x62998af6,
        0xf612432e, 0x95922b65, 0xc334452e, 0xaa129fc0, 0x12fd536f, 0x037d9e38, 0x6945bbdd,
        0x492504cd, 0x52c176c1, 0x993a9e37, 0xdcc7165c, 0x62f4a8ff, 0x83d7ab36, 0x65426e60,
        0x171f8ceb, 0x743d14b1, 0x2bbd7341, 0xc8940f6f, 0x3f43d4b7, 0x5eaf8383, 0x055f05bd,
        0x1b9aec73, 0x9ef08669, 0x1ce80053, 0x0c30981c, 0x10dc785d, 0x7429848a, 0x757f3672,
        0xaed5a051, 0xb2205528, 0xa1446e64, 0x7f0bc062, 0x5b2b3b7d, 0x520b666c, 0xe4acf240,
        0xe85b62fa, 0x86e428f8, 0xf7a2d4c2, 0x38c3ede5, 0xa7d5e51c, 0x43cd2328, 0xc08b09fe,
        0x6ca11b66, 0x7efb5ed8, 0x7a2aa2ec, 0x55ec8f55, 0x26d30927, 0xeb32be9b, 0x7d48c76f,
        0x166c056e, 0x435803b4, 0x0909a286, 0x2d940832, 0x68d4d13f, 0x48d79199, 0x338d1bd9,
        0xfb143252, 0x99fb23ee, 0xc4d85c79, 0x4edfd969, 0x42ad9733, 0x0042ce40, 0x03087d8f,
        0x09bd1974, 0x6db5fc39, 0xa38526f6, 0x610d06fc, 0x1d2ee993, 0x6e890f3a, 0xe0bb3a71,
        0x41ae12eb, 0x5f6b2eef, 0xe49313f4, 0x3dac49bb, 0x89bf6bf2, 0x2f00e256, 0xaa767a2f,
        0xc8dee5c4, 0x731d8e3f, 0xce6163dd, 0x431c0e5f, 0xdce240cc, 0x860230da, 0x3e4ee68b,
        0x698d3805, 0xe1c9afe0, 0xf9f64e87, 0xcea49654, 0x4d960a85, 0x0965c2a0, 0xfd64008c,
        0x3a12f0cc, 0x5d6b35b2, 0x9f4eae8c, 0x762dd3f6, 0x96a34c85, 0x21f0181d, 0x41752f96,
        0x230f8585, 0xdb67bab0, 0x98648ad2, 0xafc35206, 0x8e81f11e, 0x27202f02, 0x625c2616,
        0x1afdaabb, 0xb978ea9c, 0xc3b5322a, 0xcfe41fa9, 0x90dbd1d3, 0xbe7af7a9, 0x7266df0f,
        0xa47b5b73, 0xe4d098e1, 0x5fbed6c5, 0x727a75f0, 0x385ed4be, 0xb32302f3, 0x57a1398a,
        0x09737b78, 0x76e8586d, 0xbadab8ee, 0xadbe8e34, 0x9d2ee0bb, 0x295464d5, 0x2a8298fd,
        0x90d9f5cc, 0xa7792e3c, 0x717d907d, 0x5a73fcc7, 0x4024f674, 0x9b20e79b, 0xda3abc37,
        0xb7ecbcbc, 0xcf495d6d, 0xc5463248, 0xe41500cb, 0xfcf8b4b9, 0x511245ad, 0xc2f53f5b,
        0xb6a24e0d, 0x70fdea31, 0xaf32c46d, 0x0904e1e9, 0x957209b3, 0x737e281b, 0xbb6fef54,
        0xa2273151, 0x51b6578c, 0xe19c7a44, 0x611a7234, 0x1f128a02, 0x6fe0e5e1, 0xb64764e8,
        0xc328d749, 0xc37195d3, 0xa21ea853, 0xee220be4, 0x1d0b3628, 0x0b9078f5, 0xa35c3097,
        0x65d220fb, 0x7583566c, 0x2b98da95, 0xee5a72c1, 0xb00ec727, 0x899d8dd2, 0xcd373bb1,
        0x476a9963, 0x508d90e8, 0x344c6de3, 0xa117f2eb, 0x9695db88, 0xc934b5b2, 0x7814a4d2,
        0x3e58b28a, 0x11ebea3a, 0x143555b1, 0x96830478, 0x2a9f8ce0, 0xf5733d15, 0xd936a863,
        0x4775d45b, 0xddfafaab, 0x34a1b3db, 0x707a5810, 0x6448007e, 0x83a1f50b, 0x6e28d739,
        0xb5a31f54, 0xbbd42939, 0x0a406dd1, 0xfa592750, 0xa785d8e5, 0x371d7c03, 0x69f36cb4,
        0xccb6b8df, 0xd448d2cb, 0x296f14f8, 0x57358b80, 0x40a14ab8, 0x722e0bfd, 0x26c64cae,
        0xbb208e67, 0x93a8ca8e, 0xb4e2d295, 0x705b7f84, 0x55b6c7b8, 0x6b45789b, 0x4c1ff6ff,
        0xd8cbb71f, 0x506783cb, 0x06eecba4, 0x65f1eb55, 0x9634c2c4, 0xf20ffe22, 0x4834b827,
        0x85d58b9e, 0x902e0733, 0xac5386d2, 0xf705c0b0, 0x114df9e6, 0xc3a0fdd0, 0x2d3c44a6,
        0x53955cc5, 0x3b53ca2b, 0x67eee08b, 0x6f8ab194, 0x51383566, 0xff1d6245, 0xf08c1d77,
        0x56532ad8, 0xf771824b, 0xa8fc4d50, 0x56ada925, 0x131a21fb, 0x39300c3d, 0x04ce4d5e,
        0xa2aad83f, 0x7d4e2768, 0x7d119c5b, 0x8f39bb92, 0xe964ccdc, 0x7ed98539, 0x025d2c88,
        0x17371ec9, 0x5654453d, 0x61ae1722, 0x5e430093, 0x5eb00d5e, 0xeddf8167, 0x46584239,
        0xbd93f1d6, 0x4fd0c4c6, 0xb0b8491e, 0xda4130d9, 0x7a9d41b7, 0x31fae456, 0x553b2042,
        0xf9a8109d, 0xe8a42a01, 0x255434fc, 0x8648aec7, 0x9f3d1121, 0xb732182c, 0x5b598f12,
        0xd9e5ecb1, 0x1144a857, 0xf0802509, 0xf63de44f, 0xd25e12e4, 0xde47ce14, 0xb7959774,
        0xe5ddadcd, 0xabb604c3, 0x3bba719b, 0x4a6991e7, 0xc4eddcfc, 0x45627de1, 0x6b61ac0a,
        0x7ac3d5a0, 0x13e4856e, 0x7e0cc6bc, 0x227059c2, 0xde9ed3c1, 0xca73d441, 0xab0da3b6,
        0x2fd9497d, 0xf30dcf89, 0x784f721c, 0x12f4abf8, 0xd55da677, 0xcae47279, 0xb2995cba,
        0xc8606ada, 0x87cdd5fc, 0xcaf0f09e, 0xead1fa79, 0xc285d76e, 0xb69ebf3c, 0x868d2981,
        0x54ed8a72, 0x044720fd, 0x21a18f2c, 0x2e0fb86a, 0x1281d304, 0x8a1ad0f3, 0x6efae886,
        0xe8998f76, 0x7768b9e1, 0xa7cab555, 0x464e6c63, 0x9ef9d63f, 0xa865b33a, 0xd3ee1c17,
        0xd46bd910, 0x62d2a450, 0x597ca8d9, 0x6b7d6c4d, 0xcb607779, 0x817d365c, 0x58ef7d0b,
        0x4400d2a5, 0x03c9690d, 0x34c47f12, 0x19991f2d, 0x61348204, 0x724d9411, 0x0a66b569,
        0xb1a1e065, 0x9d84bd79, 0xd6ba2403, 0x4a02b511, 0xf5e6ea15, 0x1a9ba113, 0x2b027411,
        0xa5b31cad, 0xa581ebe7, 0x282497ce, 0x0e435538, 0xa682cef0, 0xd65e5f80, 0xeaa1a8da,
        0xa978eb5e, 0xa5dc7cc7, 0x38743d98, 0x72362171, 0xc7e629b7, 0x7db32bbe, 0x4b5b9f50,
        0x9a76b7be, 0x479155f5, 0xb867e6df, 0x24adecbd, 0x00e748ef, 0xfec04fd3, 0x7adc74e1,
        0x0925aa63, 0x900d0743, 0x7bee7e86, 0xfa1de6bc, 0x3737c1c5, 0x22e7ba68, 0xb7031059,
        0x4f4c5432, 0x544f5d75, 0xd3e392b5, 0x3ffc2e4c, 0xa7df93f8, 0x49cf6c39, 0xa359d3c4,
        0xa8a64009, 0x9f713eae, 0x5ae94f68, 0xb37f862e, 0x9e6354a0, 0x701e1771, 0x27932001,
        0x217b2c48, 0xef755466, 0x64877db4, 0x9e2e83ed, 0x60b963fd, 0x46f23a42, 0x35de54d5,
        0x654aa011, 0x626d3e8f, 0x9c9b0b99, 0xa92c3b4d, 0x6cfc4d9a, 0x62391ac5, 0xf346e16c,
        0xd4350df6, 0x9400e624, 0x4714805c, 0xd7d228f8, 0x8c7b2fd0, 0x4c1afe7f, 0xb6bf3903,
        0x9766b2e2, 0x6f2d9bad, 0x9de6881f, 0xf4c2131f, 0xd4f63a54, 0x83788966, 0xd76e986a,
        0x1febf874, 0xaae33b68, 0x0a3844d8, 0x25b6e575, 0x697756c8, 0x48fd6c97, 0x53dd4a4c,
        0xea05feb0, 0x709fcf0b, 0x76136e9f, 0x5915934c, 0x1967ca2e, 0xafba31c3, 0xe5a691a6,
        0xd0c0b856, 0x4a5b0df2, 0xc0a3800e, 0x194a17c6, 0x45bb6a31, 0x5c8c5026, 0x83b63b38,
        0xc2206a43, 0xe4028da7, 0xc9b82d92, 0x41ab3dcd, 0xa6f9595a, 0x3d15d6f7, 0x853f99f2,
        0xc961435f, 0x4ae8ef3e, 0x51d99f7a, 0xa2bd1e64, 0xcc158726, 0xb6baac86,
    ],
};

const CONTROL: Pinned = Pinned {
    server: ServerTelemetry {
        ops: 197,
        replays: 0,
        dedup_occupancy: 151,
        dedup_peak: 151,
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
    render_hash: 0xd62a6c87c348e1a4,
    frame_hashes: &[
        0xa3bf9c4a, 0xf26c3ab4, 0xfb3f8d99, 0x5989e2d7, 0xa91aaa8b, 0x7db6984a, 0x1a94ea36,
        0x7aa4dd97, 0x0783cb97, 0x3a18651e, 0x647378ca, 0x3f4a48c0, 0xf2e13c27, 0xf3de8a7d,
        0x9bc0095b, 0xce426712, 0x88f31cec, 0x99f39172, 0xff475cfd, 0xce0bbee9, 0x5e4a9421,
        0x28ee8c81, 0x3f10fca2, 0x94d8e04d, 0x85fe1545, 0x714cee4e, 0xfaaaddf9, 0x85c48c35,
        0xcf976884, 0x224a9b73, 0x0268346e, 0x66a62256, 0x6d20f7b3, 0x5ee67c76, 0x2da669c2,
        0x9e7a5ef5, 0xaa8a060c, 0xadac6423, 0x84a10c00, 0x436d37dc, 0x10844106, 0x8d7c7cb5,
        0xde37556a, 0xb6146aa5, 0x8e5b8228, 0x8f745524, 0xd32ed525, 0xe07b6761, 0xa5c30dfa,
        0x5946b006, 0x431dc94c, 0xb04217a2, 0x41e3e2e4, 0x6d0f46f3, 0xfff5d8ea, 0x6ceff0ff,
        0xae0468b1, 0x1a5c3522, 0xd77980d7, 0x70490b54, 0xa39e2338, 0x079e7b25, 0x08fa01cf,
        0x7dfaa8e7, 0xb77b4379, 0xf183e905, 0x5f24f02b, 0xe5e0c838, 0x9a33d895, 0x59a0fe7b,
        0x9d78420a, 0xda72cd5d, 0x23c1b517, 0x712d2f10, 0xf57cfaef, 0xc9c51233, 0x83486c9b,
        0x0a690910, 0xc5082cc1, 0xb38eb6b4, 0x1272c719, 0x924fc67a, 0x545b0757, 0xa3b7450c,
        0xb0918b03, 0xc8219c80, 0xdc442e8e, 0x12c895c3, 0x831da007, 0x81b3ba1a, 0xb2a2922d,
        0xd036493a, 0x4e8444b7, 0xfee3da82, 0xa9de47b8, 0xfb336a40, 0x2242ded2, 0x2dd5e19a,
        0x58091151, 0xc2987cfa, 0x32e59a4f, 0x07c527e2, 0x074ded74, 0x0062fb4f, 0x12a59ae2,
        0x60a17cd7, 0x94c31495, 0x054e7c79, 0xc4e1c354, 0xa1d63f85, 0x9bdb4014, 0x4afe528d,
        0xaaae44d4, 0x8548bb52, 0xb0470c12, 0x12fcb726, 0x4fca0446, 0xb7d3c677, 0xd5e87626,
        0xba25c24a, 0xf3ef9f86, 0x77420271, 0xecc7ba04, 0x41d10304, 0x9f3cedca, 0x9fa45bc3,
        0x2ea069d1, 0x672ab8dc, 0x05eca4c8, 0xe6762fd1, 0x6d163a34, 0x5c8cbf55, 0x43e76871,
        0x394ac07f, 0xe5ee2218, 0x6bca6e2d, 0xc2117402, 0xf11da1cb, 0xe8762113, 0x70f8a717,
        0x10bcc6dc, 0x3886c02c, 0x9afea325, 0xd5ef257f, 0xfb28f424, 0x34f27705, 0xe69000b8,
        0x352dcf57, 0x66bbfbed, 0xec7d057f, 0x89bd98fe, 0x4703fa3a, 0x0e9cb139, 0xd9ddab56,
        0x20792271, 0xb5a5f594, 0x02881266, 0x3527f07f, 0x6464da3f, 0xe24a6152, 0x2cacdd52,
        0x138df3ca, 0xd8e7b6ad, 0xd562793b, 0xe8e80180, 0xfaec2a7c, 0xf041606b, 0xc7f35d01,
        0x03e9fdf0, 0xd4730041, 0xb5db0182, 0xa04b9b2e, 0xad7452a9, 0xd983fb7e, 0x8d6eac4d,
        0xa7a27d2c, 0x36c9380d, 0x527448c7, 0x738a74eb, 0x09b4773d, 0x4fb5266e, 0xe2ec4399,
        0xf8c79969, 0x351a5731, 0x0b8fc626, 0xc369eb39, 0xe5598542, 0x3dabdab1, 0xb05200b6,
        0x6e98e910, 0x13378633, 0x73814621, 0x1c86f1ed, 0x0c16221f, 0xab01c0c3, 0x6e750787,
        0x4d5f3782, 0xbcbea9c3, 0x17e64525, 0x1d2a2dd9, 0xc8160ea8, 0x637f22fc, 0xab3b43c1,
        0x2eb4e109, 0x6ede3a7e, 0x26fc2992, 0xbfb43fb2, 0x0f46efc1, 0xe65f4d63, 0x699c8298,
        0xb4afead2, 0x914b285a, 0xf04dc75c, 0x304f51d8, 0xf80215a9, 0x9ba98bad, 0x04770ad0,
        0x907f0150, 0x5298f9f7, 0xa8e84f76, 0x3ba448b7, 0x08e08adf, 0x3382a788, 0xfc8a475a,
        0x84d8e511, 0xe6dfb412, 0x7e1ea10a, 0x53f2b60f, 0x7107f653, 0xc79dfa3f, 0x60568502,
        0xdb0532d1, 0xfc94605d, 0x66a81ad1, 0x500f25c9, 0x3b3a663a, 0x055ef3f2, 0x4e4a1378,
        0xc8e9e75d, 0x31707ba6, 0x15e7a01e, 0x27c69a6c, 0xd538a35c, 0x581d888c, 0xa99d1520,
        0xc8e5645c, 0x805c7445, 0x1e1dceac, 0x8bfd4780, 0x49a85e5c, 0xd8db5c54, 0xec2f235f,
        0x367b2825, 0x550319cc, 0x22e8b3a1, 0x17b3137e, 0x4b164f70, 0x2b2baf33, 0x5ff905b2,
        0x52c044f3, 0x7742ca56, 0x44693eda, 0x8d5a257c, 0x0b741755, 0x0cbea701, 0xf218109c,
        0xa2881404, 0x16810476, 0x6b9c29f1, 0x3b270615, 0x96759aa6, 0x97f7d30d, 0xe9f3ba51,
        0xd76d7e17, 0x04ffffed, 0xc92c8900, 0xfc0639db, 0xe4f08bfe, 0x057256d2, 0xa3137651,
        0xfda05b34, 0x50ba5a24, 0x82f4c628, 0x46c0aaf3, 0x972b7709, 0xea8cbf6c, 0x777d76ec,
        0x6bf15678, 0xfbeb2d4b, 0xbe1897d0, 0x2033095d, 0xafecb15f, 0xefe10986, 0x0a597f3c,
        0x73b2686e, 0x7b7d18c6, 0x9f77227e, 0x83a82f4f, 0x8812e7dc, 0x9c7d73ee, 0x0276b84b,
        0xde41d879, 0xc05e7d25, 0x99aa27fb, 0xa7a34569, 0x54c7f748, 0x6cb1c34d, 0x8284a9c0,
        0x098f6d22, 0x000fedba, 0x7d1898f1, 0x500bf37d, 0xe088651d, 0xab9c4679, 0xcbcd7b84,
        0x9c42270d, 0xc9d86c68, 0x8ee1d2a4, 0xa4994981, 0xfa9efd04, 0x11b0dc42, 0x5b100c57,
        0x2e7d95cd, 0x04ae349e, 0x3bca404e, 0x3ad06bcf, 0xbf146187, 0xe4af7b82, 0xdf059f30,
        0x625282b0, 0xc9a2e4af, 0xbff0ece7, 0x3f02b766, 0x422124cb, 0x01cc292d, 0x0da9572d,
        0x4c32ae9d, 0xf2689f0b, 0x33dc3f43, 0xbcd29446, 0x002468d6, 0x0baa47d7, 0xf86f5a52,
        0x8ae07eab, 0x7102b22b, 0x169e1e03, 0x0765d5f4, 0x5fbf33e2, 0x61641a41, 0x9e67cdb6,
        0xbcde010b, 0xa75f43e4, 0x819fc098, 0xbb4927e5, 0xa3752f9d, 0xd7653714, 0xd0a8c09a,
        0x53b302a5, 0xf8036e24, 0x2d34d533, 0x92db9819, 0x73ac1343, 0x73325ac3, 0x4eea90a6,
        0x27f2d68f, 0xa5520ef2, 0x8763dc09, 0x835c15c7, 0x767f2c14, 0xac6e8f26, 0xbee0b3ad,
        0x1c1298a5, 0x43a8093b, 0xc21656f4, 0xb1874776, 0x14eab222, 0x6650e5ba, 0x7dff057c,
        0xb060ecb7, 0x36a0c53c, 0xd6bd89d5, 0xf264fbb9, 0xe4583e67, 0x9e793a56, 0x9fac1738,
        0xb511025c, 0xaf8c2d36, 0x9e48616f, 0xd6b9b08c, 0xd96acb4a, 0x6633312f, 0x528f6f72,
        0xc0bcf6d9, 0x05f4d3cc, 0x1c16fb07, 0x4693a601, 0x299171e6, 0x80298d43, 0xe3b251b5,
        0xeec4a4b8, 0x1c8ed809, 0xb6628941, 0xa15c421b, 0x87e52d4c, 0xdf690d8b, 0x0caba91b,
        0xef6e37f2, 0xd4931421, 0x0b528b3d, 0x30bef793, 0x205f6424, 0xd5515225, 0xc173a53b,
        0x3f1b7f76, 0x0a542ba7, 0x74936d66, 0x4b016794, 0x0f98b464, 0xc25c9588, 0x436f1c7d,
        0x846789ab, 0x55fb8af1, 0x34fc46f3, 0x36f2d370, 0xae754c87, 0x9a07cfb6, 0xb4e0defe,
        0x286ba164, 0xc3cf8f28, 0x88194e3c, 0xafd78dd9, 0xb9bf9a34, 0x3fccd676, 0x3c09cf0c,
        0x94ea2007, 0x8857bbaa, 0x28bbea8c, 0xd5296972, 0x9e86e497, 0x31ebfc51, 0xcfd1f6e1,
        0xb9a1bf08,
    ],
};
