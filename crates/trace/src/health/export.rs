//! The two exports of a [`HealthSnapshot`]: the `bridge-top` text frame
//! and the `--json` document with its schema check. Every exported
//! object is described once, by a table of member names and accessors
//! that the writer iterates and the validator checks against.

use super::{DiskTelemetry, HealthSnapshot, LfsTelemetry, ServerTelemetry};
use crate::histogram::Histogram;
use crate::json::{self, Json};
use parsim::{RunStats, SimDuration};
use std::fmt::Write as _;

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// Renders a health snapshot as the shared human-facing text block: the
/// `bridge-top` dashboard frame, and the one code path examples print
/// machine state through.
pub fn render_snapshot(snap: &HealthSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bridge-top — t={:.3}s  p={}  alerts={}",
        secs(snap.at.as_nanos()),
        snap.lfs.len(),
        snap.alerts.len()
    );
    if let Some(k) = &snap.kernel {
        let _ = writeln!(
            out,
            "kernel: {} events, {} msgs, {} dispatches, {} bytes sent",
            k.events, k.messages, k.dispatches, k.bytes_sent
        );
    }
    let s = &snap.server;
    let _ = writeln!(
        out,
        "server: {} ops ({} replays), dedup {}/{} peak, resends {}",
        s.ops, s.replays, s.dedup_occupancy, s.dedup_peak, s.lfs_resends
    );
    if s.txns_begun > 0 {
        let _ = writeln!(
            out,
            "2pc:    {} begun, {} committed, {} aborted, {} in doubt",
            s.txns_begun, s.txns_committed, s.txns_aborted, s.txns_in_doubt
        );
    }
    if s.degraded_reads > 0 || s.columns_lost > 0 || s.rebuilds_started > 0 {
        let _ = writeln!(
            out,
            "redund: {} degraded reads, {} columns lost, rebuilds {}/{} ({}/{} blocks)",
            s.degraded_reads,
            s.columns_lost,
            s.rebuilds_done,
            s.rebuilds_started,
            s.rebuild_done_blocks,
            s.rebuild_total_blocks
        );
    }
    if snap.service.count() > 0 {
        let _ = writeln!(
            out,
            "latency: {} ops, mean {:.3} ms, p99 <= {:.3} ms, max {:.3} ms",
            snap.service.count(),
            snap.service.mean().as_nanos() as f64 / 1e6,
            snap.service.quantile_bound(0.99) as f64 / 1e6,
            snap.service.max().as_nanos() as f64 / 1e6
        );
    }
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>7} {:>11} {:>11} {:>9} {:>8} {:>8} {:>7}  state",
        "lfs",
        "busy%",
        "ops",
        "queue(d/pk)",
        "wal(use/cap)",
        "gc(av/mx)",
        "reads",
        "writes",
        "free"
    );
    for (i, l) in snap.lfs.iter().enumerate() {
        let elapsed = SimDuration::from_nanos(snap.at.as_nanos());
        let state = if l.media_lost {
            "LOST"
        } else if l.crash_down {
            "DOWN"
        } else {
            "ok"
        };
        let _ = writeln!(
            out,
            "{:>4} {:>6.1} {:>7} {:>11} {:>11} {:>9} {:>8} {:>8} {:>7}  {}",
            i,
            100.0 * l.disk.utilization(elapsed),
            l.ops_served,
            format!("{}/{}", l.queue_depth, l.queue_depth_peak),
            format!("{}/{}", l.wal_ring_used, l.wal_ring_capacity),
            format!("{:.1}/{}", l.batch_mean(), l.batch_max),
            l.disk.reads,
            l.disk.writes,
            l.free_blocks,
            state
        );
    }
    if !snap.alerts.is_empty() {
        let _ = writeln!(out, "alerts:");
        for a in &snap.alerts {
            let _ = writeln!(
                out,
                "  [{}] t={:.3}s {}",
                a.rule.name(),
                secs(a.at.as_nanos()),
                a.detail
            );
        }
    }
    if !snap.events.is_empty() {
        let shown = snap.events.len().min(8);
        let _ = writeln!(
            out,
            "events (last {shown} of {}{}):",
            snap.events.len(),
            if snap.events_dropped > 0 {
                format!(", {} dropped", snap.events_dropped)
            } else {
                String::new()
            }
        );
        for e in snap.events.iter().rev().take(shown).rev() {
            let mut line = format!("  t={:.3}s {}", secs(e.at.as_nanos()), e.event.name());
            for (k, v) in e.event.args() {
                let _ = write!(line, " {k}={v}");
            }
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

/// How one member of an exported object is read off its struct.
enum Get<T> {
    Num(fn(&T) -> u64),
    Flag(fn(&T) -> bool),
}
use Get::{Flag, Num};

/// One exported JSON object: member name and accessor, in export order.
type Table<T> = &'static [(&'static str, Get<T>)];

const KERNEL: Table<RunStats> = &[
    ("events", Num(|k| k.events)),
    ("messages", Num(|k| k.messages)),
    ("spawned", Num(|k| k.spawned)),
    ("bytes_sent", Num(|k| k.bytes_sent)),
    ("queue_high_water", Num(|k| k.queue_high_water as u64)),
    ("dispatches", Num(|k| k.dispatches)),
    ("syscalls", Num(|k| k.syscalls)),
    ("wakes_elided", Num(|k| k.wakes_elided)),
    ("ready_peak", Num(|k| k.ready_peak)),
    ("end_time_nanos", Num(|k| k.end_time.as_nanos())),
];

const SERVER: Table<ServerTelemetry> = &[
    ("ops", Num(|s| s.ops)),
    ("replays", Num(|s| s.replays)),
    ("dedup_occupancy", Num(|s| s.dedup_occupancy)),
    ("dedup_peak", Num(|s| s.dedup_peak)),
    ("txns_begun", Num(|s| s.txns_begun)),
    ("txns_committed", Num(|s| s.txns_committed)),
    ("txns_aborted", Num(|s| s.txns_aborted)),
    ("txns_in_doubt", Num(|s| s.txns_in_doubt)),
    ("degraded_reads", Num(|s| s.degraded_reads)),
    ("columns_lost", Num(|s| s.columns_lost)),
    ("lfs_resends", Num(|s| s.lfs_resends)),
    ("rebuilds_started", Num(|s| s.rebuilds_started)),
    ("rebuilds_done", Num(|s| s.rebuilds_done)),
    ("rebuild_done_blocks", Num(|s| s.rebuild_done_blocks)),
    ("rebuild_total_blocks", Num(|s| s.rebuild_total_blocks)),
];

const DISK: Table<DiskTelemetry> = &[
    ("reads", Num(|d| d.reads)),
    ("writes", Num(|d| d.writes)),
    ("buffer_hits", Num(|d| d.buffer_hits)),
    ("track_loads", Num(|d| d.track_loads)),
    ("head_travel", Num(|d| d.head_travel)),
    ("transient_faults", Num(|d| d.transient_faults)),
    ("busy_nanos", Num(|d| d.busy_nanos)),
    ("lost", Flag(|d| d.lost)),
];

/// An LFS element's members after its leading `"disk"` object.
const LFS: Table<LfsTelemetry> = &[
    ("wal_enabled", Flag(|l| l.wal_enabled)),
    ("wal_commits", Num(|l| l.wal_commits)),
    ("wal_checkpoints", Num(|l| l.wal_checkpoints)),
    ("wal_ring_used", Num(|l| l.wal_ring_used)),
    ("wal_ring_capacity", Num(|l| l.wal_ring_capacity)),
    ("group_commit_width", Num(|l| l.group_commit_width)),
    ("free_blocks", Num(|l| l.free_blocks)),
    ("media_lost", Flag(|l| l.media_lost)),
    ("crash_down", Flag(|l| l.crash_down)),
    ("ops_served", Num(|l| l.ops_served)),
    ("batches", Num(|l| l.batches)),
    ("batched_ops", Num(|l| l.batched_ops)),
    ("batch_max", Num(|l| l.batch_max)),
    ("queue_depth", Num(|l| l.queue_depth)),
    ("queue_depth_peak", Num(|l| l.queue_depth_peak)),
    ("queue_waits", Num(|l| l.queue_waits)),
    ("queue_wait_nanos", Num(|l| l.queue_wait_nanos)),
    ("service_count", Num(|l| l.service.count())),
    ("service_p99_ns", Num(|l| l.service.quantile_bound(0.99))),
];

/// The machine-wide service histogram's summary.
const SERVICE: Table<Histogram> = &[
    ("count", Num(|h| h.count())),
    ("mean_ns", Num(|h| h.mean().as_nanos())),
    ("p50_ns", Num(|h| h.quantile_bound(0.5))),
    ("p99_ns", Num(|h| h.quantile_bound(0.99))),
    ("max_ns", Num(|h| h.max().as_nanos())),
];

/// Writes `t`'s members as `"name": value, ...` in table order.
fn write_members<T>(out: &mut String, t: &T, table: Table<T>) {
    for (i, (key, get)) in table.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_str(out, key);
        let _ = match get {
            Num(get) => write!(out, ": {}", get(t)),
            Flag(get) => write!(out, ": {}", get(t)),
        };
    }
}

fn write_obj<T>(out: &mut String, t: &T, table: Table<T>) {
    out.push('{');
    write_members(out, t, table);
    out.push('}');
}

/// Checks that `obj` carries every member of `table` with its type.
fn check_members<T>(obj: &Json, table: Table<T>, origin: &str) -> Result<(), String> {
    for (key, get) in table {
        match (get, obj.get(key)) {
            (Flag(_), Some(Json::Bool(_))) => {}
            (Flag(_), _) => return Err(format!("{origin}: missing boolean {key:?}")),
            (Num(_), _) => drop(obj.num(key, origin)?),
        }
    }
    Ok(())
}

/// Serializes one snapshot as a JSON object (the `bridge-top --json`
/// export element; see [`validate_health_json`] for the schema).
pub fn snapshot_to_json(snap: &HealthSnapshot) -> String {
    let mut out = format!("{{\"at_nanos\": {}", snap.at.as_nanos());
    if let Some(k) = &snap.kernel {
        out.push_str(", \"kernel\": ");
        write_obj(&mut out, k, KERNEL);
    }
    out.push_str(", \"server\": ");
    write_obj(&mut out, &snap.server, SERVER);
    out.push_str(", \"lfs\": [");
    for (i, l) in snap.lfs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"disk\": ");
        write_obj(&mut out, &l.disk, DISK);
        out.push_str(", ");
        write_members(&mut out, l, LFS);
        out.push('}');
    }
    out.push_str("], \"events\": [");
    for (i, e) in snap.events.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"at_nanos\": {}, \"name\": ", e.at.as_nanos());
        json::write_str(&mut out, e.event.name());
        out.push_str(", \"args\": {");
        for (j, (k, v)) in e.event.args().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, k);
            let _ = write!(out, ": {v}");
        }
        out.push_str("}}");
    }
    let _ = write!(
        out,
        "], \"events_dropped\": {}, \"service\": ",
        snap.events_dropped
    );
    write_obj(&mut out, &snap.service, SERVICE);
    out.push_str(", \"alerts\": [");
    for (i, a) in snap.alerts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"rule\": ");
        json::write_str(&mut out, a.rule.name());
        let _ = write!(out, ", \"at_nanos\": {}, \"detail\": ", a.at.as_nanos());
        json::write_str(&mut out, &a.detail);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Serializes a poll series as the `bridge-top --json` document:
/// `{"snapshots": [...]}`.
pub fn snapshots_to_json(snaps: &[HealthSnapshot]) -> String {
    let mut out = String::from("{\"snapshots\": [\n");
    for (i, s) in snaps.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&snapshot_to_json(s));
    }
    out.push_str("\n]}\n");
    out
}

fn member<'a>(obj: &'a Json, key: &str, origin: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{origin}: missing {key:?}"))
}

fn array<'a>(obj: &'a Json, key: &str, origin: &str) -> Result<&'a [Json], String> {
    obj.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{origin}: missing {key:?} array"))
}

fn string<'a>(obj: &'a Json, key: &str, origin: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{origin}: missing string {key:?}"))
}

/// Validates a `bridge-top --json` document against the health-snapshot
/// schema, returning the number of snapshots. Mirrors the profiler's
/// exporter audit: parse the exact bytes back and check every required
/// member and type — the tables the writer iterates, plus `kernel`
/// whenever a snapshot carries one.
///
/// # Errors
///
/// Returns the first schema violation found.
pub fn validate_health_json(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let snaps = array(&doc, "snapshots", "document")?;
    for (i, snap) in snaps.iter().enumerate() {
        let origin = format!("snapshot {i}");
        snap.num("at_nanos", &origin)?;
        if let Some(kernel) = snap.get("kernel") {
            check_members(kernel, KERNEL, &format!("{origin} kernel"))?;
        }
        let server = member(snap, "server", &origin)?;
        check_members(server, SERVER, &format!("{origin} server"))?;
        for (j, l) in array(snap, "lfs", &origin)?.iter().enumerate() {
            let origin = format!("{origin} lfs {j}");
            let disk = member(l, "disk", &origin)?;
            check_members(disk, DISK, &format!("{origin} disk"))?;
            check_members(l, LFS, &origin)?;
        }
        for (j, e) in array(snap, "events", &origin)?.iter().enumerate() {
            let origin = format!("{origin} event {j}");
            e.num("at_nanos", &origin)?;
            string(e, "name", &origin)?;
            match e.get("args") {
                Some(Json::Obj(_)) => {}
                _ => return Err(format!("{origin}: missing \"args\" object")),
            }
        }
        snap.num("events_dropped", &origin)?;
        let service = member(snap, "service", &origin)?;
        check_members(service, SERVICE, &format!("{origin} service"))?;
        for (j, a) in array(snap, "alerts", &origin)?.iter().enumerate() {
            let origin = format!("{origin} alert {j}");
            string(a, "rule", &origin)?;
            a.num("at_nanos", &origin)?;
            string(a, "detail", &origin)?;
        }
    }
    Ok(snaps.len())
}
