//! Live telemetry: the gauges an instance publishes into the machine's
//! shared registry, and the point-in-time snapshot `GetTelemetry` serves.

use super::Efs;
use bridge_trace::{FsGauges, LfsCounters, LfsTelemetry, TelemetryRegistry};
use simdisk::BlockDevice;
use std::sync::Arc;

/// This instance's handle into the machine's shared telemetry registry:
/// the registry itself (journal events), the instance's column index, and
/// its live counters.
#[derive(Debug, Clone)]
pub struct EfsTelemetry {
    /// The machine-wide registry; typed journal events go here.
    pub registry: Arc<TelemetryRegistry>,
    /// This instance's column index in the registry.
    pub index: u32,
    /// This instance's live counters.
    pub counters: Arc<LfsCounters>,
}

impl<D: BlockDevice> Efs<D> {
    /// Arms live telemetry: this instance publishes its gauges into the
    /// machine-wide `registry` under column `index`. Observation-only —
    /// counter updates are host-side and never touch virtual time.
    pub fn set_telemetry(&mut self, registry: Arc<TelemetryRegistry>, index: u32) {
        let counters = registry.lfs(index as usize);
        self.telemetry = Some(EfsTelemetry {
            registry,
            index,
            counters,
        });
        self.publish_telemetry();
    }

    /// The armed telemetry handle, if any.
    pub fn telemetry(&self) -> Option<&EfsTelemetry> {
        self.telemetry.as_ref()
    }

    /// The current file-system gauges: WAL ring, group-commit width, free
    /// space, media state.
    fn gauges(&self) -> FsGauges {
        let (wal_commits, wal_checkpoints) = self.wal_counters();
        let (used, capacity) = self.wal_ring_usage();
        FsGauges {
            wal_enabled: self.wal_enabled(),
            wal_commits,
            wal_checkpoints,
            wal_ring_used: u64::from(used),
            wal_ring_capacity: u64::from(capacity),
            group_commit_width: u64::from(self.group_commit_width()),
            free_blocks: u64::from(self.free_blocks()),
            media_lost: self.media_lost(),
            crash_down: self.crash_down().is_some(),
        }
    }

    /// Publishes the current gauges into the telemetry counters. No-op
    /// when unarmed.
    pub fn publish_telemetry(&self) {
        if let Some(t) = &self.telemetry {
            t.counters.publish_fs(self.gauges());
        }
    }

    /// A complete point-in-time [`LfsTelemetry`] for this instance. The
    /// disk section is read straight from the device's own
    /// [`DiskStats`](simdisk::DiskStats) so the snapshot reconciles
    /// exactly, even mid-operation. Returns gauges-from-accessors with
    /// zeroed counters when telemetry is unarmed.
    pub fn telemetry_snapshot(&self) -> LfsTelemetry {
        let snapshot = |counters: &LfsCounters| {
            counters.publish_fs(self.gauges());
            counters.snapshot()
        };
        let mut snap = match &self.telemetry {
            Some(t) => snapshot(&t.counters),
            None => snapshot(&LfsCounters::default()),
        };
        let d = self.disk.stats();
        snap.disk.reads = d.reads;
        snap.disk.writes = d.writes;
        snap.disk.buffer_hits = d.buffer_hits;
        snap.disk.track_loads = d.track_loads;
        snap.disk.head_travel = d.head_travel;
        snap.disk.transient_faults = d.transient_faults;
        snap.disk.busy_nanos = d.busy.as_nanos();
        snap.disk.lost = self.media_lost();
        snap
    }
}
