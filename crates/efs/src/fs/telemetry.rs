//! Live telemetry: the gauges an instance publishes into the machine's
//! shared registry, and the point-in-time snapshot `GetTelemetry` serves.

use super::Efs;
use bridge_trace::{DiskTelemetry, LfsTelemetry, TelemetryRegistry};
use simdisk::BlockDevice;
use std::sync::{Arc, MutexGuard};

/// This instance's handle into the machine's shared telemetry registry:
/// the registry itself (journal events) and the instance's column index.
#[derive(Debug, Clone)]
pub struct EfsTelemetry {
    /// The machine-wide registry; typed journal events go here.
    pub registry: Arc<TelemetryRegistry>,
    /// This instance's column index in the registry.
    pub index: u32,
}

impl EfsTelemetry {
    /// This instance's counters in the registry, locked for one update.
    pub fn counters(&self) -> MutexGuard<'_, LfsTelemetry> {
        self.registry.lfs(self.index as usize)
    }
}

impl<D: BlockDevice> Efs<D> {
    /// Arms live telemetry: this instance publishes its gauges into the
    /// machine-wide `registry` under column `index`. Observation-only —
    /// counter updates are host-side and never touch virtual time.
    pub fn set_telemetry(&mut self, registry: Arc<TelemetryRegistry>, index: u32) {
        self.telemetry = Some(EfsTelemetry { registry, index });
        self.publish_telemetry();
    }

    /// The armed telemetry handle, if any.
    pub fn telemetry(&self) -> Option<&EfsTelemetry> {
        self.telemetry.as_ref()
    }

    /// Copies the current gauges into `t`: the WAL ring, group-commit
    /// width, free space and media state from this instance's accessors,
    /// and the disk section straight from the device's own
    /// [`DiskStats`](simdisk::DiskStats), so it reconciles exactly.
    fn fill_gauges(&self, t: &mut LfsTelemetry) {
        let d = self.disk.stats();
        t.disk = DiskTelemetry {
            reads: d.reads,
            writes: d.writes,
            buffer_hits: d.buffer_hits,
            track_loads: d.track_loads,
            head_travel: d.head_travel,
            transient_faults: d.transient_faults,
            busy_nanos: d.busy.as_nanos(),
            lost: self.media_lost(),
        };
        (t.wal_commits, t.wal_checkpoints) = self.wal_counters();
        let (used, capacity) = self.wal_ring_usage();
        t.wal_enabled = self.wal_enabled();
        t.wal_ring_used = u64::from(used);
        t.wal_ring_capacity = u64::from(capacity);
        t.group_commit_width = u64::from(self.group_commit_width());
        t.free_blocks = u64::from(self.free_blocks());
        t.media_lost = self.media_lost();
        t.crash_down = self.crash_down().is_some();
    }

    /// Publishes the current gauges into the registry — after every
    /// service batch, recovery and spare install. No-op when unarmed.
    pub fn publish_telemetry(&self) {
        if let Some(t) = &self.telemetry {
            self.fill_gauges(&mut t.counters());
        }
    }

    /// A complete point-in-time [`LfsTelemetry`] for this instance: the
    /// registry's scheduler counters (zeroes when unarmed) under gauges
    /// read this instant, even mid-operation.
    pub fn telemetry_snapshot(&self) -> LfsTelemetry {
        let mut snap = match &self.telemetry {
            Some(t) => t.counters().clone(),
            None => LfsTelemetry::default(),
        };
        self.fill_gauges(&mut snap);
        snap
    }
}
