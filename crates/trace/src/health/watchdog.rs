//! The watchdog: SLO rules evaluated over a snapshot's figures and the
//! journal at snapshot time.

use super::{HealthEvent, JournalEntry, LfsTelemetry, ServerTelemetry};
use parsim::{SimDuration, SimTime};

/// SLO rules the watchdog evaluates over the live feed at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// A rebuild is in progress but its last journal activity is older
    /// than this: alert [`AlertRule::StalledRebuild`].
    pub stalled_rebuild_after: SimDuration,
    /// Cumulative server→LFS retransmits at or above this: alert
    /// [`AlertRule::RetryStorm`].
    pub retry_storm_resends: u64,
    /// Any instance whose queue-depth high water reaches this: alert
    /// [`AlertRule::QueueSaturation`].
    pub queue_saturation_depth: u64,
    /// Any armed WAL ring at or above this percent full: alert
    /// [`AlertRule::WalRingNearFull`].
    pub wal_ring_pct: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stalled_rebuild_after: SimDuration::from_millis(500),
            retry_storm_resends: 8,
            queue_saturation_depth: 48,
            wal_ring_pct: 90,
        }
    }
}

/// The watchdog rule behind an [`Alert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertRule {
    /// A column is lost or a rebuild is still filling a spare: reads of
    /// the affected ranges are served reconstructed.
    DegradedService,
    /// A rebuild started but has made no journal progress within the
    /// configured window.
    StalledRebuild,
    /// Server→LFS retransmits crossed the storm threshold.
    RetryStorm,
    /// An instance's pending queue reached the saturation depth.
    QueueSaturation,
    /// An armed WAL ring is near full (checkpointing is not keeping up).
    WalRingNearFull,
}

impl AlertRule {
    /// Stable rule name (dashboard and JSON export key off it).
    pub fn name(&self) -> &'static str {
        match self {
            AlertRule::DegradedService => "degraded-service",
            AlertRule::StalledRebuild => "stalled-rebuild",
            AlertRule::RetryStorm => "retry-storm",
            AlertRule::QueueSaturation => "queue-saturation",
            AlertRule::WalRingNearFull => "wal-ring-near-full",
        }
    }
}

/// A watchdog rule firing at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// The rule that fired.
    pub rule: AlertRule,
    /// Virtual time of the snapshot that saw it.
    pub at: SimTime,
    /// Human-readable specifics.
    pub detail: String,
}

impl WatchdogConfig {
    /// Evaluates every rule over a live view, returning the alerts that
    /// fire. Pure: same inputs, same alerts.
    pub fn evaluate(
        &self,
        at: SimTime,
        server: &ServerTelemetry,
        lfs: &[LfsTelemetry],
        events: &[JournalEntry],
    ) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let rebuild_active = server.rebuilds_started > server.rebuilds_done;
        let lost: Vec<usize> = lfs
            .iter()
            .enumerate()
            .filter(|(_, l)| l.media_lost)
            .map(|(i, _)| i)
            .collect();
        if !lost.is_empty() || rebuild_active {
            let detail = if lost.is_empty() {
                format!(
                    "rebuild in progress ({}/{} blocks), reads of unrebuilt ranges reconstruct",
                    server.rebuild_done_blocks, server.rebuild_total_blocks
                )
            } else {
                format!(
                    "media lost on lfs {lost:?}; {} degraded reads served",
                    server.degraded_reads
                )
            };
            alerts.push(Alert {
                rule: AlertRule::DegradedService,
                at,
                detail,
            });
        }
        if rebuild_active {
            let last_activity = events
                .iter()
                .rev()
                .find(|e| {
                    matches!(
                        e.event,
                        HealthEvent::RebuildStart { .. }
                            | HealthEvent::RebuildChunk { .. }
                            | HealthEvent::RebuildDone { .. }
                    )
                })
                .map(|e| e.at);
            if let Some(last) = last_activity {
                if at.saturating_duration_since(last) > self.stalled_rebuild_after {
                    alerts.push(Alert {
                        rule: AlertRule::StalledRebuild,
                        at,
                        detail: format!(
                            "rebuild at {}/{} blocks, no progress for {:?}",
                            server.rebuild_done_blocks,
                            server.rebuild_total_blocks,
                            at.saturating_duration_since(last)
                        ),
                    });
                }
            }
        }
        if server.lfs_resends >= self.retry_storm_resends {
            alerts.push(Alert {
                rule: AlertRule::RetryStorm,
                at,
                detail: format!(
                    "{} server-to-LFS retransmits (threshold {})",
                    server.lfs_resends, self.retry_storm_resends
                ),
            });
        }
        for (i, l) in lfs.iter().enumerate() {
            if l.queue_depth_peak >= self.queue_saturation_depth {
                alerts.push(Alert {
                    rule: AlertRule::QueueSaturation,
                    at,
                    detail: format!(
                        "lfs {i} queue depth peaked at {} (threshold {})",
                        l.queue_depth_peak, self.queue_saturation_depth
                    ),
                });
            }
            if l.wal_ring_capacity > 0
                && l.wal_ring_used * 100 >= self.wal_ring_pct * l.wal_ring_capacity
            {
                alerts.push(Alert {
                    rule: AlertRule::WalRingNearFull,
                    at,
                    detail: format!(
                        "lfs {i} WAL ring {}/{} blocks live (threshold {}%)",
                        l.wal_ring_used, l.wal_ring_capacity, self.wal_ring_pct
                    ),
                });
            }
        }
        alerts
    }
}
