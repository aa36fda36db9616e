//! The benchmark's contract, `BENCHMARK.json`, compiled into the binary:
//! units, directions and bounds are read from it and nowhere restated, so
//! the file and the program cannot drift apart. The metric *names* the
//! program produces are listed here in code; unit tests hold the two
//! lists equal.

use crate::json::{self, Json};

/// `BENCHMARK.json` as committed at the repository root.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics, in output order.
pub const END_TO_END: [&str; 4] = ["setup_s", "host_cpu_s", "virt_rate", "peak_rss_mb"];

/// One metric's declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics if the committed file is malformed — a build-time mistake,
    /// caught by the unit tests.
    pub fn load() -> Spec {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let text = |v: &Json, key: &str| -> String {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string '{key}'"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .map(Json::elements)
                .unwrap_or_default()
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds") as u64,
            workloads: doc
                .get("workloads")
                .map(Json::elements)
                .unwrap_or_default()
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The declaration of `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The declared unit of `name` (empty if undeclared).
    pub fn unit(&self, name: &str) -> &str {
        self.metric(name).map_or("", |m| m.unit.as_str())
    }
}

/// Ledger rows that report `ns_per_<unit>` and `allocs_per_<unit>`.
const LEDGER_ROWS: [(&str, &str); 26] = [
    ("parsim.pingpong", "event"),
    ("parsim.ring_p256", "event"),
    ("parsim.delay", "event"),
    ("simdisk.read", "block"),
    ("simdisk.write", "block"),
    ("simdisk.read_many", "block"),
    ("simdisk.write_many", "block"),
    ("efs.read", "block"),
    ("efs.write", "block"),
    ("efs.read_run", "block"),
    ("efs.write_run", "block"),
    ("efs.create_delete", "block"),
    ("efs_wal.write", "block"),
    ("lfs.read", "block"),
    ("lfs.write", "block"),
    ("lfs.read_run", "block"),
    ("lfs.write_run", "block"),
    ("bridge.seq_read", "block"),
    ("bridge.seq_write", "block"),
    ("bridge.rand_read", "block"),
    ("bridge.rand_write", "block"),
    ("bridge.create_delete", "block"),
    ("bridge2pc.create_delete", "block"),
    ("bridge2pc.parity_rand_write", "block"),
    ("tools.copy", "block"),
    ("tools.sort", "block"),
];

/// Ledger metrics that are not an ns/allocs pair.
const LEDGER_SINGLES: [&str; 4] = [
    "ledger.efs.rand_read.walk_steps_per_block",
    "ledger.setup.build_ns_per_node",
    "ledger.trace.profile_ns_per_op",
    "ledger.trace.collect_overhead_ratio",
];

/// Metrics read per workload.
const PER_WORKLOAD: [&str; 44] = [
    "parsim.events",
    "parsim.messages",
    "parsim.bytes_sent",
    "parsim.dispatches",
    "parsim.queue_high_water",
    "parsim.ready_peak",
    "parsim.host_ns_per_event",
    "simdisk.reads",
    "simdisk.writes",
    "simdisk.track_loads",
    "simdisk.buffer_hit_ratio",
    "simdisk.busy_sum_virt_s",
    "simdisk.busy_max_virt_s",
    "simdisk.utilization",
    "efs.ops_served",
    "efs.batch_mean",
    "efs.queue_depth_peak",
    "efs.queue_wait_virt_s",
    "efs.wal_commits",
    "efs.ops_per_wal_commit",
    "core.ops",
    "core.txns_committed",
    "core.txns_aborted",
    "core.degraded_reads",
    "core.lfs_resends",
    "core.replays",
    "client.virt_s",
    "client.virt_op_p50_ms",
    "client.virt_op_p99_ms",
    "tools.sort_local_virt_s",
    "tools.sort_merge_virt_s",
    "alloc.count_per_iter",
    "alloc.bytes_per_iter",
    "share.client_rpc",
    "share.bridge",
    "share.interconnect",
    "share.lfs_queue_wait",
    "share.lfs_serve",
    "share.disk_position",
    "share.disk_transfer",
    "share.retry_backoff",
    "share.tool_compute",
    "share.untraced",
    "trace.spans",
];

/// Names of the ledger metrics, in output order.
pub fn ledger_names() -> Vec<String> {
    let mut names = Vec::new();
    for (row, unit) in LEDGER_ROWS {
        names.push(format!("ledger.{row}.ns_per_{unit}"));
        names.push(format!("ledger.{row}.allocs_per_{unit}"));
    }
    names.extend(LEDGER_SINGLES.iter().map(|s| s.to_string()));
    names
}

/// Names of the per-workload layer metrics, in output order.
pub fn workload_layer_names() -> Vec<String> {
    PER_WORKLOAD.iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;
    use std::collections::BTreeSet;

    /// Every per-layer metric name a `--trace 1` run reports.
    fn per_layer_names() -> Vec<String> {
        let mut names = ledger_names();
        names.extend(workload_layer_names());
        names
    }

    fn set(names: impl IntoIterator<Item = String>) -> BTreeSet<String> {
        names.into_iter().collect()
    }

    #[test]
    fn every_name_printed_is_declared_and_vice_versa() {
        let spec = Spec::load();
        assert_eq!(
            set(spec.end_to_end.iter().map(|m| m.name.clone())),
            set(END_TO_END.iter().map(|s| s.to_string())),
            "end_to_end names differ between BENCHMARK.json and the program"
        );
        let declared = set(spec.per_layer.iter().map(|m| m.name.clone()));
        let printed = set(per_layer_names());
        let missing: Vec<_> = printed.difference(&declared).collect();
        let stale: Vec<_> = declared.difference(&printed).collect();
        assert!(
            missing.is_empty() && stale.is_empty(),
            "per_layer: printed but not declared {missing:?}; declared but not printed {stale:?}"
        );
        assert_eq!(per_layer_names().len(), printed.len(), "duplicate name");
    }

    #[test]
    fn workloads_match_the_program() {
        let spec = Spec::load();
        let declared: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let run: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(declared, run);
    }

    #[test]
    fn contract_limits_hold() {
        let spec = Spec::load();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(ok_name(&m.name), "bad name {}", m.name);
            assert!(ok_unit(&m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        }
        for (name, why) in &spec.workloads {
            assert!(ok_name(name));
            assert!(why.len() <= 200 && !why.contains('\n'));
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }
}
