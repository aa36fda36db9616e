//! The [`ProfileReport`]: per-op attribution, run critical path, and the
//! flight-recorder series bundled into one exportable artifact, with a
//! hand-rolled JSON encoding (same style as the Chrome exporter — no
//! serde) and an ASCII rendering for terminals and CI logs.

use crate::collect::TraceData;
use crate::json::{parse, write_str, Json};
use crate::profile::{breakdown_json, breakdown_table, profile, Profile};
use crate::series::{sample, TimeSeries};
use std::fmt::Write as _;

/// A complete profiling artifact for one traced run.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Per-op attribution and the whole-run critical path.
    pub profile: Profile,
    /// Binned flight-recorder counters.
    pub series: TimeSeries,
}

impl ProfileReport {
    /// Profiles `data` and samples its flight recorder into `bins`
    /// virtual-time columns.
    pub fn from_trace(data: &TraceData, bins: usize) -> Self {
        ProfileReport {
            profile: profile(data),
            series: sample(data, bins),
        }
    }

    /// Serialises the report as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let cp = &self.profile.critical_path;
        let _ = write!(out, "\"makespan_nanos\":{},", cp.makespan_nanos);
        let _ = write!(
            out,
            "\"critical_path\":{{\"total_nanos\":{},\"hops\":{},\"categories\":",
            cp.breakdown.total(),
            cp.hops
        );
        breakdown_json(&mut out, &cp.breakdown);
        out.push_str("},\"totals\":");
        breakdown_json(&mut out, &self.profile.total());
        out.push_str(",\"ops\":[");
        for (i, op) in self.profile.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_str(&mut out, &op.name);
            let _ = write!(
                out,
                ",\"client\":{},\"server\":{},\"id\":{},\"start_nanos\":{},\"latency_nanos\":{},\"ok\":{},\"untraced_nanos\":{},\"categories\":",
                op.client,
                op.server,
                op.id,
                op.start_nanos,
                op.latency_nanos(),
                op.ok,
                op.untraced_nanos()
            );
            breakdown_json(&mut out, &op.breakdown);
            out.push('}');
        }
        out.push_str("],\"series\":");
        out.push_str(&self.series.to_json());
        out.push('}');
        out
    }

    /// Renders the report as ASCII tables plus the series sparklines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let cp = &self.profile.critical_path;
        let _ = writeln!(
            out,
            "critical path: {:.3} ms makespan, {} interconnect hops",
            cp.makespan_nanos as f64 / 1e6,
            cp.hops
        );
        breakdown_table(&mut out, &cp.breakdown, cp.makespan_nanos);
        let totals = self.profile.total();
        let _ = writeln!(
            out,
            "operation totals: {} ops, {:.3} ms summed latency",
            self.profile.ops.len(),
            totals.total() as f64 / 1e6
        );
        breakdown_table(&mut out, &totals, totals.total());
        out.push_str(&self.series.render());
        out
    }
}

/// Parses a [`ProfileReport::to_json`] document and audits its
/// arithmetic: every op's categories must sum exactly to its latency and
/// the critical path's categories to the makespan.
///
/// # Errors
///
/// A description of the first structural or arithmetic problem.
pub fn validate_profile_json(src: &str) -> Result<(), String> {
    let doc = parse(src)?;
    let makespan = doc.num("makespan_nanos", "profile")? as u64;
    let cp = doc.get("critical_path").ok_or("missing critical_path")?;
    let cp_total = cp.num("total_nanos", "critical_path")? as u64;
    if cp_total != makespan {
        return Err(format!(
            "critical path total {cp_total} != makespan {makespan}"
        ));
    }
    if category_sum(cp)? != cp_total {
        return Err("critical path categories do not sum to its total".to_string());
    }
    let ops = doc
        .get("ops")
        .and_then(Json::as_arr)
        .ok_or("missing ops array")?;
    for (i, op) in ops.iter().enumerate() {
        let latency = op.num("latency_nanos", format_args!("op {i}"))? as u64;
        let sum = category_sum(op)?;
        if sum != latency {
            return Err(format!(
                "op {i}: categories sum to {sum}, latency is {latency}"
            ));
        }
    }
    doc.get("series").ok_or("missing series")?;
    Ok(())
}

fn category_sum(v: &Json) -> Result<u64, String> {
    match v.get("categories") {
        Some(Json::Obj(members)) => Ok(members
            .iter()
            .filter_map(|(_, v)| v.as_f64())
            .map(|f| f as u64)
            .sum()),
        _ => Err("missing categories object".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::TraceCollector;
    use parsim::{SimConfig, SimDuration, Simulation};

    #[test]
    fn report_round_trips_and_validates() {
        let collector = TraceCollector::install();
        let mut sim = Simulation::new(SimConfig {
            tracer: Some(collector.as_tracer()),
            ..SimConfig::default()
        });
        let node = sim.add_node("n0");
        let echo = sim.spawn(node, "echo", |ctx| loop {
            let (from, n) = ctx.recv_as::<u64>();
            ctx.delay(SimDuration::from_micros(2));
            ctx.send(from, n);
        });
        sim.block_on(node, "main", move |ctx| {
            ctx.send(echo, 9u64);
            let (_, _r) = ctx.recv_as::<u64>();
        });
        let data = collector.take();
        let report = ProfileReport::from_trace(&data, 8);
        let json = report.to_json();
        validate_profile_json(&json).expect("report JSON is sound");
        assert!(report.render().contains("critical path"));
    }

    #[test]
    fn validator_rejects_broken_arithmetic() {
        let bad = r#"{"makespan_nanos":10,"critical_path":{"total_nanos":9,"hops":0,"categories":{"untraced":9}},"totals":{},"ops":[],"series":{}}"#;
        assert!(validate_profile_json(bad).is_err());
    }
}
