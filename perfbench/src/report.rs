//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; a test keeps the two in step.

/// Whether a smaller or a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit. Simulated time is `sim_us`; `s`, `us` and `ns` are host time.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics printed with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", Lower),
    m("events_per_s", "1/s", Higher),
    m("setup_s", "s", Lower),
    m("peak_rss_mib", "MiB", Lower),
    m("sim_time_us", "sim_us", Lower),
];

/// Metrics printed by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("apps.gen_s", "s", Lower),
    m("apps.reference_s", "s", Lower),
    m("core.cluster_build_s", "s", Lower),
    m("core.loop_s", "s", Lower),
    m("core.ns_per_event", "ns", Lower),
    m("core.events", "count", Lower),
    m("core.handler_invocations", "count", Lower),
    m("core.phase.host_us", "sim_us", Lower),
    m("core.phase.fabric_us", "sim_us", Lower),
    m("core.phase.handler_us", "sim_us", Lower),
    m("core.phase.storage_us", "sim_us", Lower),
    m("mem.load_ns", "ns", Lower),
    m("mem.cache_access_ns", "ns", Lower),
    m("mem.hierarchy_new_us", "us", Lower),
    m("cpu.scan_ns_per_line", "ns", Lower),
    m("cpu.new_us", "us", Lower),
    m("net.crc32_ns_per_packet", "ns", Lower),
    m("net.packetize_ns_per_packet", "ns", Lower),
    m("net.link_send_ns", "ns", Lower),
    m("net.topo_build_s", "s", Lower),
    m("net.packets", "count", Lower),
    m("net.link_bytes", "bytes", Lower),
    m("net.credit_stalls", "count", Lower),
    m("net.credit_stall_ratio", "ratio", Lower),
    m("net.mean_hops", "hops", Lower),
    m("sim.queue_ns_per_op", "ns", Lower),
    m("sim.peak_queue", "count", Lower),
    m("io.disk_read_ns", "ns", Lower),
    m("io.disk_requests", "count", Lower),
    m("bench.self_s", "s", Lower),
    m("apps.self_s", "s", Lower),
    m("core.self_s", "s", Lower),
    m("mem.self_s", "s", Lower),
    m("cpu.self_s", "s", Lower),
    m("net.self_s", "s", Lower),
    m("sim.self_s", "s", Lower),
    m("io.self_s", "s", Lower),
    m("trace.wall_s", "s", Lower),
    m("trace.overhead_s", "s", Lower),
];

/// The catalogue a run prints: end-to-end with tracing off, per-layer
/// with it on.
pub fn catalogue(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// A measured value with a human-readable note on how it was taken.
#[derive(Debug, Clone)]
pub struct Value {
    /// Catalogued name.
    pub name: &'static str,
    /// The value, in the catalogued unit.
    pub value: f64,
    /// How it was measured (sample count, quartiles, op count).
    pub note: String,
}

/// The run's outcome, printed as the last line of standard output.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output matched its reference and every exact count
    /// repeated across passes.
    pub correct: bool,
    /// App calls attempted.
    pub attempted: u64,
    /// App calls that panicked.
    pub failed: u64,
    /// Values, one per catalogued metric, in catalogue order.
    pub values: Vec<Value>,
}

impl Report {
    /// Human-readable lines, one per metric, with unit, direction and note.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for (d, v) in defs.iter().zip(&self.values) {
            out.push_str(&format!(
                "{:<30} {:>16.6} {:<6} {:<6} {}\n",
                d.name,
                v.value,
                d.unit,
                d.better.word(),
                v.note
            ));
        }
        out
    }

    /// The JSON result line. Values keep every digit (`f64` `Display`
    /// is the shortest exact round-trip form).
    ///
    /// # Panics
    ///
    /// Panics if the values do not match `defs` name for name, or a
    /// value is not finite.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        assert_eq!(defs.len(), self.values.len(), "one value per metric");
        let metrics: Vec<String> = defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| {
                assert_eq!(d.name, v.name, "values in catalogue order");
                assert!(v.value.is_finite(), "{} is not finite", d.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, v.value, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asan_bench::json::{self, Value as Json};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {}",
                d.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are unique");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    fn report_for(defs: &[MetricDef]) -> Report {
        Report {
            correct: true,
            attempted: 4,
            failed: 0,
            values: defs
                .iter()
                .enumerate()
                .map(|(i, d)| Value {
                    name: d.name,
                    value: 0.1 + i as f64 / 3.0,
                    note: String::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn report_parses_back() {
        for trace in [false, true] {
            let defs = catalogue(trace);
            let r = report_for(defs);
            let doc = json::parse(&r.to_json(defs)).expect("result line is JSON");
            let Json::Obj(members) = &doc else {
                panic!("result is an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(4));
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("metrics is an object")
            };
            assert_eq!(metrics.len(), defs.len());
            for ((name, m), (d, v)) in metrics.iter().zip(defs.iter().zip(&r.values)) {
                assert_eq!(name, d.name);
                assert_eq!(
                    m.get("value"),
                    Some(&Json::Num(v.value)),
                    "{name} keeps every digit"
                );
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            }
        }
    }

    /// `BENCHMARK.json` lists exactly the catalogued metrics, with the
    /// same units and directions, and the program's workloads.
    #[test]
    fn benchmark_json_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (m, d) in listed.iter().zip(defs) {
                assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(d.better.word()),
                    "{}",
                    d.name
                );
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
