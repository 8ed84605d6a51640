//! The metric tables, named and united as `BENCHMARK.json` lists them, and
//! the result line.

use crate::{host, stats};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cost_p50", "cost"),
    ("vtime_p50", "vtime"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("core.step_self_us_p50", "us"),
    ("core.steps", "count"),
    ("core.batches_per_step", "ratio"),
    ("eval.extend_ns_p50", "ns"),
    ("eval.extends", "count"),
    ("mw.batch_us_p50", "us"),
    ("mw.batch_us_p90", "us"),
    ("mw.jobs_per_batch", "ratio"),
    ("mw.dispatch_self_us_p50", "us"),
    ("mw.retries", "count"),
    ("mw.timeouts", "count"),
    ("mw.busy_pct", "%"),
    ("wire.bytes_per_job", "B"),
    ("wire.frames", "count"),
    ("wire.encode_us_per_job", "us"),
    ("wire.decode_us_per_job", "us"),
    ("wire.inline_jobs", "count"),
    ("water.eval_ms_p50", "ms"),
    ("water.force_us_p50", "us"),
    ("water.worker_util", "ratio"),
    ("ckpt.writes", "count"),
    ("ckpt.bytes_per_write", "B"),
    ("ckpt.save_ms_p50", "ms"),
    ("ckpt.save_ms_p90", "ms"),
    ("sched.tick_self_us_p50", "us"),
    ("sched.preemptions", "count"),
    ("sched.jobs_per_dispatch", "ratio"),
    ("sched.wait_ms_p50", "ms"),
    ("sched.queue_depth_hwm", "count"),
    ("gen.late_ms_p90", "ms"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One workload's outcome: the run counts, anything that went wrong, the
/// metrics of the table the mode prints, and the effective configuration.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    values: Vec<(&'static str, &'static str, f64)>,
    config: Vec<(&'static str, String)>,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        let table: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
        Report {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            values: table.iter().map(|&(n, u)| (n, u, 0.0)).collect(),
            config: Vec::new(),
        }
    }

    /// Record one line of the effective configuration.
    pub fn config(&mut self, key: &'static str, value: impl Into<String>) {
        self.config.push((key, value.into()));
    }

    /// Record a failed check; the run then reports `correct: false`.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Count a pass's runs.
    pub fn runs(&mut self, attempted: usize, failed: u64) {
        self.attempted += attempted as u64;
        self.failed += failed;
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|v| v.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this mode"));
        slot.2 = value;
    }

    /// Set an end-to-end metric. One that could not be measured, or is not
    /// finite, makes the run incorrect rather than printing a made-up value.
    pub fn require(&mut self, name: &str, value: Option<f64>) {
        match value {
            Some(v) if v.is_finite() => self.set(name, v),
            _ => self.problem(format!("{name} could not be measured")),
        }
    }

    /// Set a per-layer metric; a percentile without enough samples reads 0.
    pub fn layer(&mut self, name: &str, value: Option<f64>) {
        self.set(name, value.filter(|v| v.is_finite()).unwrap_or(0.0));
    }

    /// The end-to-end table from a workload's measurements.
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        run_ms: &[f64],
        runs_per_s: f64,
        costs: &[f64],
        vtimes: &[f64],
    ) {
        self.require("setup_s", Some(stats::median(setup_s)));
        self.require("run_ms_p50", stats::percentile(run_ms, 0.5));
        self.require("run_ms_p90", stats::percentile(run_ms, 0.9));
        self.require("runs_per_s", Some(runs_per_s));
        self.require("peak_rss_mb", host::peak_rss_mb());
        self.require("cost_p50", stats::percentile(costs, 0.5));
        self.require("vtime_p50", stats::percentile(vtimes, 0.5));
        self.config(
            "samples",
            format!(
                "setups={} runs={} answers={}",
                setup_s.len(),
                run_ms.len(),
                costs.len()
            ),
        );
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Print the configuration and any problems as `#` lines, then the
    /// result line last.
    pub fn print(&self) {
        for (k, v) in &self.config {
            println!("# {k}: {v}");
        }
        for p in &self.problems {
            println!("# problem: {p}");
            eprintln!("error: {p}");
        }
        println!("{}", self.json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::{self, Value};

    fn names(list: &Value) -> Vec<String> {
        match list {
            Value::Array(items) => items
                .iter()
                .map(|m| match m.get("name") {
                    Some(Value::String(s)) => s.clone(),
                    other => panic!("metric without a name: {other:?}"),
                })
                .collect(),
            other => panic!("not a list: {other:?}"),
        }
    }

    #[test]
    fn every_emitted_name_is_well_formed() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(name), "metric name {name:?}");
            assert!(!unit.is_empty() && unit.len() <= 16, "unit {unit:?}");
        }
        for w in crate::Workload::ALL {
            assert!(ok(w.name()), "workload name {:?}", w.name());
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let want = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(
            names(doc.get("end_to_end").expect("end_to_end")),
            want(&END_TO_END)
        );
        assert_eq!(
            names(doc.get("per_layer").expect("per_layer")),
            want(&PER_LAYER)
        );
        let workloads = names(doc.get("workloads").expect("workloads"));
        let ours: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_is_the_contract_object() {
        for traced in [false, true] {
            let mut r = Report::new(traced);
            r.runs(3, 0);
            let doc = json::parse(&r.json()).expect("result line parses");
            let keys: Vec<&String> = doc.as_object().expect("object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            assert_eq!(
                doc.get("metrics")
                    .and_then(Value::as_object)
                    .map(|m| m.len()),
                Some(table.len())
            );
        }
        let mut r = Report::new(false);
        r.require("run_ms_p90", None);
        assert!(
            !r.correct(),
            "an unmeasurable end-to-end metric fails the run"
        );
    }
}
