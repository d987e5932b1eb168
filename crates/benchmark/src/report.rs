//! The result of one run: the JSON object printed as the last line of
//! stdout, and the fuller report file `compare` reads back.

use qdp_telemetry::json::{self, Value};
use std::collections::BTreeMap;

/// One measured number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// What one benchmark process measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Every oracle passed.
    pub correct: bool,
    /// Measured ops.
    pub attempted: u64,
    /// Ops (or whole-run oracles) that failed.
    pub failed: u64,
    /// The metrics of the contract: end-to-end when untraced, per-layer
    /// when traced.
    pub metrics: BTreeMap<String, Metric>,
    /// Further numbers for the report file only (e.g. the simulated clock
    /// of an untraced run, which `compare` holds bit-exact).
    pub extra: BTreeMap<String, Metric>,
    /// Why ops failed, and anything else a reader should know.
    pub notes: Vec<String>,
}

fn metrics_json(metrics: &BTreeMap<String, Metric>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(name),
                json::number(m.value),
                json::escape(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

impl RunResult {
    /// Add a contract metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    /// Add a report-file-only number.
    pub fn put_extra(&mut self, name: &str, value: f64, unit: &str) {
        self.extra.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    /// The one-line JSON object of the benchmark contract: exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// The report file: the result line's content plus identification,
    /// extras and notes.
    pub fn report_json(&self) -> String {
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", json::escape(n)))
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"traced\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {},\n  \"extra\": {},\n  \"notes\": [{}]\n}}\n",
            json::escape(&self.workload),
            self.seed,
            self.traced,
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics),
            metrics_json(&self.extra),
            notes.join(", ")
        )
    }

    /// Read a report file (or a bare result line) back.
    pub fn parse(text: &str) -> Result<RunResult, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let num = |key: &str| v.get(key).and_then(Value::as_f64);
        let flag = |key: &str| match v.get(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        };
        let metric_map = |key: &str| -> Result<BTreeMap<String, Metric>, String> {
            let mut out = BTreeMap::new();
            if let Some(Value::Object(map)) = v.get(key) {
                for (name, m) in map {
                    let value = m
                        .get("value")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("metric {name} has no numeric value"))?;
                    let unit = m
                        .get("unit")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("metric {name} has no unit"))?;
                    out.insert(
                        name.clone(),
                        Metric {
                            value,
                            unit: unit.to_string(),
                        },
                    );
                }
            }
            Ok(out)
        };
        Ok(RunResult {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            seed: num("seed").unwrap_or(0.0) as u64,
            traced: flag("traced").unwrap_or(false),
            correct: flag("correct").ok_or("missing `correct`")?,
            attempted: num("attempted").ok_or("missing `attempted`")? as u64,
            failed: num("failed").ok_or("missing `failed`")? as u64,
            metrics: metric_map("metrics")?,
            extra: metric_map("extra")?,
            notes: v
                .get("notes")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut r = RunResult {
            workload: "cg_model".into(),
            seed: 7,
            traced: false,
            correct: true,
            attempted: 1200,
            failed: 0,
            notes: vec!["a \"quoted\" note".into()],
            ..RunResult::default()
        };
        r.put("wall_op_ms_min", 5.612345678901234, "ms");
        r.put("setup_s", 0.8127, "s");
        r.put("tiny", 1.5e-9, "s");
        r.extra.insert(
            "sim.op_ms".into(),
            Metric {
                value: 32.69000000000001,
                unit: "sim_ms".into(),
            },
        );
        r
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample().result_line();
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let Value::Object(map) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(1200.0));
        let m = v.get("metrics").unwrap().get("wall_op_ms_min").unwrap();
        // every digit survives the writer and the repo's own parser
        assert_eq!(m.get("value").unwrap().as_f64(), Some(5.612345678901234));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn report_round_trips() {
        let r = sample();
        assert_eq!(RunResult::parse(&r.report_json()).unwrap(), r);
        // a bare result line parses too (identification left empty)
        let bare = RunResult::parse(&r.result_line()).unwrap();
        assert_eq!(bare.metrics, r.metrics);
        assert_eq!(bare.attempted, 1200);
        assert!(RunResult::parse("{\"correct\": true}").is_err());
        assert!(RunResult::parse("not json").is_err());
    }
}
