//! Structured, JSON-serializable metrics snapshot — the contract a metrics
//! front end (the planned `qdp-serve`) polls. Everything the registry
//! knows, rendered through the in-tree JSON writer so it round-trips
//! through [`crate::json::parse`].

use crate::json;
use crate::report::ProfileReport;
use crate::FlightEvent;
use std::fmt::Write as _;

/// Schema version stamped into every snapshot; bump on breaking changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One self-describing metrics snapshot (see [`crate::Telemetry::snapshot`]).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Schema version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Wall-clock microseconds since the registry was created. The only
    /// non-deterministic field — zero it to compare snapshots structurally.
    pub wall_us: f64,
    /// The full profile report (kernels, JIT summary, counters, gauges,
    /// histograms, spans).
    pub report: ProfileReport,
    /// Flight-recorder ring contents, oldest first.
    pub flight: Vec<FlightEvent>,
    /// Total flight events ever recorded (ring may have evicted some).
    pub flight_total: u64,
}

fn push_kv_str(out: &mut String, key: &str, v: &str, first: bool) {
    if !first {
        out.push(',');
    }
    let _ = write!(out, "\"{}\":\"{}\"", json::escape(key), json::escape(v));
}

fn push_kv_num(out: &mut String, key: &str, v: f64, first: bool) {
    if !first {
        out.push(',');
    }
    let _ = write!(out, "\"{}\":{}", json::escape(key), json::number(v));
}

fn push_kv_bool(out: &mut String, key: &str, v: bool, first: bool) {
    if !first {
        out.push(',');
    }
    let _ = write!(out, "\"{}\":{}", json::escape(key), v);
}

impl MetricsSnapshot {
    /// Serialize to a JSON document (stable key order: maps are BTreeMaps,
    /// arrays keep report order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(8192);
        out.push('{');
        push_kv_num(&mut out, "version", self.version as f64, true);
        push_kv_num(&mut out, "wall_us", self.wall_us, false);

        // kernels
        out.push_str(",\"kernels\":[");
        for (i, k) in self.report.kernels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_kv_str(&mut out, "name", &k.name, true);
            push_kv_num(&mut out, "launches", k.launches as f64, false);
            push_kv_num(&mut out, "trial_launches", k.trial_launches as f64, false);
            push_kv_num(&mut out, "launch_failures", k.launch_failures as f64, false);
            push_kv_num(&mut out, "block_size", k.block_size as f64, false);
            push_kv_bool(&mut out, "settled", k.settled, false);
            push_kv_num(&mut out, "sim_time", k.sim_time, false);
            push_kv_num(&mut out, "bytes", k.bytes as f64, false);
            push_kv_num(&mut out, "read_bytes", k.read_bytes as f64, false);
            push_kv_num(&mut out, "write_bytes", k.write_bytes as f64, false);
            push_kv_num(&mut out, "flops", k.flops as f64, false);
            push_kv_num(&mut out, "ld_transactions", k.ld_transactions as f64, false);
            push_kv_num(&mut out, "st_transactions", k.st_transactions as f64, false);
            push_kv_num(&mut out, "occupancy", k.occupancy, false);
            push_kv_num(&mut out, "waves", k.waves as f64, false);
            push_kv_num(&mut out, "overhead", k.overhead, false);
            push_kv_bool(&mut out, "double_precision", k.double_precision, false);
            push_kv_num(&mut out, "bandwidth", k.bandwidth, false);
            push_kv_num(&mut out, "stream_bandwidth", k.stream_bandwidth(), false);
            push_kv_num(&mut out, "overhead_share", k.overhead_share(), false);
            push_kv_num(&mut out, "jit_hits", k.jit_hits as f64, false);
            push_kv_num(&mut out, "jit_misses", k.jit_misses as f64, false);
            push_kv_num(&mut out, "wall_compile_time", k.wall_compile_time, false);
            push_kv_num(&mut out, "modeled_compile_time", k.modeled_compile_time, false);
            push_kv_num(&mut out, "persist_hits", k.persist_hits as f64, false);
            push_kv_bool(&mut out, "tuner_seeded", k.tuner_seeded, false);
            out.push('}');
        }
        out.push(']');

        // jit summary
        out.push_str(",\"jit\":{");
        push_kv_num(&mut out, "distinct_kernels", self.report.jit.distinct_kernels as f64, true);
        push_kv_num(&mut out, "hits", self.report.jit.hits as f64, false);
        push_kv_num(&mut out, "misses", self.report.jit.misses as f64, false);
        push_kv_num(&mut out, "hit_ratio", self.report.jit.hit_ratio(), false);
        push_kv_num(&mut out, "compile_errors", self.report.jit.compile_errors as f64, false);
        push_kv_num(&mut out, "wall_compile_time", self.report.jit.wall_compile_time, false);
        push_kv_num(&mut out, "modeled_compile_time", self.report.jit.modeled_compile_time, false);
        out.push('}');

        // counters / gauges
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.report.counters.iter().enumerate() {
            push_kv_num(&mut out, name, *v as f64, i == 0);
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.report.gauges.iter().enumerate() {
            push_kv_num(&mut out, name, *v, i == 0);
        }
        out.push('}');

        // histograms
        out.push_str(",\"hists\":{");
        for (i, (name, h)) in self.report.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{{", json::escape(name));
            push_kv_num(&mut out, "count", h.count as f64, true);
            push_kv_num(&mut out, "sum", h.sum, false);
            push_kv_num(&mut out, "mean", h.mean(), false);
            push_kv_num(&mut out, "min", if h.count == 0 { 0.0 } else { h.min }, false);
            push_kv_num(&mut out, "max", if h.count == 0 { 0.0 } else { h.max }, false);
            push_kv_num(&mut out, "p50", h.p50, false);
            push_kv_num(&mut out, "p99", h.p99, false);
            out.push('}');
        }
        out.push('}');

        // spans
        out.push_str(",\"spans\":[");
        for (i, s) in self.report.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_kv_str(&mut out, "key", &s.key, true);
            push_kv_num(&mut out, "count", s.count as f64, false);
            push_kv_num(&mut out, "wall", s.wall, false);
            push_kv_num(&mut out, "sim", s.sim, false);
            out.push('}');
        }
        out.push(']');

        // flight ring
        let _ = write!(out, ",\"flight_total\":{}", self.flight_total);
        out.push_str(",\"flight\":[");
        for (i, ev) in self.flight.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_kv_num(&mut out, "seq", ev.seq as f64, true);
            push_kv_num(&mut out, "wall_us", ev.wall_us, false);
            push_kv_str(&mut out, "kind", ev.kind, false);
            push_kv_str(&mut out, "detail", &ev.detail, false);
            out.push_str(",\"args\":{");
            for (j, (k, v)) in ev.args.iter().enumerate() {
                push_kv_num(&mut out, k, *v, j == 0);
            }
            out.push_str("}}");
        }
        out.push_str("],");
        let _ = write!(
            out,
            "\"trace_events\":{},\"dropped_events\":{}",
            self.report.trace_events, self.report.dropped_events
        );
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{json, LaunchRecord, Telemetry};

    #[test]
    fn snapshot_round_trips_through_in_tree_json() {
        let t = Telemetry::new();
        t.enable();
        t.count("comm.sends", 3);
        t.gauge("device.mem_used", 1.5e9);
        t.observe("comm.recv_wait_s", 2e-6);
        t.record_compile("qdp_k", false, 1e-3, 0.05);
        t.record_launch_full(&LaunchRecord {
            kernel: "qdp_k",
            block: 128,
            settled: true,
            sim_dur: 1e-3,
            read_bytes: 1024,
            flops: 512,
            ..Default::default()
        });
        t.record_persist_hit("qdp_k");
        t.record_tuner_seeded("qdp_k");
        let snap = t.snapshot();
        let text = snap.to_json();
        let doc = json::parse(&text).expect("snapshot must be valid JSON");
        assert_eq!(doc.get("version").and_then(|v| v.as_f64()), Some(1.0));
        let kernels = doc.get("kernels").unwrap().as_array().unwrap();
        assert_eq!(kernels.len(), 1);
        let k = &kernels[0];
        assert_eq!(k.get("name").and_then(|v| v.as_str()), Some("qdp_k"));
        assert_eq!(k.get("persist_hits").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(
            doc.get("counters").unwrap().get("comm.sends").and_then(|v| v.as_f64()),
            Some(3.0)
        );
        let h = doc.get("hists").unwrap().get("comm.recv_wait_s").unwrap();
        assert_eq!(h.get("count").and_then(|v| v.as_f64()), Some(1.0));
        // single observation: p50 == p99 == the exact value
        assert_eq!(h.get("p50").and_then(|v| v.as_f64()), Some(2e-6));
        assert_eq!(h.get("p99").and_then(|v| v.as_f64()), Some(2e-6));
        // the launch flight event is in the snapshot too
        let flight = doc.get("flight").unwrap().as_array().unwrap();
        assert!(flight
            .iter()
            .any(|e| e.get("kind").and_then(|v| v.as_str()) == Some("launch")));
    }

    #[test]
    fn snapshot_is_stable_across_calls() {
        let t = Telemetry::new();
        t.enable();
        t.count("x", 7);
        t.record_launch_full(&LaunchRecord {
            kernel: "k",
            block: 64,
            trial: true,
            sim_dur: 5e-4,
            read_bytes: 256,
            flops: 128,
            stream: 1,
            ..Default::default()
        });
        let mut a = t.snapshot();
        let mut b = t.snapshot();
        // wall_us is the only clock-dependent field
        a.wall_us = 0.0;
        b.wall_us = 0.0;
        assert_eq!(a.to_json(), b.to_json());
    }
}
