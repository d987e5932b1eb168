//! Benchmark-owned spans: `{name, start, end, parent, op}` kept in memory
//! during the traced run and written to a file when the benchmark ends.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer's public functions (`run` → `setup` → `op` → sub-op, then the
//! `probe.<layer>.<stage>` replays). Spans inside the program are a later
//! change (ROADMAP item 5a). A layer's *self time* is its span's duration
//! minus the part its child spans cover.
//!
//! One thread records at a time (the load generator, or rank 0 of the
//! cluster), so the parent of a new span is simply the innermost open one.

use qdp_telemetry::json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One closed (or still open: `end_us < start_us`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Boundary name, e.g. `op`, `hmc.gauge_force`, `probe.ptx.parse`.
    pub name: String,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    /// Microseconds since the recorder was created.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Index of the measured op this span belongs to (inherited from the
    /// parent), `None` for set-up and probes.
    pub op: Option<usize>,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The in-memory span store. A disabled recorder (the untraced run) costs
/// one branch per call and records nothing.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'r> {
    rec: &'r Recorder,
    idx: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let now = self.rec.now_us();
            let mut inner = self.rec.lock();
            inner.spans[idx].end_us = now;
            // spans close innermost-first; tolerate an out-of-order drop
            if let Some(pos) = inner.open.iter().rposition(|&i| i == idx) {
                inner.open.remove(pos);
            }
        }
    }
}

impl Recorder {
    /// A recorder that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // a panic while recording leaves plain data behind: keep going
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Open a span under the innermost open span.
    pub fn enter(&self, name: &str) -> SpanGuard<'_> {
        self.enter_op(name, None)
    }

    /// Open a span that starts measured op `op` (children inherit it).
    pub fn enter_op(&self, name: &str, op: Option<usize>) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                rec: self,
                idx: None,
            };
        }
        let now = self.now_us();
        let mut inner = self.lock();
        let parent = inner.open.last().copied();
        let op = op.or_else(|| parent.and_then(|p| inner.spans[p].op));
        let idx = inner.spans.len();
        inner.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: -1.0,
            parent,
            op,
        });
        inner.open.push(idx);
        SpanGuard {
            rec: self,
            idx: Some(idx),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _g = self.enter(name);
        f()
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// No spans recorded?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Σ duration (µs) of the closed spans called `name` that belong to a
    /// measured op (set-up and probe spans carry no op).
    pub fn op_total_us(&self, name: &str) -> f64 {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name && s.op.is_some() && s.end_us >= s.start_us)
            .map(Span::dur_us)
            .sum()
    }

    /// Write every span, and per name the count, total and self time, as
    /// one JSON document.
    pub fn write_json(&self, path: &Path, header: &[(&str, String)]) -> std::io::Result<()> {
        let inner = self.lock();
        let mut s = String::with_capacity(64 + inner.spans.len() * 96);
        s.push_str("{\n");
        for (k, v) in header {
            s.push_str(&format!(
                "  \"{}\": \"{}\",\n",
                json::escape(k),
                json::escape(v)
            ));
        }
        s.push_str("  \"unit\": \"us\",\n  \"spans\": [\n");
        for (i, sp) in inner.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
            s.push_str(&format!(
                "    {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {}, \"op\": {}}}{}\n",
                json::escape(&sp.name),
                json::number(sp.start_us),
                json::number(sp.end_us),
                opt(sp.parent),
                opt(sp.op),
                if i + 1 == inner.spans.len() { "" } else { "," },
            ));
        }
        s.push_str("  ],\n  \"summary\": {\n");
        let summary = summarize(&inner.spans);
        for (i, (name, agg)) in summary.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"total\": {}, \"self\": {}}}{}\n",
                json::escape(name),
                agg.count,
                json::number(agg.total_us),
                json::number(agg.self_us),
                if i + 1 == summary.len() { "" } else { "," },
            ));
        }
        s.push_str("  }\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanSummary {
    /// Closed spans with this name.
    pub count: usize,
    /// Σ duration, µs.
    pub total_us: f64,
    /// Σ (duration − direct children's durations), µs.
    pub self_us: f64,
}

/// Per-name totals and self times of a span list.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, SpanSummary> {
    let mut child_us = vec![0.0f64; spans.len()];
    for s in spans {
        if let (Some(p), true) = (s.parent, s.end_us >= s.start_us) {
            child_us[p] += s.dur_us();
        }
    }
    let mut out: BTreeMap<String, SpanSummary> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_us < s.start_us {
            continue;
        }
        let e = out.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_us += s.dur_us();
        e.self_us += (s.dur_us() - child_us[i]).max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us: start,
            end_us: end,
            parent,
            op: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // run[0,100] → op[10,90] → {a[10,40], b[50,70]}; a → leaf[20,30]
        let spans = vec![
            span("run", 0.0, 100.0, None),
            span("op", 10.0, 90.0, Some(0)),
            span("a", 10.0, 40.0, Some(1)),
            span("leaf", 20.0, 30.0, Some(2)),
            span("b", 50.0, 70.0, Some(1)),
        ];
        let s = summarize(&spans);
        assert_eq!(s["run"].self_us, 20.0);
        assert_eq!(s["op"].total_us, 80.0);
        assert_eq!(s["op"].self_us, 30.0); // 80 − (30 + 20)
        assert_eq!(s["a"].self_us, 20.0); // 30 − 10: grandchildren count once
        assert_eq!(s["leaf"].self_us, 10.0);
        // self times partition the root exactly
        let total_self: f64 = s.values().map(|v| v.self_us).sum();
        assert_eq!(total_self, 100.0);
    }

    #[test]
    fn guards_nest_and_inherit_the_op() {
        let rec = Recorder::new(true);
        {
            let _run = rec.enter("run");
            {
                let _op = rec.enter_op("op", Some(3));
                rec.time("child", || {
                    let _g = rec.enter("grandchild");
                });
            }
            let _probe = rec.enter("probe.x");
        }
        let spans = rec.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["run", "op", "child", "grandchild", "probe.x"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(
            spans[4].parent,
            Some(0),
            "op closed before the probe opened"
        );
        assert_eq!(spans[0].op, None);
        assert_eq!(spans[2].op, Some(3));
        assert_eq!(spans[3].op, Some(3));
        assert_eq!(spans[4].op, None);
        for s in &spans {
            assert!(s.end_us >= s.start_us, "{} left open", s.name);
        }
        // a child lies inside its parent
        assert!(spans[3].start_us >= spans[2].start_us && spans[3].end_us <= spans[2].end_us);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        rec.time("x", || ());
        let _g = rec.enter_op("op", Some(0));
        assert!(rec.is_empty());
        assert!(summarize(&rec.spans()).is_empty());
    }

    #[test]
    fn spans_file_round_trips_through_the_repo_parser() {
        let rec = Recorder::new(true);
        rec.time("run", || rec.time("quote\"d", || ()));
        let dir = std::env::temp_dir().join(format!("qdp_benchmark_spans_{}", std::process::id()));
        let path = dir.join("spans.json");
        rec.write_json(&path, &[("workload", "unit-test".into())])
            .unwrap();
        let v = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(v.get("workload").unwrap().as_str(), Some("unit-test"));
        let spans = v.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("quote\"d"));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&json::Value::Null));
        let run = v.get("summary").unwrap().get("run").unwrap();
        assert_eq!(run.get("count").unwrap().as_f64(), Some(1.0));
        assert!(run.get("self").unwrap().as_f64() <= run.get("total").unwrap().as_f64());
        std::fs::remove_dir_all(&dir).ok();
    }
}
