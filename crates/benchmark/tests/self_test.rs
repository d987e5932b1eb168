//! Self-tests of the benchmark: determinism of the simulated clock, the
//! output schema of all six workloads, the forward-compatible API surface,
//! and `BENCHMARK.json` against the metric registry.

use qdp_benchmark::metrics::{describe, END_TO_END, PER_LAYER};
use qdp_benchmark::report::RunResult;
use qdp_benchmark::run::{run, Args};
use qdp_benchmark::spans::Recorder;
use qdp_benchmark::workloads::{run_phase, PhaseCfg, WORKLOADS};
use qdp_telemetry::json::{self, Value};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two in-process runs of `cg_model` with one seed: the simulated clock and
/// every count repeat exactly.
#[test]
fn cg_model_simulated_clock_and_counts_repeat_exactly() {
    let scratch = temp_dir("determinism");
    let rec = Recorder::new(false);
    let phase = || {
        run_phase(
            "cg_model",
            &PhaseCfg {
                seed: 42,
                warmup: 2,
                ops: 6,
                traced: true,
                rec: &rec,
                scratch: &scratch,
            },
        )
        .unwrap()
    };
    let (a, b) = (phase(), phase());
    assert_eq!(a.failed + b.failed, 0, "{:?} {:?}", a.failures, b.failures);
    assert_eq!(a.sim_ms.len(), 6);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&a.sim_ms),
        bits(&b.sim_ms),
        "sim.op_ms must be bit-identical"
    );
    assert!(a.sim_ms.iter().all(|&ms| ms > 0.0));
    assert_eq!(a.history, b.history);
    let (da, db) = (a.delta.unwrap(), b.delta.unwrap());
    assert_eq!(
        (
            da.launches,
            da.cache_hits,
            da.page_ins,
            da.jit_hits,
            da.jit_misses
        ),
        (
            db.launches,
            db.cache_hits,
            db.page_ins,
            db.jit_hits,
            db.jit_misses
        )
    );
    assert_eq!(da.counters, db.counters);
    assert_eq!(da.kernel_launches, db.kernel_launches);
    assert_eq!(da.kernel_sim_s.to_bits(), db.kernel_sim_s.to_bits());
    std::fs::remove_dir_all(&scratch).ok();
}

fn check_schema(result: &RunResult, names: &[(&str, &str)], what: &str) {
    let got: Vec<&str> = result.metrics.keys().map(String::as_str).collect();
    let mut want: Vec<&str> = names.iter().map(|n| n.0).collect();
    want.sort_unstable();
    assert_eq!(got, want, "{what}: metric names");
    for (name, unit) in names {
        let m = &result.metrics[*name];
        assert_eq!(m.unit, *unit, "{what}: unit of {name}");
        assert!(m.value.is_finite(), "{what}: {name} = {}", m.value);
    }
    // the line a driver reads: one JSON object, exactly the contract keys
    let line = result.result_line();
    let v = json::parse(&line).unwrap();
    let Value::Object(map) = &v else {
        panic!("{what}: not an object")
    };
    assert_eq!(
        map.keys().map(String::as_str).collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
    assert!(result.attempted >= 1, "{what}: attempted");
    assert!(
        result.correct && result.failed == 0,
        "{what}: {:?}",
        result.notes
    );
}

/// All six workloads at 3 ops each, untraced and traced: every named metric
/// is printed with its unit, the oracles pass, and the spans file parses.
#[test]
fn smoke_all_workloads_and_validate_the_output_schema() {
    let out_dir = temp_dir("smoke");
    let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|e| (e.name, e.unit)).collect();
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|p| (p.name, p.unit)).collect();
    for w in WORKLOADS {
        let mut args = Args::new(w.name);
        args.seed = 7;
        args.ops = Some(3);
        args.warmup = Some(1);
        args.setup_reps = Some(2);
        args.out_dir = out_dir.clone();

        let untraced = run(&args).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        check_schema(&untraced, &end_to_end, &format!("{} untraced", w.name));
        for e in END_TO_END {
            assert!(
                untraced.metrics[e.name].value > 0.0,
                "{}: {} must never be 0",
                w.name,
                e.name
            );
        }
        assert!(
            untraced.extra["sim.op_ms"].value > 0.0,
            "{}: simulated clock",
            w.name
        );

        args.trace = true;
        let traced = run(&args).unwrap_or_else(|e| panic!("{} traced: {e}", w.name));
        check_schema(&traced, &per_layer, &format!("{} traced", w.name));
        for p in PER_LAYER.iter().filter(|p| !p.on.contains(&w.name)) {
            assert_eq!(
                traced.metrics[p.name].value, 0.0,
                "{}: {} is not measured here",
                w.name, p.name
            );
        }
        for name in [
            "sim.op_ms",
            "wall.op_ms_p50",
            "gpusim.launches_per_op",
            "telemetry.spans_recorded",
        ] {
            assert!(
                traced.metrics[name].value > 0.0,
                "{} traced: {name}",
                w.name
            );
        }
        // the report file round-trips, and the spans file is valid JSON
        // whose spans nest: run → setup/op → sub-op
        let report = out_dir.join(format!("report-{}-seed7-trace1.json", w.name));
        assert_eq!(
            RunResult::parse(&std::fs::read_to_string(report).unwrap()).unwrap(),
            traced
        );
        let spans = json::parse(
            &std::fs::read_to_string(out_dir.join(format!("spans-{}.json", w.name))).unwrap(),
        )
        .unwrap();
        let spans = spans.get("spans").and_then(Value::as_array).unwrap();
        let name = |s: &Value| s.get("name").and_then(Value::as_str).unwrap().to_string();
        assert_eq!(name(&spans[0]), "run");
        let ops: Vec<&Value> = spans.iter().filter(|s| name(s) == "op").collect();
        assert_eq!(ops.len(), 2, "{}: two traced ops of three", w.name);
        assert!(spans.iter().any(|s| name(s) == "setup"));
        assert!(spans
            .iter()
            .all(|s| s.get("end").unwrap().as_f64() >= s.get("start").unwrap().as_f64()));
    }
    // nothing but reports and spans is left behind
    for entry in std::fs::read_dir(&out_dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            name.starts_with("report-") || name.starts_with("spans-"),
            "left behind: {name}"
        );
    }
    std::fs::remove_dir_all(&out_dir).ok();
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The benchmark is frozen for later PRs, so it must not call anything
/// ROADMAP item 3 slates for deletion, nor read the `QDP_*` environment.
#[test]
fn sources_avoid_the_api_slated_for_deletion() {
    // spelled in pieces so this file does not trip its own grep
    let banned: Vec<String> = [
        ["Device::", "now"],
        ["device().", "now("],
        ["advance_", "clock"],
        [".h2", "d("],
        ["account_", "launch("],
        ["set_stream_", "schedule"],
        ["set_", "fuse"],
        ["QDP_", "FUSE"],
        ["QdpContext::", "new("],
        ["QdpContext::", "with_telemetry"],
        ["with_kernel_", "store"],
        ["QdpContext::", "k20x"],
        ["from_", "env"],
        ["run_", "campaign"],
        ["env::", "var"],
    ]
    .iter()
    .map(|p| p.concat())
    .collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("src"), &mut files);
    rust_sources(&root.join("tests"), &mut files);
    assert!(
        files.len() >= 10,
        "sources not found under {}",
        root.display()
    );
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        for (n, line) in text.lines().enumerate() {
            for b in &banned {
                assert!(
                    !line.contains(b.as_str()),
                    "{}:{}: `{b}` is slated for deletion (ROADMAP item 3)",
                    file.display(),
                    n + 1
                );
            }
        }
    }
}

/// `/BENCHMARK.json` is exactly what the registry describes.
#[test]
fn benchmark_json_matches_the_registry() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(
        text,
        describe(),
        "regenerate with `qdp-benchmark describe > BENCHMARK.json`"
    );
    assert!(text.len() <= 64 * 1024);
    let v = json::parse(&text).unwrap();
    let Value::Object(map) = &v else {
        panic!("not an object")
    };
    assert_eq!(
        map.keys().map(String::as_str).collect::<Vec<_>>(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    for w in v.get("workloads").and_then(Value::as_array).unwrap() {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
}
