//! `qdp-benchmark compare <set-a> <set-b>` — hold two result sets against
//! the benchmark's own bounds.
//!
//! A result set is a directory of report files (what a run leaves in its
//! `--out-dir`). Per workload × end-to-end metric the two medians, their
//! relative difference, the bound and a verdict are printed:
//!
//! * `ok` — B's median is no worse than A's by more than the bound;
//! * `exceeds` — it is worse by more than the bound;
//! * `unresolved` — either set's own spread (inter-quartile distance over
//!   the median, needs at least four runs) is wider than the bound, so the
//!   comparison cannot tell.
//!
//! Independently, for every `(workload, seed)` present in both sets the
//! simulated clock (`sim.op_ms`) and every count metric must be identical,
//! except on `serve_mix`, whose job interleaving is the OS scheduler's.
//! Exit code 0 only if every verdict is `ok` and nothing deterministic moved.

use crate::metrics::{EndToEnd, END_TO_END};
use crate::report::RunResult;
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// Workloads whose counts depend on thread interleaving.
const NONDETERMINISTIC: &[&str] = &["serve_mix"];

/// Every report file under `dir`.
pub fn load_set(dir: &Path) -> Result<Vec<RunResult>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("report-") && name.ends_with(".json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(RunResult::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    if out.is_empty() {
        return Err(format!("{}: no report-*.json files", dir.display()));
    }
    Ok(out)
}

/// The verdict on one workload × end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Exceeds,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Exceeds => "exceeds",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A for one metric.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, f64, f64, f64, Verdict) {
    let (ma, mb) = (stats::p50(a), stats::p50(b));
    let rel = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
    let worse = if metric.better == "lower" { rel } else { -rel };
    let spread = |xs: &[f64]| {
        if xs.len() >= 4 {
            stats::iqr_share(xs)
        } else {
            0.0
        }
    };
    let spread = spread(a).max(spread(b));
    let verdict = if spread > metric.bound {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Exceeds
    } else {
        Verdict::Ok
    };
    (ma, mb, rel, spread, verdict)
}

/// Deterministic numbers of one report: the simulated clock and every
/// count metric.
fn exact_metrics(r: &RunResult) -> BTreeMap<&str, f64> {
    r.metrics
        .iter()
        .chain(r.extra.iter())
        .filter(|(name, m)| name.as_str() == "sim.op_ms" || m.unit == "count")
        .map(|(name, m)| (name.as_str(), m.value))
        .collect()
}

/// Compare two loaded sets; returns the printed table and whether they
/// agree.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> (String, bool) {
    let mut text = String::new();
    let mut agree = true;
    let by_workload = |set: &[RunResult], metric: &str| {
        let mut map: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for r in set.iter().filter(|r| !r.traced) {
            if let Some(m) = r.metrics.get(metric) {
                map.entry(r.workload.clone()).or_default().push(m.value);
            }
        }
        map
    };
    text.push_str(&format!(
        "{:<14} {:<15} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict\n",
        "workload", "metric", "median A", "median B", "diff", "spread", "bound"
    ));
    for metric in END_TO_END {
        let (va, vb) = (by_workload(a, metric.name), by_workload(b, metric.name));
        for (workload, xs) in &va {
            let Some(ys) = vb.get(workload) else { continue };
            let (ma, mb, rel, spread, verdict) = judge(metric, xs, ys);
            agree &= verdict == Verdict::Ok;
            text.push_str(&format!(
                "{:<14} {:<15} {:>12.4} {:>12.4} {:>+7.2}% {:>7.2}% {:>6.1}%  {} (n={}/{})\n",
                workload,
                metric.name,
                ma,
                mb,
                rel * 100.0,
                spread * 100.0,
                metric.bound * 100.0,
                verdict.label(),
                xs.len(),
                ys.len()
            ));
        }
    }

    // failed ops and wrong results count against a set whatever its timings
    for (label, set) in [("A", a), ("B", b)] {
        for r in set.iter().filter(|r| !r.correct || r.failed > 0) {
            agree = false;
            text.push_str(&format!(
                "set {label}: {} seed {} trace {}: {} of {} ops failed\n",
                r.workload, r.seed, r.traced as u8, r.failed, r.attempted
            ));
        }
    }

    let key = |r: &RunResult| (r.workload.clone(), r.seed, r.traced);
    let index: BTreeMap<_, _> = b.iter().map(|r| (key(r), r)).collect();
    let (mut pairs, mut moved) = (0, 0);
    for ra in a {
        let Some(rb) = index.get(&key(ra)) else {
            continue;
        };
        if NONDETERMINISTIC.contains(&ra.workload.as_str()) {
            continue;
        }
        pairs += 1;
        let eb = exact_metrics(rb);
        for (name, va) in exact_metrics(ra) {
            match eb.get(name) {
                Some(vb) if vb.to_bits() == va.to_bits() => {}
                other => {
                    moved += 1;
                    text.push_str(&format!(
                        "MOVED {} seed {} trace {}: {name} = {va} in A, {} in B\n",
                        ra.workload,
                        ra.seed,
                        ra.traced as u8,
                        other.map_or("absent".to_string(), |v| v.to_string())
                    ));
                }
            }
        }
    }
    text.push_str(&format!(
        "deterministic numbers (sim.op_ms and counts): {pairs} run pairs checked, {moved} moved\n"
    ));
    agree &= moved == 0;
    (text, agree)
}

/// Entry point of the subcommand; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: qdp-benchmark compare <set-a-dir> <set-b-dir>");
        return 2;
    };
    let loaded = load_set(Path::new(a)).and_then(|a| load_set(Path::new(b)).map(|b| (a, b)));
    match loaded {
        Ok((a, b)) => {
            let (text, agree) = compare(&a, &b);
            print!("{text}");
            println!("{}", if agree { "sets agree" } else { "sets DISAGREE" });
            if agree {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("qdp-benchmark compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Metric;

    fn untraced(workload: &str, seed: u64, wall: f64, sim: f64) -> RunResult {
        let mut r = RunResult {
            workload: workload.into(),
            seed,
            correct: true,
            attempted: 30,
            ..RunResult::default()
        };
        r.put("wall_op_ms_min", wall, "ms");
        r.put("setup_s", 1.0, "s");
        r.put("peak_rss_mb", 10.0, "MB");
        r.extra.insert(
            "sim.op_ms".into(),
            Metric {
                value: sim,
                unit: "sim_ms".into(),
            },
        );
        r
    }

    fn set(workload: &str, walls: &[f64], sim: f64) -> Vec<RunResult> {
        walls
            .iter()
            .enumerate()
            .map(|(i, &w)| untraced(workload, i as u64, w, sim))
            .collect()
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let wall = &END_TO_END[0];
        assert_eq!(
            (wall.name, wall.better, wall.bound),
            ("wall_op_ms_min", "lower", 0.25)
        );
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 5 % slower: inside the bound
        let v = judge(wall, &tight, &tight.map(|x| x * 1.05));
        assert_eq!(v.4, Verdict::Ok);
        assert!((v.2 - 0.05).abs() < 1e-12);
        // 40 % slower: beyond it; 40 % faster: never a regression
        assert_eq!(
            judge(wall, &tight, &tight.map(|x| x * 1.4)).4,
            Verdict::Exceeds
        );
        assert_eq!(judge(wall, &tight, &tight.map(|x| x * 0.6)).4, Verdict::Ok);
        // a set whose own quartiles are wider apart than the bound decides nothing
        let noisy = [100.0, 170.0, 60.0, 150.0, 75.0];
        assert_eq!(judge(wall, &noisy, &tight).4, Verdict::Unresolved);
        // single runs have no spread: judged on the difference alone
        assert_eq!(judge(wall, &[100.0], &[104.0]).4, Verdict::Ok);
        // no metric is excused: set-up time that its own spread cannot
        // resolve is unresolved too
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert_eq!(judge(setup, &noisy, &tight).4, Verdict::Unresolved);
    }

    #[test]
    fn identical_sets_agree_and_a_moved_sim_clock_does_not() {
        let a = set("cg_model", &[5.0, 5.1, 5.05, 4.95], 32.69);
        let (text, agree) = compare(&a, &a.clone());
        assert!(agree, "{text}");
        assert!(text.contains("4 run pairs checked, 0 moved"), "{text}");

        let mut b = a.clone();
        b[2].extra.get_mut("sim.op_ms").unwrap().value = 32.690000000000005;
        let (text, agree) = compare(&a, &b);
        assert!(!agree);
        assert!(text.contains("MOVED cg_model seed 2"), "{text}");

        // the same drift on serve_mix is tolerated: its interleaving is not fixed
        let a = set("serve_mix", &[300.0, 301.0, 299.0, 300.5], 4.7);
        let mut b = a.clone();
        b[0].extra.get_mut("sim.op_ms").unwrap().value = 4.9;
        assert!(compare(&a, &b).1);
    }

    #[test]
    fn failed_ops_and_regressions_fail_the_comparison() {
        let a = set("hmc_gauge", &[250.0, 252.0, 251.0, 249.0], 2.8);
        let slow = set("hmc_gauge", &[350.0, 352.0, 351.0, 349.0], 2.8);
        let (text, agree) = compare(&a, &slow);
        assert!(!agree);
        assert!(text.contains("exceeds"), "{text}");
        let mut broken = a.clone();
        broken[1].failed = 2;
        broken[1].correct = false;
        assert!(!compare(&a, &broken).1);
    }
}
