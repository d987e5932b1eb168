//! CI validator for Chrome trace files emitted via `QDP_TRACE` and for
//! flight-recorder dumps emitted via `Telemetry::dump_flight`.
//!
//! Trace mode:
//! `trace_check <trace.json> [--min-kernel-events N] [--min-streams N]
//!              [--require-counters]`
//!
//! Exits non-zero if the file is missing, is not valid JSON, has no
//! `traceEvents` array, contains fewer than N (default 1) kernel-launch
//! events (`cat == "kernel"`, `ph == "X"`), or — with `--min-streams` —
//! if kernel launches land on fewer than N distinct device-stream tracks
//! (distinct `tid`s on the device process, pid 1). With
//! `--require-counters` every kernel event must carry the hardware-counter
//! args (`ld_tx`, `st_tx`, `occ`) the launcher attaches, proving the
//! counter model round-trips through the in-tree JSON writer+parser.
//!
//! Flight mode:
//! `trace_check --flight <qdp-flight-PID-N.json> [--require-kind KIND]`
//!
//! Validates a flight dump: version 1, a `reason`, a non-empty `events`
//! array whose entries carry `seq`/`kind`/`wall_us`, monotonic sequence
//! numbers — and, with `--require-kind`, at least one event of that kind.

use qdp_telemetry::json;
use std::process::ExitCode;

fn check_flight(path: &str, require_kind: Option<&str>) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    if doc.get("version").and_then(|v| v.as_f64()) != Some(1.0) {
        return Err(format!("{path}: flight dump version is not 1"));
    }
    let reason = doc
        .get("reason")
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("{path}: flight dump has no reason"))?
        .to_string();
    let events = doc
        .get("events")
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("{path} has no events array"))?;
    if events.is_empty() {
        return Err(format!("{path}: flight dump has no events"));
    }
    let mut last_seq = 0.0f64;
    let mut kind_seen = false;
    for ev in events {
        let seq = ev
            .get("seq")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{path}: flight event without seq"))?;
        if seq <= last_seq {
            return Err(format!(
                "{path}: flight seq not monotonic ({seq} after {last_seq})"
            ));
        }
        last_seq = seq;
        let kind = ev
            .get("kind")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{path}: flight event without kind"))?;
        if ev.get("wall_us").and_then(|v| v.as_f64()).is_none() {
            return Err(format!("{path}: flight event without wall_us"));
        }
        if Some(kind) == require_kind {
            kind_seen = true;
        }
    }
    if let Some(k) = require_kind {
        if !kind_seen {
            return Err(format!("{path}: no flight event of kind '{k}'"));
        }
    }
    println!(
        "trace_check: {path} OK (flight dump, reason '{reason}', {} events)",
        events.len()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let usage = "usage: trace_check <trace.json> [--min-kernel-events N] [--min-streams N] \
                 [--require-counters] | trace_check --flight <dump.json> [--require-kind KIND]";
    let mut args = std::env::args().skip(1);
    let first = args.next().ok_or(usage)?;

    if first == "--flight" {
        let path = args.next().ok_or("--flight needs a file")?;
        let mut require_kind = None;
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--require-kind" => {
                    require_kind = Some(args.next().ok_or("--require-kind needs a value")?);
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        return check_flight(&path, require_kind.as_deref());
    }

    let path = first;
    let mut min_kernel_events = 1usize;
    let mut min_streams = 0usize;
    let mut require_counters = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--min-kernel-events" => {
                let n = args
                    .next()
                    .ok_or("--min-kernel-events needs a value")?;
                min_kernel_events = n
                    .parse()
                    .map_err(|_| format!("bad --min-kernel-events value '{n}'"))?;
            }
            "--min-streams" => {
                let n = args.next().ok_or("--min-streams needs a value")?;
                min_streams = n
                    .parse()
                    .map_err(|_| format!("bad --min-streams value '{n}'"))?;
            }
            "--require-counters" => require_counters = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }

    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("{path} has no traceEvents array"))?;

    let mut kernel_events = 0usize;
    let mut span_events = 0usize;
    let mut stream_tids = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str());
        if ph != Some("X") {
            continue;
        }
        match ev.get("cat").and_then(|c| c.as_str()) {
            Some("kernel") => {
                kernel_events += 1;
                if ev.get("pid").and_then(|p| p.as_f64()) == Some(1.0) {
                    if let Some(tid) = ev.get("tid").and_then(|t| t.as_f64()) {
                        stream_tids.insert(tid as u64);
                    }
                }
                if require_counters {
                    let a = ev.get("args");
                    for key in ["ld_tx", "st_tx", "occ"] {
                        if a.and_then(|a| a.get(key)).and_then(|v| v.as_f64()).is_none() {
                            let name = ev
                                .get("name")
                                .and_then(|n| n.as_str())
                                .unwrap_or("<unnamed>");
                            return Err(format!(
                                "{path}: kernel event '{name}' lacks counter arg '{key}'"
                            ));
                        }
                    }
                }
            }
            Some(_) => span_events += 1,
            None => {}
        }
    }

    if kernel_events < min_kernel_events {
        return Err(format!(
            "{path}: expected at least {min_kernel_events} kernel-launch event(s), found {kernel_events}"
        ));
    }
    if stream_tids.len() < min_streams {
        return Err(format!(
            "{path}: expected kernel launches on at least {min_streams} device stream(s), found {} ({:?})",
            stream_tids.len(),
            stream_tids
        ));
    }
    println!(
        "trace_check: {path} OK ({} events, {kernel_events} kernel launches on {} stream(s), {span_events} other spans{})",
        events.len(),
        stream_tids.len(),
        if require_counters { ", counter args present" } else { "" }
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_check: {e}");
            ExitCode::FAILURE
        }
    }
}
