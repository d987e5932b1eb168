//! Conformance driver: differential sweeps and the PTX mutation fuzzer.
//!
//! ```text
//! conformance sweep [--cases N] [--ft f32|f64|both] [--pressure] [--depth D] [--opt-diff|--fuse-diff]
//! conformance fuzz  [--budget-ms MS] [--seed S]
//! conformance replay --seed MASTER [--ft f32|f64] [--pressure]
//! ```
//!
//! `sweep` runs fixed-seed differential sweeps and exits non-zero on the
//! first mismatch (the failure message carries the replayable case seed).
//! With `--opt-diff` the sweep compares the JIT pipeline against itself
//! (optimizer on vs off, 0-ULP contract) instead of against the reference.
//! With `--fuse-diff` it generates statement *sequences* and compares the
//! fusion planner's grouped launches against per-expression evaluation
//! (also a 0-ULP contract).
//! `replay` re-runs a sweep under a specific master seed reported by a
//! failure. `fuzz` time-boxes the PTX mutation fuzzer and exits non-zero
//! if any mutant panicked or broke round-trip.

use qdp_conformance::{
    differential_sweep, fuse_differential_sweep, opt_differential_sweep, run_fuzz, SweepConfig,
    SweepMode,
};
use qdp_types::FloatType;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  conformance sweep [--cases N] [--ft f32|f64|both] [--pressure] [--depth D] [--opt-diff|--fuse-diff]\n  \
         conformance fuzz  [--budget-ms MS] [--seed S]\n  \
         conformance replay --seed MASTER [--ft f32|f64] [--pressure]"
    );
    std::process::exit(2);
}

fn parse_fts(s: &str) -> Vec<FloatType> {
    match s {
        "f32" => vec![FloatType::F32],
        "f64" => vec![FloatType::F64],
        "both" => vec![FloatType::F32, FloatType::F64],
        _ => usage(),
    }
}

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(rest: &[String]) -> Args {
        let mut flags = Vec::new();
        let mut it = rest.iter().peekable();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                usage();
            }
            let takes_value = it.peek().is_some_and(|n| !n.starts_with("--"));
            let val = if takes_value { it.next().cloned() } else { None };
            flags.push((a.clone(), val));
        }
        Args { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            Some(v) => v.parse().unwrap_or_else(|_| usage()),
            None => default,
        }
    }
}

fn cmd_sweep(args: &Args) -> ExitCode {
    let cases: u32 = args.num("--cases", 200);
    let depth: usize = args.num("--depth", 4);
    let pressure = args.has("--pressure");
    let mode = if args.has("--opt-diff") {
        SweepMode::Opt
    } else if args.has("--fuse-diff") {
        SweepMode::Fuse
    } else {
        SweepMode::Reference
    };
    for ft in parse_fts(args.get("--ft").unwrap_or("both")) {
        let mut cfg = SweepConfig::new(cases, ft, pressure);
        cfg.max_depth = depth;
        let label = mode.suite(&cfg);
        println!("conformance: sweep {label} ({cases} cases, depth ≤ {depth})");
        match mode {
            SweepMode::Reference => differential_sweep(&cfg),
            SweepMode::Opt => opt_differential_sweep(&cfg),
            SweepMode::Fuse => fuse_differential_sweep(&cfg),
        }
        println!("conformance: sweep {label} OK");
    }
    ExitCode::SUCCESS
}

fn cmd_fuzz(args: &Args) -> ExitCode {
    let budget_ms: u64 = args.num("--budget-ms", 10_000);
    let seed: u64 = args.num("--seed", 0x5EED);
    println!("conformance: fuzzing PTX front end for {budget_ms} ms (seed {seed})");
    let out = run_fuzz(seed, Duration::from_millis(budget_ms));
    println!(
        "conformance: {} mutants ({} accepted+round-tripped, {} rejected cleanly)",
        out.mutants, out.accepted, out.rejected
    );
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &out.failures {
            eprintln!("conformance: FUZZ FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}

fn cmd_replay(args: &Args) -> ExitCode {
    let seed = match args.get("--seed") {
        Some(s) => s.to_string(),
        None => usage(),
    };
    if seed.parse::<u64>().is_err() {
        usage();
    }
    // The proptest harness reads the master seed from the environment; a
    // replay is just a sweep pinned to the failing stream.
    std::env::set_var("QDP_PROPTEST_SEED", &seed);
    println!("conformance: replaying sweep under QDP_PROPTEST_SEED={seed}");
    cmd_sweep(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("sweep") => cmd_sweep(&Args::parse(&argv[1..])),
        Some("fuzz") => cmd_fuzz(&Args::parse(&argv[1..])),
        Some("replay") => cmd_replay(&Args::parse(&argv[1..])),
        _ => usage(),
    }
}
