//! `qdp-benchmark` — run one workload, or compare two result sets.
//!
//! ```text
//! qdp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--report <file>] [--spans <file>] [--out-dir <dir>]
//! qdp-benchmark compare <set-a-dir> <set-b-dir>
//! qdp-benchmark describe
//! ```

use qdp_benchmark::run::{run, Args};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: qdp-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--report <file>] [--spans <file>] [--out-dir <dir>]\n       \
         qdp-benchmark compare <set-a-dir> <set-b-dir>\n       qdp-benchmark describe",
        qdp_benchmark::workloads::WORKLOADS
            .map(|w| w.name)
            .join("|")
    );
    std::process::exit(2)
}

fn parse(argv: &[String]) -> Args {
    let mut args = Args::new("");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        let num = || value.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num(),
            "--seconds" => args.seconds = num(),
            "--trace" => args.trace = num() != 0,
            "--report" => args.report = Some(PathBuf::from(value)),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    if args.workload.is_empty() {
        usage();
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => std::process::exit(qdp_benchmark::compare::main(&argv[1..])),
        Some("describe") => {
            print!("{}", qdp_benchmark::metrics::describe());
            return;
        }
        _ => {}
    }
    let args = parse(&argv);
    match run(&args) {
        Ok(result) => {
            for note in &result.notes {
                eprintln!("note: {note}");
            }
            println!("{}", result.result_line());
        }
        Err(e) => {
            eprintln!("qdp-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
