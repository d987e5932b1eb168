//! PTX mutation fuzzer.
//!
//! Takes real emitted kernels (produced by the production code generator),
//! mutates their text at the byte/token/line level, and pushes each mutant
//! through the simulated driver JIT front end: `parse_module` →
//! `Module::validate` → `lower_kernel`. The contract under fuzz:
//!
//! * the pipeline never panics — malformed text yields structured
//!   `PtxError`s with line context;
//! * any mutant the parser *accepts* must round-trip: emitting the parsed
//!   module and reparsing yields the identical IR;
//! * any mutant that *validates* must survive the kernel optimizer: the
//!   optimized module still validates (the optimizer reverts kernels its
//!   rewrite would break) and still lowers without panicking.
//!
//! Mutated kernels are never executed — this fuzzes the front end only.

use crate::fixture::Fixture;
use crate::gen::gen_typed_expr;
use qdp_core::codegen_fused_ptx;
use qdp_layout::Subset;
use qdp_proptest::Gen;
use qdp_ptx::emit::emit_module;
use qdp_ptx::parse::parse_module;
use qdp_rng::{Rng, SeedableRng, StdRng};
use qdp_types::{ElemKind, FloatType};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Outcome of one fuzz run.
#[derive(Debug, Default)]
pub struct FuzzOutcome {
    /// Mutants pushed through the pipeline.
    pub mutants: u64,
    /// Mutants the parser accepted (and therefore round-tripped).
    pub accepted: u64,
    /// Mutants rejected with a structured error.
    pub rejected: u64,
    /// Contract violations: panics or round-trip failures, with the
    /// mutant seed for replay.
    pub failures: Vec<String>,
}

/// Build the seed corpus: the production code generator's PTX for a few
/// representative expressions (plain, subset-mapped, every target kind).
pub fn seed_corpus() -> Vec<String> {
    let fx = Fixture::normal(FloatType::F64, 1);
    let mut g = Gen::from_case_seed(42, 1.0);
    let mut out = Vec::new();
    for (i, (kind, subset)) in [
        (ElemKind::ColorMatrix, Subset::All),
        (ElemKind::Fermion, Subset::All),
        (ElemKind::Fermion, Subset::Even),
        (ElemKind::Complex, Subset::Odd),
        (ElemKind::Real, Subset::All),
    ]
    .into_iter()
    .enumerate()
    {
        let expr = gen_typed_expr(&mut g, &fx, kind, 3);
        let target = fx.fresh_target(kind);
        let name = format!("fuzz_seed_{i}");
        let ptx = codegen_fused_ptx(&fx.ctx, &[(target, expr)], &[], subset, &name)
            .expect("seed corpus codegen");
        fx.release(target);
        out.push(ptx);
    }
    out
}

/// Tokens the mutator splices in — PTX structure characters, directives
/// and pathological numbers aimed at counting/indexing code paths.
const DICTIONARY: &[&str] = &[
    ".reg", ".entry", ".param", ".visible", ".version", ".target",
    "%f", "%fd", "%rd", "%r", "%p", "<", ">", "{", "}", "(", ")", ";", ",",
    ".f32", ".f64", ".b64", ".u32", ".pred", "bra", "@%p0", "ret;",
    "4294967295", "4000000000", "65537", "-1", "0dDEADBEEFDEADBEEF",
    "0fFFFFFFFF", "0dXYZ", "$L99", "%f999999",
];

/// Apply 1–4 random mutations to `base`, byte-level, ASCII-safe.
pub fn mutate(rng: &mut StdRng, base: &str) -> String {
    let mut bytes: Vec<u8> = base.as_bytes().to_vec();
    let n_mut = 1 + (rng.random_range(0..4u64) as usize);
    for _ in 0..n_mut {
        if bytes.is_empty() {
            break;
        }
        match rng.random_range(0..7u64) {
            // flip one byte to a random printable character
            0 => {
                let i = rng.random_range(0..bytes.len() as u64) as usize;
                bytes[i] = 0x20 + (rng.random_range(0..0x5f_u64) as u8);
            }
            // delete a short range
            1 => {
                let i = rng.random_range(0..bytes.len() as u64) as usize;
                let len = 1 + rng.random_range(0..8u64) as usize;
                let end = (i + len).min(bytes.len());
                bytes.drain(i..end);
            }
            // insert a dictionary token
            2 => {
                let i = rng.random_range(0..bytes.len() as u64 + 1) as usize;
                let tok = DICTIONARY[rng.random_range(0..DICTIONARY.len() as u64) as usize];
                bytes.splice(i..i, tok.bytes());
            }
            // duplicate a random line
            3 => {
                let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
                if !lines.is_empty() {
                    let li = rng.random_range(0..lines.len() as u64) as usize;
                    let mut line = lines[li].to_vec();
                    line.push(b'\n');
                    let pos = bytes.len();
                    bytes.splice(pos..pos, line);
                }
            }
            // delete a random line
            4 => {
                let newlines: Vec<usize> = bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i)
                    .collect();
                if newlines.len() >= 2 {
                    let li = rng.random_range(0..newlines.len() as u64 - 1) as usize;
                    bytes.drain(newlines[li]..newlines[li + 1]);
                }
            }
            // truncate
            5 => {
                let i = rng.random_range(0..bytes.len() as u64) as usize;
                bytes.truncate(i);
            }
            // replace a digit run with a huge number
            _ => {
                if let Some(start) = bytes.iter().position(|b| b.is_ascii_digit()) {
                    let end = start
                        + bytes[start..]
                            .iter()
                            .take_while(|b| b.is_ascii_digit())
                            .count();
                    let big = ["4294967295", "4000000001", "18446744073709551615"]
                        [rng.random_range(0..3u64) as usize];
                    bytes.splice(start..end, big.bytes());
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Push one mutant through the front end; returns a contract-violation
/// description, or `Ok(accepted)` where `accepted` reports whether the
/// parser took it.
fn check_mutant(text: &str) -> Result<bool, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        match parse_module(text) {
            Ok(module) => {
                // Accepted text must round-trip to identical IR.
                let emitted = emit_module(&module);
                match parse_module(&emitted) {
                    Ok(reparsed) if reparsed == module => {}
                    Ok(_) => return Err("round-trip IR mismatch".to_string()),
                    Err(e) => return Err(format!("emitted text failed to reparse: {e:?}")),
                }
                // Validation and lowering may reject, but must not panic.
                if module.validate().is_ok() {
                    for k in &module.kernels {
                        let _ = qdp_jit::lower_kernel(k);
                    }
                    // The optimizer must never turn a valid module into an
                    // invalid one (it reverts any kernel its rewrite
                    // breaks), and the optimized module must still lower
                    // without panicking.
                    let mut optimized = module.clone();
                    qdp_ptx::opt::optimize_module(&mut optimized, qdp_ptx::opt::OptLevel::Default);
                    if let Err(e) = optimized.validate() {
                        return Err(format!("optimizer invalidated a valid module: {e:?}"));
                    }
                    for k in &optimized.kernels {
                        let _ = qdp_jit::lower_kernel(k);
                    }
                }
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }));
    match outcome {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("pipeline panicked: {msg}"))
        }
    }
}

/// Time-boxed fuzz run over the seed corpus. Deterministic per `seed`
/// except for where the time budget cuts off; any contract violation is
/// reported with the per-mutant seed so it replays exactly.
pub fn run_fuzz(seed: u64, budget: Duration) -> FuzzOutcome {
    let corpus = seed_corpus();
    let mut outcome = FuzzOutcome::default();
    // Panics inside catch_unwind would spew the default hook's backtrace
    // for every mutant; silence it for the duration and restore after.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < budget {
        let mutant_seed = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(mutant_seed);
        let base = &corpus[(round % corpus.len() as u64) as usize];
        let text = mutate(&mut rng, base);
        outcome.mutants += 1;
        match check_mutant(&text) {
            Ok(true) => outcome.accepted += 1,
            Ok(false) => outcome.rejected += 1,
            Err(msg) => outcome.failures.push(format!(
                "mutant seed {mutant_seed} (corpus {}): {msg}",
                round % corpus.len() as u64
            )),
        }
        round += 1;
    }
    std::panic::set_hook(hook);
    outcome
}

/// Replay a single reported mutant seed against the corpus.
pub fn replay_mutant(mutant_seed: u64, corpus_index: usize) -> Result<bool, String> {
    let corpus = seed_corpus();
    let mut rng = StdRng::seed_from_u64(mutant_seed);
    let text = mutate(&mut rng, &corpus[corpus_index % corpus.len()]);
    check_mutant(&text)
}
