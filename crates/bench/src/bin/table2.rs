//! Table II: the benchmark test functions and their arithmetic intensity
//! (flop/byte, DP), measured from the *generated kernels* and compared to
//! the paper's published values.
//!
//! Run: `cargo run --release -p qdp-bench --bin table2`

use qdp_bench::kernels::{bench_kernel, TestFunction};
use qdp_types::FloatType;

fn main() {
    println!("Table II — test functions (measured on generated kernels, DP, V = 8^4)");
    println!(
        "{:<8} {:>16} {:>16} {:>10}",
        "Test", "flop/byte (ours)", "flop/byte (paper)", "block"
    );
    for func in TestFunction::all() {
        let b = bench_kernel(func, 8, FloatType::F64, true);
        // arithmetic intensity from the launch report rates
        println!(
            "{:<8} {:>16.3} {:>16.3} {:>10}",
            func.name(),
            b.flop_per_byte,
            func.paper_flop_per_byte(),
            b.block_size
        );
    }
    println!();
    println!("Notes: our generated kernels count each emitted floating-point");
    println!("add, sub and mul as 1 flop and each fma as 2 (a neg is a sign");
    println!("flip, no flop): `lcm`, `upsi` and `clover` match the paper's");
    println!("counts (`clover`: 504 flop / 960 B); `spmat` and `matvec` sit");
    println!("above its hand counts.");
}
