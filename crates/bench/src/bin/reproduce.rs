//! Prints the reproduction report — every number of the paper's tables
//! and figures, ours beside the paper's — exactly as committed in
//! `REPRODUCTION.md`. No arguments, no environment: the inputs are fixed
//! in `spc_bench::reproduction`.
//!
//! Run: `cargo run --release -p spc-bench --bin reproduce > REPRODUCTION.md`

fn main() {
    print!("{}", spc_bench::reproduction::render());
}
