#![deny(clippy::unwrap_used, clippy::expect_used)]
//! The unified experiment runner: lists, runs, and sweeps any scenario
//! registered in `decima_bench::registry`.
//!
//! ```text
//! cargo run --release -p decima-bench --bin decima-exp -- --list
//! cargo run --release -p decima-bench --bin decima-exp -- --scenario fig09a --json
//! cargo run --release -p decima-bench --bin decima-exp -- \
//!     --scenario fig09a --set execs=30 --seeds 0..40 --threads 8
//! ```

fn main() {
    decima_bench::exp_main()
}
