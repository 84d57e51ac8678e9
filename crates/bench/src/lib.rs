//! Experiment harness and benchmarks for the dynamic-stream reproduction.
//!
//! Every quantitative claim of the paper (see `DESIGN.md`, experiment index
//! E1–E17) is regenerated by a subcommand of the `experiments` binary:
//!
//! ```text
//! cargo run --release -p dsg-bench --bin experiments -- all --quick
//! cargo run --release -p dsg-bench --bin experiments -- spanner-size
//! ```
//!
//! Criterion micro-benchmarks live in `benches/` and measure the
//! "efficiently updatable" claim: per-update sketch costs and decode
//! latencies.

pub mod experiments;

/// Scale knob shared by all experiments: `quick` trims sizes/trials so the
/// whole suite finishes in a few minutes; full mode is what DESIGN.md's
/// experiment index records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Quick (CI-sized) runs.
    pub quick: bool,
}

impl Scale {
    /// Chooses between full and quick values.
    pub fn pick<T: Copy>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}
