//! The pim-render benchmark.
//!
//! One command runs a named workload for a fixed time, checks every
//! simulated output, and prints the end-to-end metrics (untraced run)
//! or the per-layer metrics (traced run) as one JSON line. It drives the
//! simulator only through the public APIs of the workspace crates and
//! times those calls from outside; see `README.md` for the workloads,
//! the metrics and what each layer metric should move.

pub mod figs;
pub mod metrics;
pub mod oracle;
pub mod serve;
pub mod span;

use oracle::Expected;
use span::Tracer;

/// The seed the committed digests were generated with. Seed 1042 is
/// held out of all tuning, for checking later claims.
pub const DEFAULT_SEED: u64 = 42;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["figs-quick", "cell-hires", "serve-evict"];

/// What every workload run needs.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Span recorder (on for the traced run).
    pub tracer: Tracer,
    /// Expected per-cell digests.
    pub expected: Expected,
}

/// Runs one workload: its result and the digest line of every
/// distinct cell it simulated.
///
/// # Errors
///
/// An unknown workload name, or a failure that stops the run.
pub fn run(workload: &str, ctx: &Ctx) -> Result<(metrics::Outcome, Vec<String>), String> {
    match workload {
        "figs-quick" => figs::run(figs::Shape::FigsQuick, ctx),
        "cell-hires" => figs::run(figs::Shape::CellHires, ctx),
        "serve-evict" => serve::run(ctx),
        other => Err(format!(
            "unknown workload `{other}` (expected one of: {})",
            WORKLOADS.join(", ")
        )),
    }
}
