//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see the workspace DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results).
//!
//! Each experiment has
//!
//! * a library entry point under [`experiments`] returning a structured
//!   result, and
//! * a binary (`cargo run -p cnnre-bench --release --bin <name>`) that
//!   prints the regenerated table/figure.
//!
//! Set `CNNRE_QUICK=1` to shrink the training-based experiments (figures 4,
//! 5 and 7, and the prune sweep) for smoke runs. Every binary parses its
//! flags through [`cnnre_attacks::obsd::ObsSession`]: `--out FILE` writes a
//! flat `BENCH_<experiment>.json` metric snapshot on exit, and the shared
//! `--threads`, `--profile-out`, `--events-out` and `--serve-obs` flags work
//! as in the CLI. Any other argument is a usage error (exit 2). Wall-clock
//! benchmarking of the attacks lives in `attackbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;

/// Whether quick (smoke-test) parameters were requested via `CNNRE_QUICK`.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var("CNNRE_QUICK").is_ok_and(|v| v != "0")
}
