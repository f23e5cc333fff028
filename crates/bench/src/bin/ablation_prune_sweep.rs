//! Weight-attack robustness sweep over victim compression levels.
//!
//! `CNNRE_QUICK=1` shrinks the victim for a fast smoke run.
use cnnre_attacks::obsd::{MetricsSink, ObsSession};
use std::process::ExitCode;

fn main() -> ExitCode {
    let session = match ObsSession::new(MetricsSink::Bench("ablation_prune_sweep")) {
        Ok(session) => session,
        Err(e) => return e.report(),
    };
    let quick = cnnre_bench::quick_mode();
    let (filters, input_w) = if quick { (4, 39) } else { (16, 79) };
    let fractions = [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9];
    let points = cnnre_bench::experiments::ablation_prune_sweep::run(filters, input_w, &fractions);
    println!(
        "{}",
        cnnre_bench::experiments::ablation_prune_sweep::render(&points)
    );
    session
        .finish(true)
        .map_or_else(|e| e.report(), |()| ExitCode::SUCCESS)
}
