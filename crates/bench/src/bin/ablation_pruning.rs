//! Regenerates the zero-pruning traffic ablation.
use cnnre_attacks::obsd::{MetricsSink, ObsSession};
use std::process::ExitCode;

fn main() -> ExitCode {
    let session = match ObsSession::new(MetricsSink::Bench("ablation_pruning")) {
        Ok(session) => session,
        Err(e) => return e.report(),
    };
    let rows = cnnre_bench::experiments::ablation::run();
    println!("{}", cnnre_bench::experiments::ablation::render(&rows));
    session
        .finish(true)
        .map_or_else(|e| e.report(), |()| ExitCode::SUCCESS)
}
