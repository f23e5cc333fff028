//! Every trace-level mitigation vs. the structure attack, side by side.
use cnnre_attacks::obsd::{MetricsSink, ObsSession};
use std::process::ExitCode;

fn main() -> ExitCode {
    let session = match ObsSession::new(MetricsSink::Bench("defense_matrix")) {
        Ok(session) => session,
        Err(e) => return e.report(),
    };
    let (baseline, rows) = cnnre_bench::experiments::defense_matrix::run();
    println!(
        "{}",
        cnnre_bench::experiments::defense_matrix::render(baseline, &rows)
    );
    session
        .finish(true)
        .map_or_else(|e| e.report(), |()| ExitCode::SUCCESS)
}
