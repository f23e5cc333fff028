//! Regenerates the ORAM defense sweep.
use cnnre_attacks::obsd::{MetricsSink, ObsSession};
use std::process::ExitCode;

fn main() -> ExitCode {
    let session = match ObsSession::new(MetricsSink::Bench("defense_oram")) {
        Ok(session) => session,
        Err(e) => return e.report(),
    };
    let (baseline, rows) = cnnre_bench::experiments::defense::run();
    println!(
        "{}",
        cnnre_bench::experiments::defense::render(baseline, &rows)
    );
    session
        .finish(true)
        .map_or_else(|e| e.report(), |()| ExitCode::SUCCESS)
}
