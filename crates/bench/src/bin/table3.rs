//! Regenerates the paper's Table 3.
use cnnre_attacks::obsd::{MetricsSink, ObsSession};
use std::process::ExitCode;

fn main() -> ExitCode {
    let session = match ObsSession::new(MetricsSink::Bench("table3")) {
        Ok(session) => session,
        Err(e) => return e.report(),
    };
    let rows = cnnre_bench::experiments::table3::run();
    println!("{}", cnnre_bench::experiments::table3::render(&rows));
    let reduction = cnnre_bench::experiments::table3::reduction(&rows);
    println!(
        "{}",
        cnnre_bench::experiments::table3::render_reduction(&reduction)
    );
    session
        .finish(true)
        .map_or_else(|e| e.report(), |()| ExitCode::SUCCESS)
}
