//! Regenerates the paper's Table 4.
use cnnre_attacks::obsd::{MetricsSink, ObsSession};
use std::process::ExitCode;

fn main() -> ExitCode {
    let session = match ObsSession::new(MetricsSink::Bench("table4")) {
        Ok(session) => session,
        Err(e) => return e.report(),
    };
    let t = cnnre_bench::experiments::table4::run();
    println!("{}", cnnre_bench::experiments::table4::render(&t));
    session
        .finish(true)
        .map_or_else(|e| e.report(), |()| ExitCode::SUCCESS)
}
