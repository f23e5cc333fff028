//! Regenerates the paper's Figure 5 (SqueezeNet candidate top-5 ranking).
use cnnre_attacks::obsd::{MetricsSink, ObsSession};
use cnnre_bench::experiments::fig5;
use std::process::ExitCode;

fn main() -> ExitCode {
    let session = match ObsSession::new(MetricsSink::Bench("fig5")) {
        Ok(session) => session,
        Err(e) => return e.report(),
    };
    let cfg = if cnnre_bench::quick_mode() {
        fig5::RankingConfig::quick()
    } else {
        fig5::RankingConfig::standard()
    };
    let fig = fig5::run(&cfg);
    println!("{}", fig5::render(&fig));
    session
        .finish(true)
        .map_or_else(|e| e.report(), |()| ExitCode::SUCCESS)
}
