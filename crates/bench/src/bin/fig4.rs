//! Regenerates the paper's Figure 4 (candidate accuracy ranking).
use cnnre_attacks::obsd::{MetricsSink, ObsSession};
use cnnre_bench::experiments::fig4;
use std::process::ExitCode;

fn main() -> ExitCode {
    let session = match ObsSession::new(MetricsSink::Bench("fig4")) {
        Ok(session) => session,
        Err(e) => return e.report(),
    };
    let cfg = if cnnre_bench::quick_mode() {
        fig4::RankingConfig::quick()
    } else {
        fig4::RankingConfig::standard()
    };
    let fig = fig4::run(&cfg);
    println!("{}", fig4::render(&fig));
    session
        .finish(true)
        .map_or_else(|e| e.report(), |()| ExitCode::SUCCESS)
}
