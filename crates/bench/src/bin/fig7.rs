//! Regenerates the paper's Figure 7 (CONV1 weight/bias ratio recovery).
use cnnre_attacks::obsd::{MetricsSink, ObsSession};
use cnnre_bench::experiments::fig7;
use std::process::ExitCode;

fn main() -> ExitCode {
    let session = match ObsSession::new(MetricsSink::Bench("fig7")) {
        Ok(session) => session,
        Err(e) => return e.report(),
    };
    let cfg = if cnnre_bench::quick_mode() {
        fig7::Fig7Config::quick()
    } else {
        fig7::Fig7Config::standard()
    };
    let fig = fig7::run(&cfg);
    println!("{}", fig7::render(&fig));
    session
        .finish(true)
        .map_or_else(|e| e.report(), |()| ExitCode::SUCCESS)
}
