//! Regenerates the paper's Figure 3 (plus a CSV for external plotting).
use cnnre_attacks::obsd::{MetricsSink, ObsSession};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let session = match ObsSession::new(MetricsSink::Bench("fig3")) {
        Ok(session) => session,
        Err(e) => return e.report(),
    };
    let fig = cnnre_bench::experiments::fig3::run(97);
    println!("{}", cnnre_bench::experiments::fig3::render(&fig));
    let path = std::env::temp_dir().join("cnnre_fig3_trace.csv");
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(f, "cycle,address,is_write");
        for (cycle, addr, w) in &fig.series {
            let _ = writeln!(f, "{cycle},{addr},{}", u8::from(*w));
        }
        println!("full series written to {}", path.display());
    }
    session
        .finish(true)
        .map_or_else(|e| e.report(), |()| ExitCode::SUCCESS)
}
