//! `cnnre-viz` — render the live attack-telemetry stream.
//!
//! ```text
//! cnnre-viz --replay <file.evt>  [--out-dir DIR] [--snapshots] [--metrics FILE]
//! cnnre-viz --follow <addr>      [--out-dir DIR] [--snapshots] [--metrics FILE]
//! ```
//!
//! `--replay` decodes a recorded event file; `--follow` connects to a
//! `--serve-obs` server, reads `GET /events?follow=1` (the run recorded so
//! far, then live frames), and consumes events until the server shuts
//! down. Either way the final state is rendered into
//! `<out-dir>/graph.dot`, `graph.svg`, and `timeline.svg`; with
//! `--snapshots`, an incremental `graph_NNN.dot` is written every time a
//! recovered-graph event confirms a new layer, so the directory shows the
//! network growing as the attack converges.
//!
//! Exit codes: 0 success, 1 stream/render failure, 2 usage error.

use cnnre_obs::stream::{EventPayload, EventReader};
use cnnre_viz::{dot, replay::ReplayState, timeline};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Opts {
    replay: Option<PathBuf>,
    follow: Option<String>,
    out_dir: PathBuf,
    snapshots: bool,
    metrics: Option<PathBuf>,
}

const USAGE: &str = "usage:\n  \
    cnnre-viz --replay <file.evt> [--out-dir DIR] [--snapshots] [--metrics FILE]\n  \
    cnnre-viz --follow <addr>     [--out-dir DIR] [--snapshots] [--metrics FILE]\n\n\
    --replay <file>   render a recorded event stream\n  \
    --follow <addr>   follow a live run's events (cnnre ... --serve-obs <addr>)\n  \
    --out-dir <dir>   output directory (default: viz_out)\n  \
    --snapshots       write incremental graph_NNN.dot per confirmed layer\n  \
    --metrics <file>  write a viz.* metrics snapshot (JSON)";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        replay: None,
        follow: None,
        out_dir: PathBuf::from("viz_out"),
        snapshots: false,
        metrics: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--replay" => {
                let v = it.next().ok_or("--replay needs a file argument")?;
                opts.replay = Some(PathBuf::from(v));
            }
            "--follow" => {
                let v = it.next().ok_or("--follow needs an address argument")?;
                opts.follow = Some(v.clone());
            }
            "--out-dir" => {
                let v = it.next().ok_or("--out-dir needs a directory argument")?;
                opts.out_dir = PathBuf::from(v);
            }
            "--snapshots" => opts.snapshots = true,
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a file argument")?;
                opts.metrics = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    match (&opts.replay, &opts.follow) {
        (Some(_), Some(_)) => Err("--replay and --follow are mutually exclusive".to_string()),
        (None, None) => Err("one of --replay or --follow is required".to_string()),
        _ => Ok(opts),
    }
}

/// Streams events from `source` into a replay state, writing incremental
/// graph snapshots when requested.
fn consume<R: Read>(
    source: R,
    opts: &Opts,
    consumed: &cnnre_obs::Counter,
    snapshots_written: &cnnre_obs::Counter,
) -> Result<ReplayState, String> {
    let mut reader = EventReader::new(source);
    let mut state = ReplayState::new();
    let mut snapshot_idx: u64 = 0;
    loop {
        let ev = match reader.next_event() {
            Ok(Some(ev)) => ev,
            Ok(None) => break,
            Err(e) => return Err(format!("event stream: {e}")),
        };
        let is_graph_event = matches!(
            ev.payload,
            EventPayload::GraphConv { .. } | EventPayload::GraphFc { .. }
        );
        state.apply(&ev);
        consumed.inc();
        if opts.snapshots && is_graph_event {
            let graph = state
                .final_graph_run()
                .map(|r| r.graph.as_slice())
                .unwrap_or(&[]);
            let path = opts.out_dir.join(format!("graph_{snapshot_idx:03}.dot"));
            write_file(&path, &dot::render_dot(graph))?;
            snapshots_written.inc();
            snapshot_idx += 1;
        }
    }
    Ok(state)
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(opts: &Opts) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let consumed = cnnre_obs::counter("viz.events.consumed");
    let snapshots_written = cnnre_obs::counter("viz.snapshots.written");
    let state = if let Some(file) = &opts.replay {
        let f = std::fs::File::open(file).map_err(|e| format!("open {}: {e}", file.display()))?;
        consume(
            std::io::BufReader::new(f),
            opts,
            &consumed,
            &snapshots_written,
        )?
    } else if let Some(addr) = &opts.follow {
        let (status, body) = cnnre_obs::http::get(addr, "/events?follow=1")
            .map_err(|e| format!("follow {addr}: {e}"))?;
        if status != 200 {
            return Err(format!("follow {addr}: status {status}"));
        }
        // A run can be quiet for longer than the request timeout; the
        // stream ends when the server shuts down.
        body.set_read_timeout(None)
            .map_err(|e| format!("follow {addr}: {e}"))?;
        eprintln!("cnnre-viz: following http://{addr}/events");
        consume(body, opts, &consumed, &snapshots_written)?
    } else {
        unreachable!("parse_args guarantees a mode")
    };
    let graph = state
        .final_graph_run()
        .map(|r| r.graph.as_slice())
        .unwrap_or(&[]);
    write_file(&opts.out_dir.join("graph.dot"), &dot::render_dot(graph))?;
    write_file(
        &opts.out_dir.join("graph.svg"),
        &dot::render_graph_svg(graph),
    )?;
    write_file(
        &opts.out_dir.join("timeline.svg"),
        &timeline::render_timeline_svg(&state),
    )?;
    eprintln!(
        "cnnre-viz: {} events ({} unknown), {} runs, {} confirmed layers -> {}",
        state.events,
        state.unknown_events,
        state.runs.len(),
        graph.len(),
        opts.out_dir.display()
    );
    if let Some(path) = &opts.metrics {
        cnnre_obs::global()
            .snapshot()
            .write_json(path, false)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("cnnre-viz: {msg}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.metrics.is_some() {
        cnnre_obs::set_enabled(true);
    }
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("cnnre-viz: {msg}");
            ExitCode::from(1)
        }
    }
}
