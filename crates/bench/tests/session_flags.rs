//! The experiment binaries' shared flags, parsed by `ObsSession`: one run
//! writes every requested sink, and bad or unknown arguments are usage
//! errors (exit 2) instead of being silently ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the `defense_oram` binary (the quickest experiment) with `args`.
fn experiment(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_defense_oram"))
        .args(args)
        .env("CNNRE_QUICK", "1")
        .output()
        .expect("defense_oram runs")
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cnnre-session-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn one_run_writes_every_requested_sink() {
    let dir = scratch_dir();
    let out = dir.join("BENCH_defense_oram.json");
    let events = dir.join("defense_oram.evt");
    let profile = dir.join("defense_oram.folded");
    let paths = [&out, &events, &profile].map(|p| p.to_str().expect("utf-8 path").to_string());
    let run = experiment(&[
        "--out",
        &paths[0],
        "--events-out",
        &paths[1],
        "--profile-out",
        &paths[2],
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let bench = std::fs::read_to_string(&out).expect("--out written");
    assert!(
        bench.contains("\"experiment\": \"defense_oram\""),
        "{bench}"
    );
    let evt = std::fs::read(&events).expect("--events-out written");
    assert!(evt.starts_with(cnnre_obs::stream::MAGIC));
    let folded = std::fs::read_to_string(&profile).expect("--profile-out written");
    assert!(!folded.is_empty(), "the profile records the run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_and_unknown_arguments_exit_with_usage() {
    for args in [
        &["--threads", "0"][..],
        &["--profile-clock", "lunar"],
        &["--events-tcp", "x"],
    ] {
        let run = experiment(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} must fail before running");
    }
    let stderr = String::from_utf8_lossy(&experiment(&["--events-tcp", "x"]).stderr).into_owned();
    assert!(
        stderr.contains("unknown argument '--events-tcp'")
            && stderr.contains("usage: defense_oram"),
        "{stderr}"
    );
}
