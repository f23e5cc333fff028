//! `cnnre-obsd`: the embeddable live-observability daemon.
//!
//! Glue between the transport layer ([`cnnre_obs::http`], which cannot
//! depend on this crate) and the certified [`crate::exec::ThreadPool`]:
//! scrape connections are served as ordinary pool jobs, so the HTTP
//! plane rides the same model-checked spawn/steal/shutdown protocol as
//! the attacks — no second thread-per-connection subsystem to certify.
//!
//! [`ObsSession`] is the one front door to observability for the CLI and
//! every experiment binary: it strips the shared flags from the argument
//! list, turns the requested signals on, starts a daemon for
//! `--serve-obs ADDR`, and at the end writes every sink:
//!
//! ```no_run
//! use cnnre_attacks::obsd::{MetricsSink, ObsSession};
//! use std::process::ExitCode;
//!
//! fn main() -> ExitCode {
//!     let session = match ObsSession::new(MetricsSink::Bench("table3")) {
//!         Ok(session) => session,
//!         Err(e) => return e.report(),
//!     };
//!     // ... run the attack; scrape /metrics, /progress, ... meanwhile ...
//!     session.finish(true).map_or_else(|e| e.report(), |()| ExitCode::SUCCESS)
//! }
//! ```
//!
//! [`serve`] force-enables metric collection (a scrape server with an
//! empty registry is useless), publishes the bound address to the file
//! named by `CNNRE_OBS_ADDR_FILE` (how subprocess tests and
//! `scripts/check.sh` learn an ephemeral port), and prints a listening
//! line to stderr. [`ObsDaemon::shutdown`] tears down in dependency
//! order — server first (so no connection can spawn onto a dying pool),
//! then the pool — and is also run on drop.

use std::fmt;
use std::io;
use std::path::PathBuf;

use cnnre_model::sync::Arc;

use crate::exec::ThreadPool;
use cnnre_obs::http::{Executor, ObsServer, ServerOptions};
use cnnre_obs::profile::ClockDomain;

/// Workers in the daemon's serving pool. Scrapes are tiny; two workers
/// cover concurrent scrape + follow-stream without stealing meaningful
/// CPU from the attack.
pub const DEFAULT_WORKERS: usize = 2;

/// Environment variable naming a file the daemon writes its bound
/// address to (useful with `127.0.0.1:0` ephemeral ports).
pub const ADDR_FILE_ENV: &str = "CNNRE_OBS_ADDR_FILE";

/// A running observability daemon: an [`ObsServer`] whose connections
/// are served by a dedicated certified [`ThreadPool`].
pub struct ObsDaemon {
    server: ObsServer,
    /// Dropped after the server in [`ObsDaemon::shutdown`]; `Option` so
    /// shutdown can stage the teardown explicitly.
    pool: Option<Arc<ThreadPool>>,
}

impl ObsDaemon {
    /// The address the server actually bound (real port for `:0`).
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// Blocks until a scraper sends `GET /quit` or the server shuts
    /// down. Backs the CLI's `--serve-obs-hold`.
    pub fn wait_quit(&self) {
        self.server.wait_quit();
    }

    /// Stops the server (drains in-flight scrapes), then the pool.
    /// Idempotent; also performed on drop — but call it explicitly
    /// before `std::process::exit`, which skips destructors.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
        self.pool.take();
    }
}

impl Drop for ObsDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and starts serving the five scrape endpoints off a
/// fresh certified pool. Enables global metric collection as a side
/// effect. `/quit` is allowed (the daemon exists to be probed).
///
/// # Errors
///
/// Propagates bind and thread-spawn failures from the server.
pub fn serve(addr: &str) -> io::Result<ObsDaemon> {
    cnnre_obs::set_enabled(true);
    let pool = Arc::new(ThreadPool::new(DEFAULT_WORKERS));
    let exec_pool = Arc::clone(&pool);
    let executor: Executor = Arc::new(move |job| exec_pool.spawn(job));
    let server = ObsServer::bind(
        addr,
        executor,
        ServerOptions {
            allow_quit: true,
            ..ServerOptions::default()
        },
    )?;
    let bound = server.addr();
    if let Ok(path) = std::env::var(ADDR_FILE_ENV) {
        if !path.is_empty() {
            std::fs::write(&path, format!("{bound}\n"))?;
        }
    }
    eprintln!("cnnre-obsd: serving /metrics /profile /progress /events /health on http://{bound}");
    Ok(ObsDaemon {
        server,
        pool: Some(pool),
    })
}

/// Help text for the flags every [`ObsSession`] accepts besides its
/// metrics flag (`--metrics` or `--out`, see [`MetricsSink`]).
pub const FLAGS_HELP: &str =
    "  --threads N          worker threads for the parallel attack engines (default:
                       CNNRE_THREADS or 1); output is identical at any value
  --profile-out FILE   record the span-tree timeline; writes Chrome Trace JSON
                       (open in ui.perfetto.dev), or folded flamegraph stacks
                       when FILE ends in .folded/.txt
  --profile-clock C    timeline clock domain: wall|cycles|both (default both)
  --events-out FILE    record the live attack-event stream to a replayable .evt file
                       (view with `cnnre-viz --replay FILE`)
  --serve-obs ADDR     serve live observability over HTTP while running:
                       /metrics /profile /progress /events /health
                       (scrape with `cnnre obs-probe`, follow with `cnnre-viz --follow`)
  --serve-obs-hold     keep serving after the run until a scraper sends GET /quit
  --log-level LEVEL    stderr verbosity: error|warn|info|debug|trace|off
                       (also settable via the CNNRE_LOG environment variable)";

/// Where an [`ObsSession`] writes its end-of-run metric snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsSink {
    /// `--metrics FILE`: the deterministic JSON snapshot
    /// ([`cnnre_obs::Snapshot::to_json`]). Arguments the session does not
    /// own are left for the caller (the CLI's subcommands).
    Json,
    /// `--out FILE`: a flat `BENCH_<experiment>.json`
    /// ([`cnnre_obs::Snapshot::to_bench_json`]). An experiment binary
    /// takes no other arguments, so a leftover one is a usage error.
    Bench(&'static str),
}

impl MetricsSink {
    /// The flag naming the snapshot file.
    const fn flag(self) -> &'static str {
        match self {
            MetricsSink::Json => "--metrics",
            MetricsSink::Bench(_) => "--out",
        }
    }
}

/// Why an [`ObsSession`] could not start or finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// A missing, malformed or unknown argument (exit code 2).
    Usage(String),
    /// A bind or write failure (exit code 1).
    Io(String),
}

impl SessionError {
    /// The process exit code for this error: 2 for usage, 1 for I/O.
    #[must_use]
    pub const fn exit_code(&self) -> u8 {
        match self {
            SessionError::Usage(_) => 2,
            SessionError::Io(_) => 1,
        }
    }

    /// Prints the error to stderr and returns its exit code.
    #[must_use]
    pub fn report(&self) -> std::process::ExitCode {
        eprintln!("{self}");
        std::process::ExitCode::from(self.exit_code())
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Usage(msg) | SessionError::Io(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SessionError {}

fn usage(msg: impl Into<String>) -> SessionError {
    SessionError::Usage(msg.into())
}

/// The shared flags, parsed but not yet applied.
#[derive(Debug, Default, PartialEq)]
struct Flags {
    rest: Vec<String>,
    threads: Option<usize>,
    log_level: Option<Option<cnnre_obs::log::Level>>,
    metrics: Option<PathBuf>,
    profile: Option<PathBuf>,
    clock: Option<ClockDomain>,
    events: Option<PathBuf>,
    serve: Option<String>,
    hold: bool,
}

impl Flags {
    /// Strips the session's flags from `args`, keeping the rest in order.
    fn parse(
        sink: MetricsSink,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, SessionError> {
        let mut flags = Flags::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            let mut value = || {
                it.next()
                    .ok_or_else(|| usage(format!("{flag} needs a value")))
            };
            match flag {
                "--threads" => {
                    let n = value()?.parse::<usize>().ok().filter(|&n| n >= 1);
                    let n =
                        n.ok_or_else(|| usage("--threads needs a positive integer worker count"))?;
                    flags.threads = Some(n);
                }
                "--log-level" => {
                    let v = value()?;
                    let level = cnnre_obs::log::Level::parse(&v).ok_or_else(|| {
                        usage(format!(
                            "unknown log level '{v}' (error|warn|info|debug|trace|off)"
                        ))
                    })?;
                    flags.log_level = Some(level);
                }
                "--profile-out" => flags.profile = Some(value()?.into()),
                "--profile-clock" => {
                    let v = value()?;
                    let clock = ClockDomain::parse(&v).ok_or_else(|| {
                        usage(format!("unknown profile clock '{v}' (wall|cycles|both)"))
                    })?;
                    flags.clock = Some(clock);
                }
                "--events-out" => flags.events = Some(value()?.into()),
                "--serve-obs" => flags.serve = Some(value()?),
                "--serve-obs-hold" => flags.hold = true,
                _ if flag == sink.flag() => flags.metrics = Some(value()?.into()),
                _ => flags.rest.push(arg),
            }
        }
        if flags.hold && flags.serve.is_none() {
            return Err(usage("--serve-obs-hold needs --serve-obs ADDR"));
        }
        if let (MetricsSink::Bench(experiment), Some(arg)) = (sink, flags.rest.first()) {
            return Err(usage(format!(
                "unknown argument '{arg}'\n\nusage: {experiment} [FLAGS]\n  \
                 --out FILE           write a flat BENCH_{experiment}.json metric snapshot\n{FLAGS_HELP}"
            )));
        }
        Ok(flags)
    }
}

/// One run's observability: the shared flags parsed once, the signals
/// they ask for switched on, and every sink finished in a fixed order by
/// [`ObsSession::finish`].
pub struct ObsSession {
    sink: MetricsSink,
    flags: Flags,
    daemon: Option<ObsDaemon>,
}

impl ObsSession {
    /// Parses the process arguments and starts the session:
    ///
    /// * `--threads N` installs the default worker count
    ///   ([`crate::exec::set_default_threads`]) — call before any config
    ///   is built;
    /// * `--log-level` sets the stderr logger;
    /// * the metrics flag, `--profile-out` and `--events-out` switch on
    ///   the registry, the timeline recorder and the recorded event
    ///   stream they write;
    /// * `--serve-obs ADDR` switches all three on and starts an
    ///   [`ObsDaemon`] on `ADDR`.
    ///
    /// # Errors
    ///
    /// [`SessionError::Usage`] for a bad or (with [`MetricsSink::Bench`])
    /// unknown argument, before anything is switched on;
    /// [`SessionError::Io`] when the daemon cannot bind.
    pub fn new(sink: MetricsSink) -> Result<Self, SessionError> {
        let flags = Flags::parse(sink, std::env::args().skip(1))?;
        if let Some(n) = flags.threads {
            crate::exec::set_default_threads(n);
        }
        match flags.log_level {
            Some(Some(level)) => cnnre_obs::log::set_level(level),
            Some(None) => cnnre_obs::log::set_off(),
            None => {}
        }
        let serving = flags.serve.is_some();
        if flags.metrics.is_some() || flags.profile.is_some() || flags.events.is_some() {
            cnnre_obs::set_enabled(true);
        }
        if flags.profile.is_some() || serving {
            cnnre_obs::profile::set_enabled(true);
        }
        if flags.events.is_some() || serving {
            cnnre_obs::stream::set_enabled(true);
            cnnre_obs::stream::set_record(true);
        }
        let daemon = match &flags.serve {
            Some(addr) => Some(serve(addr).map_err(|e| {
                SessionError::Io(format!("cannot serve observability on {addr}: {e}"))
            })?),
            None => None,
        };
        Ok(ObsSession {
            sink,
            flags,
            daemon,
        })
    }

    /// The arguments left after the session's flags were stripped, in
    /// order (always empty for [`MetricsSink::Bench`]).
    #[must_use]
    pub fn args(&self) -> &[String] {
        &self.flags.rest
    }

    /// Writes every requested sink — profile, events, metrics, in that
    /// order — then, with `--serve-obs-hold` and `hold`, keeps serving the
    /// finished run until a scraper sends `GET /quit`, and shuts the
    /// daemon down. Call it before `std::process::exit`, which skips
    /// destructors.
    ///
    /// # Errors
    ///
    /// [`SessionError::Io`] for the first sink that cannot be written;
    /// the later sinks and the hold are skipped.
    pub fn finish(mut self, hold: bool) -> Result<(), SessionError> {
        let written = self.write_sinks();
        if let Some(mut daemon) = self.daemon.take() {
            if written.is_ok() && hold && self.flags.hold {
                eprintln!(
                    "cnnre-obsd: run finished; still serving http://{} until GET /quit (--serve-obs-hold)",
                    daemon.addr()
                );
                daemon.wait_quit();
            }
            daemon.shutdown();
        }
        written
    }

    fn write_sinks(&self) -> Result<(), SessionError> {
        let write = |what: &str, path: &PathBuf, bytes: &[u8]| {
            std::fs::write(path, bytes).map_err(|e| {
                SessionError::Io(format!("cannot write {what} to {}: {e}", path.display()))
            })
        };
        if let Some(path) = &self.flags.profile {
            let clock = self.flags.clock.unwrap_or(ClockDomain::Both);
            // The cycle-domain track is synthesized from attached cycles,
            // so it is byte-deterministic across identical seeded runs;
            // the wall track is not.
            let dropped = cnnre_obs::profile::dropped();
            let events = cnnre_obs::profile::take();
            let folded = path
                .extension()
                .is_some_and(|e| e == "folded" || e == "txt");
            let rendered = if folded {
                cnnre_obs::profile::folded_stacks(&events, clock)
            } else {
                cnnre_obs::profile::chrome_trace(&events, clock)
            };
            write("profile", path, rendered.as_bytes())?;
            eprintln!(
                "profile written to {} ({} events, {dropped} dropped)",
                path.display(),
                events.len()
            );
        }
        if let Some(path) = &self.flags.events {
            // Not drained: a held server keeps replaying the whole run on
            // `/events`.
            let bytes = cnnre_obs::stream::recorded_stream_snapshot();
            write("events", path, &bytes)?;
            eprintln!(
                "events written to {} ({} bytes, {} dropped)",
                path.display(),
                bytes.len(),
                cnnre_obs::stream::dropped()
            );
        }
        if let Some(path) = &self.flags.metrics {
            // Deterministic export: wall-clock metrics are excluded from
            // the JSON snapshot, so identical seeded runs write identical
            // files.
            let snapshot = cnnre_obs::global().snapshot();
            let rendered = match self.sink {
                MetricsSink::Json => snapshot.to_json(false),
                MetricsSink::Bench(experiment) => snapshot.to_bench_json(experiment),
            };
            write("metrics", path, rendered.as_bytes())?;
            eprintln!("metrics written to {}", path.display());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn parse(sink: MetricsSink, args: &[&str]) -> Result<Flags, SessionError> {
        Flags::parse(sink, args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn session_flags_are_stripped_and_the_rest_kept_in_order() {
        let flags = parse(
            MetricsSink::Json,
            &[
                "trace",
                "lenet",
                "--threads",
                "3",
                "--metrics",
                "m.json",
                "--csv",
                "t.csv",
                "--profile-clock",
                "cycles",
                "--serve-obs",
                "127.0.0.1:0",
                "--serve-obs-hold",
                "--log-level",
                "off",
            ],
        )
        .expect("parses");
        assert_eq!(flags.rest, ["trace", "lenet", "--csv", "t.csv"]);
        assert_eq!(flags.threads, Some(3));
        assert_eq!(flags.metrics, Some(PathBuf::from("m.json")));
        assert_eq!(flags.clock, Some(ClockDomain::Cycles));
        assert_eq!(flags.serve.as_deref(), Some("127.0.0.1:0"));
        assert!(flags.hold);
        assert_eq!(flags.log_level, Some(None));
        // `--out` is only the bench sink's flag.
        assert_eq!(
            parse(MetricsSink::Json, &["--out", "x"])
                .expect("parses")
                .rest,
            ["--out", "x"]
        );
        let bench = parse(MetricsSink::Bench("table3"), &["--out", "b.json"]).expect("parses");
        assert_eq!(bench.metrics, Some(PathBuf::from("b.json")));
    }

    #[test]
    fn bad_session_flags_are_usage_errors() {
        for args in [
            &["--threads", "0"][..],
            &["--threads", "many"],
            &["--threads"],
            &["--profile-clock", "lunar"],
            &["--log-level", "shouty"],
            &["--events-out"],
            &["--serve-obs-hold"],
        ] {
            let err = parse(MetricsSink::Json, args).expect_err("rejected");
            assert_eq!(err.exit_code(), 2, "{args:?}: {err}");
        }
        let err = parse(MetricsSink::Bench("table3"), &["--thread", "4"]).expect_err("leftover");
        assert!(
            err.to_string().contains("unknown argument '--thread'"),
            "{err}"
        );
        assert!(err.to_string().contains("usage: table3"), "{err}");
    }

    #[test]
    fn daemon_serves_and_shuts_down_on_the_pool() {
        let mut daemon = serve("127.0.0.1:0").expect("bind loopback");
        let addr = daemon.addr().to_string();
        let (status, mut body) = cnnre_obs::http::get(&addr, "/health").expect("health");
        assert_eq!(status, 200);
        let mut text = String::new();
        body.read_to_string(&mut text).expect("health body");
        assert!(text.contains("\"status\": \"ok\""));
        let (status, _) = cnnre_obs::http::get(&addr, "/metrics").expect("metrics");
        assert_eq!(status, 200);
        daemon.shutdown();
        daemon.shutdown();
        assert!(cnnre_obs::http::get(&addr, "/health").is_err());
        cnnre_obs::set_enabled(false);
    }

    #[test]
    fn quit_scrape_wakes_the_hold_loop() {
        let mut daemon = serve("127.0.0.1:0").expect("bind loopback");
        let addr = daemon.addr().to_string();
        let (status, _) = cnnre_obs::http::get(&addr, "/quit").expect("quit");
        assert_eq!(status, 200);
        daemon.wait_quit();
        daemon.shutdown();
        cnnre_obs::set_enabled(false);
    }
}
