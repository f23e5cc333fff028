//! The repository benchmark: one workload per process, attack cost as a
//! user pays it (`--trace 0`), or per-layer busy time and work counts
//! measured around each layer's public functions (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path attackbench/Cargo.toml -- \
//!     --workload structure-zoo --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The line before it carries the output digest and the exact counts.

mod branchy;
mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::{Tally, CHECK, LAYERS};
use workloads::{pass, setup, Mode, State, Workload};

/// Worker threads of every end-to-end pass: fixed, never read from the
/// machine, so runs on different hosts do the same work.
const THREADS: usize = 2;
/// A run makes at least this many passes.
const MIN_PASSES: usize = 3;
/// Before each pass, set-up repeats until it has taken [`SETUP_MIN_TIME`]
/// (at most [`SETUP_MAX_REPS`] times).
const SETUP_MIN_TIME: Duration = Duration::from_millis(50);
const SETUP_MAX_REPS: usize = 1000;

/// End-to-end metrics, printed by `--trace 0`: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("attack_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by `--trace 1`: `(name, unit)`.
const PER_LAYER: [(&str, &str); 39] = [
    ("accel.calls", "count"),
    ("accel.busy_s", "s"),
    ("accel.events", "count"),
    ("accel.sim_cycles", "cycles"),
    ("accel.ns_per_event", "ns"),
    ("sim_events_per_s", "1/s"),
    ("trace.busy_s", "s"),
    ("trace.events", "count"),
    ("trace.layers", "count"),
    ("trace.ns_per_event", "ns"),
    ("structure.busy_s", "s"),
    ("solver.chain.recursion_branches", "count"),
    ("solver.chain.structures_surviving", "count"),
    ("solver.conv.geometry_candidates", "count"),
    ("solver.conv.candidates_surviving", "count"),
    ("solver.memo.hits", "count"),
    ("solver.memo.misses", "count"),
    ("structure.survival_ratio", "ratio"),
    ("solver.memo.hit_ratio", "ratio"),
    ("candidates", "count"),
    ("weights.busy_s", "s"),
    ("oracle.queries", "count"),
    ("oracle.victim_queries", "count"),
    ("weights.search.grid_probes", "count"),
    ("weights.search.refine_steps", "count"),
    ("weights.search.crossings", "count"),
    ("weights.search.crossing_yield", "ratio"),
    ("victim_queries_per_weight", "queries"),
    ("weights_unrecovered", "count"),
    ("oracle.victim_busy_s", "s"),
    ("oracle.victim_share", "ratio"),
    ("exec.speedup.structure", "ratio"),
    ("exec.speedup.weights", "ratio"),
    ("rank.busy_s", "s"),
    ("rank.candidates_trained", "count"),
    ("rank.samples", "count"),
    ("rank.us_per_sample", "us"),
    ("unattributed_s", "s"),
    ("obs.overhead_s", "s"),
];

/// Program counters read from the observability registry in traced
/// passes. All are schedule-independent, so they must repeat exactly.
const PROGRAM_COUNTERS: [&str; 11] = [
    "solver.chain.recursion_branches",
    "solver.chain.structures_surviving",
    "solver.conv.geometry_candidates",
    "solver.conv.candidates_surviving",
    "solver.memo.hits",
    "solver.memo.misses",
    "oracle.queries",
    "oracle.victim_queries",
    "weights.search.grid_probes",
    "weights.search.refine_steps",
    "weights.search.crossings",
];

const USAGE: &str =
    "usage: attackbench --workload <structure-zoo|structure-branchy|weights-conv1|rank-lenet> \
                     --seed <n> --seconds <n> --trace <0|1>";

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// One timed pass: the input set it ran, its wall time and what it
/// measured.
struct Timed {
    set: u64,
    wall_s: f64,
    tally: Tally,
}

/// Runs one pass over input set `set`, timing it without the benchmark's
/// own checks.
fn timed_pass(state: &State, set: u64, mode: Mode) -> Timed {
    if mode.traced {
        cnnre_obs::global().reset();
    }
    let t0 = Instant::now();
    let mut tally = pass(state, mode);
    let wall_s = t0.elapsed().as_secs_f64() - tally.busy(CHECK);
    if mode.traced {
        for name in PROGRAM_COUNTERS {
            tally.count(name, cnnre_obs::counter(name).get());
        }
    }
    // Per-pass times on stderr show host noise that a run's median hides.
    eprintln!("pass set {set} wall_s {wall_s:.6}");
    Timed { set, wall_s, tally }
}

/// Median of `values` (0 for none).
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The timing estimator: the fastest sample of each input set, because
/// interference from outside the process only ever adds time, then the
/// median over the input sets, which differ in cost.
fn estimate(samples: impl IntoIterator<Item = (u64, f64)>) -> f64 {
    let mut fastest: BTreeMap<u64, f64> = BTreeMap::new();
    for (set, v) in samples {
        let best = fastest.entry(set).or_insert(v);
        *best = best.min(v);
    }
    median(fastest.into_values().collect())
}

fn estimate_of(passes: &[Timed], f: impl Fn(&Timed) -> f64) -> f64 {
    estimate(passes.iter().map(|p| (p.set, f(p))))
}

/// `num / den`, or 0 when the layer did no work.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Whether `other` produced the same outputs and exact counts as
/// `reference` on the same inputs. Any thread count and tracing mode must
/// agree; a difference is a failure, not noise.
fn agrees(reference: &Tally, other: &Tally) -> bool {
    let mut same = other.digest == reference.digest;
    for (key, &value) in &reference.exact {
        if other.exact.contains_key(key) && other.exact(key) != value {
            eprintln!(
                "determinism: {key} = {} where another run of the same inputs had {value}",
                other.exact(key)
            );
            same = false;
        }
    }
    if !same {
        eprintln!("determinism: outputs differ between runs of the same inputs");
    }
    same
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds input set `set`, repeatedly for cheap set-ups, appending each
/// build's time to `times`; returns the last inputs built.
fn timed_setup(args: &Args, set: u64, times: &mut Vec<(u64, f64)>) -> State {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t0 = Instant::now();
        let state = setup(args.workload, args.seed, set);
        times.push((set, t0.elapsed().as_secs_f64()));
        reps += 1;
        if start.elapsed() >= SETUP_MIN_TIME || reps >= SETUP_MAX_REPS {
            return state;
        }
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    /// What pass 0 measured: its digest and exact counts.
    first: Tally,
    passes: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn totals(passes: &[Timed]) -> (u64, u64) {
    passes.iter().fold((0, 0), |(a, f), p| {
        (a + p.tally.attempted, f + p.tally.failed)
    })
}

fn end_to_end(args: &Args) -> Outcome {
    let mode = Mode {
        threads: THREADS,
        traced: false,
    };
    // Pass `i` runs input set `i mod sets`, built just before it, so set-up
    // time is sampled across the whole run like the passes are.
    let sets = args.workload.input_sets();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut passes: Vec<Timed> = Vec::new();
    let mut bad = 0;
    while passes.len() < min_passes(sets) || start.elapsed() < budget {
        let set = passes.len() as u64 % sets;
        let state = timed_setup(args, set, &mut setups);
        let t = timed_pass(&state, set, mode);
        if let Some(earlier) = passes.iter().find(|p| p.set == set) {
            bad += u64::from(!agrees(&earlier.tally, &t.tally));
        }
        passes.push(t);
    }
    let (attempted, failed) = totals(&passes);
    let values = [
        estimate(setups),
        estimate_of(&passes, |p| p.wall_s),
        estimate_of(&passes, |p| p.tally.attack_s()),
        peak_rss_mb(),
    ];
    Outcome {
        attempted,
        failed: failed + bad,
        first: std::mem::take(&mut passes[0].tally),
        passes: passes.len(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
    }
}

/// At least [`MIN_PASSES`] passes, and every input set at least once.
fn min_passes(sets: u64) -> usize {
    MIN_PASSES.max(usize::try_from(sets).unwrap_or(usize::MAX))
}

/// Per-layer metrics. Each pass's inputs run three times: untraced, traced
/// at [`THREADS`] workers and traced at one worker. Times use the run's
/// estimator over the sets it reached; exact counts are pass 0's, which
/// every run of a seed repeats.
fn traced(args: &Args) -> Outcome {
    let sets = args.workload.input_sets();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut plain, mut two, mut one) = (Vec::new(), Vec::new(), Vec::new());
    let mut bad = 0;
    let mode = |threads, traced| Mode { threads, traced };
    while two.len() < MIN_PASSES || start.elapsed() < budget {
        let set = two.len() as u64 % sets;
        let state = setup(args.workload, args.seed, set);
        let p = timed_pass(&state, set, mode(THREADS, false));
        cnnre_obs::set_enabled(true);
        let t2 = timed_pass(&state, set, mode(THREADS, true));
        let t1 = timed_pass(&state, set, mode(1, true));
        cnnre_obs::set_enabled(false);
        bad += u64::from(!agrees(&t2.tally, &t1.tally)) + u64::from(!agrees(&t2.tally, &p.tally));
        plain.push(p);
        two.push(t2);
        one.push(t1);
    }

    let first = &two[0].tally;
    let exact = |name: &str| first.exact(name) as f64;
    let busy_in = |passes: &[Timed], layer: &str| estimate_of(passes, |p| p.tally.busy(layer));
    let busy = |layer: &str| busy_in(&two, layer);
    let per_event = |layer: &str, passes: &[Timed]| {
        let events = format!("{layer}.events");
        estimate_of(passes, |p| {
            ratio(p.tally.busy(layer), p.tally.exact(&events) as f64)
        })
    };
    let weights_busy = busy("weights");
    let rank_busy = busy("rank");
    let victim_busy = busy("oracle");

    let values: BTreeMap<&str, f64> = [
        ("accel.calls", exact("accel.calls")),
        ("accel.busy_s", busy("accel")),
        ("accel.events", exact("accel.events")),
        ("accel.sim_cycles", exact("accel.sim_cycles")),
        ("accel.ns_per_event", 1e9 * per_event("accel", &two)),
        ("sim_events_per_s", ratio(1.0, per_event("accel", &plain))),
        ("trace.busy_s", busy("trace")),
        ("trace.events", exact("trace.events")),
        ("trace.layers", exact("trace.layers")),
        ("trace.ns_per_event", 1e9 * per_event("trace", &two)),
        ("structure.busy_s", busy("structure")),
        (
            "structure.survival_ratio",
            ratio(
                exact("solver.chain.structures_surviving"),
                exact("solver.chain.recursion_branches"),
            ),
        ),
        (
            "solver.memo.hit_ratio",
            ratio(
                exact("solver.memo.hits"),
                exact("solver.memo.hits") + exact("solver.memo.misses"),
            ),
        ),
        ("candidates", exact("candidates")),
        ("weights.busy_s", weights_busy),
        (
            "weights.search.crossing_yield",
            ratio(
                exact("weights.search.crossings"),
                exact("weights.search.grid_probes"),
            ),
        ),
        (
            "victim_queries_per_weight",
            ratio(exact("victim_queries"), exact("weights.total")),
        ),
        ("weights_unrecovered", exact("weights_unrecovered")),
        ("oracle.victim_busy_s", victim_busy),
        (
            "oracle.victim_share",
            ratio(victim_busy, THREADS as f64 * weights_busy),
        ),
        (
            "exec.speedup.structure",
            ratio(busy_in(&one, "structure"), busy("structure")),
        ),
        (
            "exec.speedup.weights",
            ratio(busy_in(&one, "weights"), weights_busy),
        ),
        ("rank.busy_s", rank_busy),
        ("rank.candidates_trained", exact("rank.candidates_trained")),
        ("rank.samples", exact("rank.samples")),
        (
            "rank.us_per_sample",
            1e6 * ratio(rank_busy, exact("rank.samples")),
        ),
        (
            "unattributed_s",
            estimate_of(&two, |p| {
                p.wall_s - LAYERS.iter().map(|l| p.tally.busy(l)).sum::<f64>()
            }),
        ),
        (
            "obs.overhead_s",
            estimate_of(&two, |p| p.wall_s) - estimate_of(&plain, |p| p.wall_s),
        ),
    ]
    .into_iter()
    .chain(PROGRAM_COUNTERS.iter().map(|&n| (n, exact(n))))
    .collect();

    let (attempted, failed) = [&plain, &two, &one]
        .iter()
        .map(|p| totals(p))
        .fold((0, 0), |(a, f), (x, y)| (a + x, f + y));
    Outcome {
        attempted,
        failed: failed + bad,
        passes: two.len(),
        first: std::mem::take(&mut two[0].tally),
        metrics: PER_LAYER
            .iter()
            .map(|&(n, u)| {
                (
                    n,
                    u,
                    *values.get(n).expect("every per-layer metric is computed"),
                )
            })
            .collect(),
    }
}

/// A JSON number: finite values as Rust prints them (shortest round-trip
/// form, every digit kept), anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let exact: Vec<String> = out
        .first
        .exact
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"threads\": {THREADS}, \"passes\": {}, \"digest\": \"{}\", \"exact\": {{{}}}}}",
        args.workload.name(),
        args.seed,
        out.passes,
        out.first.digest.hex(),
        exact.join(", ")
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line_flags() {
        let a = args("--workload rank-lenet --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::RankLenet);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(args("--workload rank-lenet --seed 7 --seconds 20 --trace 2").is_err());
        assert!(args("--workload nope --seed 7 --seconds 20 --trace 0").is_err());
        assert!(args("--workload rank-lenet --seed 7 --seconds 20").is_err());
        assert!(args("--workload rank-lenet --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--bogus 1").is_err());
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and units this binary prints, in the same order.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        // The values of `field` inside the list `key`, in order.
        let values = |key: &str, field: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = start + json[start..].find(']').expect("section closes");
            json[start..end]
                .split(&format!("\"{field}\": \""))
                .skip(1)
                .map(|v| v[..v.find('"').expect("value closes")].to_string())
                .collect()
        };
        let column = |table: &[(&str, &str)], unit: bool| -> Vec<String> {
            table
                .iter()
                .map(|&(n, u)| if unit { u } else { n }.to_string())
                .collect()
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            assert_eq!(values(key, "name"), column(table, false), "{key} names");
            assert_eq!(values(key, "unit"), column(table, true), "{key} units");
        }
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(values("workloads", "name"), names);
    }

    #[test]
    fn median_and_ratio_edge_cases() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(num(f64::NAN), "0");
    }
}
