//! The four workloads: what each sets up from its seed, and what one pass
//! over those inputs runs, times and checks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cnnre_accel::{AccelConfig, Accelerator};
use cnnre_attacks::structure::{
    enumerate_structures, filter_modular, filter_modular_pools, rank_candidates,
    recover_structures, CandidateStructure, NetworkSolverConfig, NodeChoice, ObservedNetwork,
    RankingConfig, SolveError, SolverConfig,
};
use cnnre_attacks::weights::{
    recover_ratios_parallel, FunctionalOracle, LayerGeometry, MergedOrder, RatioRecovery,
    RecoveryConfig,
};
use cnnre_nn::data::{Dataset, SyntheticSpec};
use cnnre_nn::layer::{Conv2d, PoolKind};
use cnnre_nn::models::{alexnet, convnet, lenet, squeezenet};
use cnnre_nn::{Network, Op};
use cnnre_tensor::rng::{Rng, SeedableRng, SmallRng};
use cnnre_tensor::{init, Shape3, Shape4, Tensor4};
use cnnre_trace::observe::{observe, TraceObservations};

use crate::branchy;
use crate::probe::{Digest, Tally, TimedOracle};

/// Networks per `structure-branchy` pass (half inception, half residual).
const BRANCHY_NETWORKS: u64 = 96;
/// CONV1 filters per compression level in a `weights-conv1` pass.
const FILTERS_PER_LEVEL: usize = 4;
/// Compression levels of the `weights-conv1` victims: the paper's 45% and
/// a sparse 90%, since the query count depends on sparsity.
const PRUNE_LEVELS: [f64; 2] = [0.45, 0.90];
/// The paper's accuracy claim on every recovered `w/b`.
const MAX_RATIO_ERROR: f64 = 1.0 / 1024.0;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 3's four networks at full scale.
    StructureZoo,
    /// Seeded small inception and residual networks.
    StructureBranchy,
    /// Figure 7's AlexNet CONV1 weights attack.
    WeightsConv1,
    /// Ranking LeNet's recovered candidates by short training.
    RankLenet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::StructureZoo,
        Workload::StructureBranchy,
        Workload::WeightsConv1,
        Workload::RankLenet,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::StructureZoo => "structure-zoo",
            Workload::StructureBranchy => "structure-branchy",
            Workload::WeightsConv1 => "weights-conv1",
            Workload::RankLenet => "rank-lenet",
        }
    }

    /// Input sets a run cycles through (pass `i` runs set `i mod n`). The
    /// zoo's traces ignore the seed and training cost ignores the data, so
    /// one set, repeated, is enough. Weights draws differ in cost, so a run
    /// covers two. Branchy draws differ in cost and their many short pool
    /// calls add noise in both directions, so each set runs about once and
    /// a run covers 16 (1,536 networks).
    #[must_use]
    pub fn input_sets(self) -> u64 {
        match self {
            Workload::StructureZoo | Workload::RankLenet => 1,
            Workload::WeightsConv1 => 2,
            Workload::StructureBranchy => 16,
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How a pass runs: worker threads, and whether it is the traced run
/// (observability on, decomposed structure path, timed victim oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Worker threads for the solver and the weights attack.
    pub threads: usize,
    /// Traced run.
    pub traced: bool,
}

/// Side-channel-visible geometry of one conv layer as the attack recovers
/// it: `(F_conv, S_conv, D_OFM, merged pooling (F_pool, S_pool))`. Padding
/// is left out: the solver keeps one representative of paddings the
/// channel cannot tell apart.
pub type ConvSig = (usize, usize, usize, Option<(usize, usize)>);

/// One structure-attack victim.
#[derive(Debug)]
pub struct Victim {
    /// Display name.
    pub name: String,
    /// The network the accelerator runs.
    pub net: Network,
    /// Input interface `(W_IFM, D_IFM)`, known to the adversary.
    pub input: (usize, usize),
    /// Output classes, known to the adversary.
    pub classes: usize,
    /// The true conv geometry, in execution order.
    pub truth: Vec<ConvSig>,
    /// Apply SqueezeNet's fire-module modularity filter.
    pub modular: bool,
}

impl Victim {
    fn new(name: String, net: Network, input: (usize, usize), classes: usize) -> Self {
        let truth = true_convs(&net);
        Self {
            name,
            net,
            input,
            classes,
            truth,
            modular: false,
        }
    }
}

/// The `weights-conv1` victim layer.
#[derive(Debug)]
pub struct WeightsVictim {
    /// The victim's CONV1 layer (ground truth).
    pub conv: Conv2d,
    /// Oracle over the victim, cloned into each attack.
    pub oracle: FunctionalOracle,
}

/// Inputs a workload's passes run on, built by [`setup`].
#[derive(Debug)]
pub enum State {
    /// Structure attacks on these victims.
    Structure(Vec<Victim>),
    /// The weights attack on this layer.
    Weights(Box<WeightsVictim>),
    /// Ranking of these candidates on these datasets.
    Rank {
        /// LeNet's recovered candidates.
        candidates: Vec<CandidateStructure>,
        /// Training set.
        train: Dataset,
        /// Validation set.
        test: Dataset,
    },
}

/// The structure solver configuration at `threads` workers.
#[must_use]
fn solver_config(threads: usize) -> NetworkSolverConfig {
    NetworkSolverConfig {
        layer: SolverConfig {
            threads,
            ..SolverConfig::default()
        },
        ..NetworkSolverConfig::default()
    }
}

/// Figure 7's CONV1 geometry: 11×11/s4 with a merged 3×3/s2 max pool,
/// activation before pooling, on fig7's reduced 51×51 input.
#[must_use]
fn conv1_geometry(filters: usize) -> LayerGeometry {
    LayerGeometry {
        input: Shape3::new(3, 51, 51),
        d_ofm: filters,
        f: 11,
        s: 4,
        p: 0,
        pool: Some((PoolKind::Max, 3, 2, 0)),
        order: MergedOrder::ActThenPool,
        threshold: 0.0,
    }
}

/// The seed of input stream `index` under `seed`.
#[must_use]
pub fn stream(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index
}

/// Builds input set `set` of `seed`.
///
/// # Panics
///
/// Panics when a fixed study network fails to build or LeNet's structure
/// attack fails (bugs, not workload properties).
#[must_use]
pub fn setup(workload: Workload, seed: u64, set: u64) -> State {
    match workload {
        // The zoo's traces do not depend on weight values, so the seed only
        // reaches the (unobserved) weight init.
        Workload::StructureZoo => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let lenet = lenet(1, 10, &mut rng);
            let convnet = convnet(1, 10, &mut rng);
            let alexnet = alexnet(1, 1000, &mut rng);
            let squeezenet = squeezenet(1, 1000, &mut rng);
            let mut squeezenet = Victim::new("SqueezeNet".into(), squeezenet, (227, 3), 1000);
            squeezenet.modular = true;
            State::Structure(vec![
                Victim::new("LeNet".into(), lenet, (32, 1), 10),
                Victim::new("ConvNet".into(), convnet, (32, 3), 10),
                Victim::new("AlexNet".into(), alexnet, (227, 3), 1000),
                squeezenet,
            ])
        }
        Workload::StructureBranchy => State::Structure(
            (set * BRANCHY_NETWORKS..(set + 1) * BRANCHY_NETWORKS)
                .map(|i| {
                    let arch = branchy::draw(seed, i);
                    let net = arch.build(seed ^ i);
                    Victim::new(format!("branchy#{i}"), net, branchy::INPUT, arch.classes())
                })
                .collect(),
        ),
        // One CONV1 layer per input set: its first filters at 45% and its last
        // at 90%, so the pool finishes on the cheaper sparse filters.
        Workload::WeightsConv1 => {
            let filters = FILTERS_PER_LEVEL * PRUNE_LEVELS.len();
            let mut weights = Vec::new();
            let mut bias = Vec::new();
            for (level, &prune) in PRUNE_LEVELS.iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(stream(stream(seed, set), level as u64));
                let shape = Shape4::new(FILTERS_PER_LEVEL, 3, 11, 11);
                weights.extend(init::compressed_conv(&mut rng, shape, prune, 8).as_slice());
                bias.extend((0..FILTERS_PER_LEVEL).map(|_| -rng.gen_range(0.05..0.5f32)));
            }
            let weights = Tensor4::from_vec(Shape4::new(filters, 3, 11, 11), weights)
                .expect("filter banks concatenate");
            let geom = conv1_geometry(filters);
            let conv = Conv2d::from_parts(weights, bias, geom.s, geom.p)
                .expect("CONV1 victim shapes agree");
            let oracle = FunctionalOracle::new(conv.clone(), geom);
            State::Weights(Box::new(WeightsVictim { conv, oracle }))
        }
        Workload::RankLenet => {
            let mut rng = SmallRng::seed_from_u64(stream(seed, set));
            let victim = lenet(1, 10, &mut rng);
            let exec = Accelerator::new(AccelConfig::default())
                .run_trace_only(&victim)
                .expect("LeNet lowers onto the accelerator");
            let candidates = recover_structures(&exec.trace, (32, 1), 10, &solver_config(1))
                .expect("LeNet structure attack");
            let spec = SyntheticSpec::new(Shape3::new(1, 32, 32), 10)
                .samples_per_class(4)
                .noise(0.4);
            let templates = spec.templates(&mut rng);
            let train = spec.generate_from_templates(&templates, &mut rng);
            let test = spec.generate_from_templates(&templates, &mut rng);
            State::Rank {
                candidates,
                train,
                test,
            }
        }
    }
}

/// The ranking run's hyper-parameters: LeNet at full depth, one epoch.
#[must_use]
fn ranking_config() -> RankingConfig {
    RankingConfig {
        depth_div: 1,
        epochs: 1,
        learning_rate: 0.01,
        ..RankingConfig::default()
    }
}

/// Runs one pass over `state`'s inputs.
#[must_use]
pub fn pass(state: &State, mode: Mode) -> Tally {
    let mut t = Tally::default();
    match state {
        State::Structure(victims) => structure_pass(victims, mode, &mut t),
        State::Weights(victim) => weights_pass(victim, mode, &mut t),
        State::Rank {
            candidates,
            train,
            test,
        } => {
            let cfg = ranking_config();
            let ranked = t.time("rank", || rank_candidates(candidates, train, test, &cfg));
            let check = Instant::now();
            let trained = ranked.len() as u64;
            // Every candidate is an operation; those `rank_candidates`
            // skipped are the failures.
            for i in 0..candidates.len() {
                t.op(ranked.iter().any(|r| r.candidate_index == i));
            }
            t.count("rank.candidates_trained", trained);
            t.count(
                "rank.samples",
                trained * cfg.epochs as u64 * train.len() as u64,
            );
            for r in &ranked {
                t.digest.word(r.candidate_index as u64);
                t.digest.word(u64::from(r.accuracy.to_bits()));
            }
            t.checked_since(check);
        }
    }
    t
}

fn structure_pass(victims: &[Victim], mode: Mode, t: &mut Tally) {
    let accel = Accelerator::new(AccelConfig::default());
    let cfg = solver_config(mode.threads);
    for v in victims {
        let exec = match t.time("accel", || accel.run_trace_only(&v.net)) {
            Ok(exec) => exec,
            Err(e) => {
                eprintln!("{}: accelerator error: {e}", v.name);
                t.op(false);
                continue;
            }
        };
        t.count("accel.calls", 1);
        t.count("accel.events", exec.trace.len() as u64);
        t.count("accel.sim_cycles", exec.trace.duration());
        t.count("trace.events", exec.trace.len() as u64);
        let found = if mode.traced {
            let obs = t.time("trace", || observe(&exec.trace));
            t.count("trace.layers", obs.layers.len() as u64);
            t.time("structure", || {
                lift_and_enumerate(&obs, v.input, v.classes, &cfg)
            })
        } else {
            // The attack's real entry point; the traced run splits it into
            // the same calls (see `lift_and_enumerate`).
            t.time("structure", || {
                recover_structures(&exec.trace, v.input, v.classes, &cfg)
            })
        };
        let found = found.map(|s| {
            if v.modular {
                t.time("structure", || squeezenet_modular(s))
            } else {
                s
            }
        });
        let check = Instant::now();
        match found {
            Ok(structures) => {
                let ok = contains_truth(&structures, &v.truth);
                if !ok {
                    eprintln!(
                        "{}: true geometry missing from {} candidates",
                        v.name,
                        structures.len()
                    );
                }
                t.op(ok);
                t.count("candidates", structures.len() as u64);
                digest_candidates(&mut t.digest, &structures);
            }
            Err(e) => {
                eprintln!("{}: {e}", v.name);
                t.op(false);
                t.digest.word(u64::MAX);
            }
        }
        t.checked_since(check);
    }
}

/// The structure attack decomposed at its layer boundaries: trace
/// observations in, candidates out, exactly as `recover_structures` chains
/// them.
///
/// # Errors
///
/// Returns [`SolveError`] when the trace has no layers or the solver
/// finds no consistent structure.
fn lift_and_enumerate(
    obs: &TraceObservations,
    input: (usize, usize),
    classes: usize,
    cfg: &NetworkSolverConfig,
) -> Result<Vec<CandidateStructure>, SolveError> {
    if obs.layers.is_empty() {
        return Err(SolveError::EmptyTrace);
    }
    enumerate_structures(
        &ObservedNetwork::from_observations(obs),
        input,
        classes,
        cfg,
    )
}

/// Table 3's modularity assumption for SqueezeNet v1.0: the eight fire
/// modules share their squeeze/expand geometry, and the pools after
/// fire 4 and fire 8 share theirs.
fn squeezenet_modular(s: Vec<CandidateStructure>) -> Vec<CandidateStructure> {
    let conv_groups: Vec<Vec<usize>> = (0..3)
        .map(|role| (0..8).map(|m| 1 + 3 * m + role).collect())
        .collect();
    let pool_groups = vec![vec![8, 9, 20, 21]];
    filter_modular_pools(filter_modular(s, &conv_groups), &pool_groups)
}

fn weights_pass(v: &WeightsVictim, mode: Mode, t: &mut Tally) {
    let cfg = RecoveryConfig {
        threads: mode.threads,
        ..RecoveryConfig::default()
    };
    let rec = if mode.traced {
        let victim_ns = Arc::new(AtomicU64::new(0));
        let oracle = TimedOracle::new(v.oracle.clone(), Arc::clone(&victim_ns));
        let rec = t.time("weights", || recover_ratios_parallel(oracle, &cfg));
        *t.busy.entry("oracle").or_default() += victim_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        rec
    } else {
        t.time("weights", || {
            recover_ratios_parallel(v.oracle.clone(), &cfg)
        })
    };
    let check = Instant::now();
    check_ratios(&rec, &v.conv, t);
    t.checked_since(check);
}

/// Checks every recovered filter against the victim: a filter fails on
/// any `|w/b|` error of at least 2⁻¹⁰ or any false zero.
fn check_ratios(rec: &RatioRecovery, conv: &Conv2d, t: &mut Tally) {
    let shape = conv.weights().shape();
    t.count("victim_queries", rec.queries);
    t.count(
        "weights.total",
        (shape.n * shape.c * shape.h * shape.w) as u64,
    );
    for (d, filter) in rec.filters.iter().enumerate() {
        let bias = f64::from(conv.bias()[d]);
        let mut ok = true;
        let mut unrecovered = 0;
        for c in 0..shape.c {
            for i in 0..shape.h {
                for j in 0..shape.w {
                    let w = f64::from(conv.weights()[(d, c, i, j)]);
                    match filter.ratio(c, i, j) {
                        None => unrecovered += 1,
                        Some(r) if r == 0.0 && w != 0.0 => ok = false,
                        Some(r) => ok &= (r - w / bias).abs() < MAX_RATIO_ERROR,
                    }
                }
            }
        }
        t.op(ok);
        t.count("weights_unrecovered", unrecovered);
        for r in filter.as_slice() {
            t.digest.word(r.map_or(u64::MAX, f64::to_bits));
        }
    }
}

/// The conv geometry of `net` in execution order, each conv with the
/// pooling stage the accelerator merges behind it (through its ReLU).
/// Global average pooling appears as a full-width window, as the solver
/// reports it.
#[must_use]
fn true_convs(net: &Network) -> Vec<ConvSig> {
    let nodes = net.nodes();
    let consumer = |i: usize| {
        nodes
            .iter()
            .skip(i + 1)
            .position(|n| n.inputs.first().map(|x| x.index()) == Some(i) && n.inputs.len() == 1)
            .map(|k| k + i + 1)
    };
    nodes
        .iter()
        .enumerate()
        .filter_map(|(i, node)| {
            let Op::Conv(conv) = &node.op else {
                return None;
            };
            let win = conv.window();
            let w_conv = net.shape(cnnre_nn::NodeId::from_index(i)).w;
            let relu = consumer(i).filter(|&r| matches!(nodes[r].op, Op::Relu(_)));
            let pool = relu.and_then(consumer).and_then(|p| match &nodes[p].op {
                Op::Pool(pool) => Some((pool.window().f, pool.window().s)),
                Op::GlobalAvgPool => Some((w_conv, w_conv)),
                _ => None,
            });
            Some((win.f, win.s, conv.d_ofm(), pool))
        })
        .collect()
}

/// Whether some candidate's conv geometry is exactly `truth`.
#[must_use]
fn contains_truth(structures: &[CandidateStructure], truth: &[ConvSig]) -> bool {
    structures.iter().any(|s| {
        let convs = s.conv_layers();
        convs.len() == truth.len()
            && convs.iter().zip(truth).all(|(c, &(f, s, d, pool))| {
                (c.f_conv, c.s_conv, c.d_ofm, c.pool.map(|p| (p.f, p.s))) == (f, s, d, pool)
            })
    })
}

fn digest_candidates(d: &mut Digest, structures: &[CandidateStructure]) {
    d.word(structures.len() as u64);
    for s in structures {
        d.word(s.choices.len() as u64);
        for choice in &s.choices {
            match choice {
                NodeChoice::Input => d.word(0),
                NodeChoice::Merge => d.word(1),
                NodeChoice::Conv(p) => {
                    d.word(2);
                    for x in [
                        p.w_ifm, p.d_ifm, p.w_ofm, p.d_ofm, p.f_conv, p.s_conv, p.p_conv,
                    ] {
                        d.word(x as u64);
                    }
                    let (f, s, pad) = p.pool.map_or((0, 0, 0), |q| (q.f, q.s, q.p));
                    for x in [f, s, pad] {
                        d.word(x as u64);
                    }
                }
                NodeChoice::Fc(p) => {
                    d.word(3);
                    d.word(p.in_features as u64);
                    d.word(p.out_features as u64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decomposed(v: &Victim, threads: usize) -> Result<Vec<CandidateStructure>, SolveError> {
        let exec = Accelerator::new(AccelConfig::default())
            .run_trace_only(&v.net)
            .expect("lowers");
        let cfg = solver_config(threads);
        let whole = recover_structures(&exec.trace, v.input, v.classes, &cfg);
        let split = lift_and_enumerate(&observe(&exec.trace), v.input, v.classes, &cfg);
        assert_eq!(split, whole, "{}: decomposed path differs", v.name);
        whole
    }

    #[test]
    fn decomposed_path_matches_recover_structures() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut victims = vec![
            Victim::new("LeNet".into(), lenet(1, 10, &mut rng), (32, 1), 10),
            Victim::new("ConvNet".into(), convnet(1, 10, &mut rng), (32, 3), 10),
        ];
        victims.extend((0..6).map(|i| {
            let arch = branchy::draw(11, i);
            Victim::new(
                format!("branchy#{i}"),
                arch.build(i),
                branchy::INPUT,
                arch.classes(),
            )
        }));
        for v in &victims {
            for threads in [1, 2] {
                let found = decomposed(v, threads).expect("solvable");
                assert!(
                    contains_truth(&found, &v.truth),
                    "{}: truth missing",
                    v.name
                );
            }
        }
    }

    #[test]
    fn true_geometry_of_lenet() {
        let net = lenet(1, 10, &mut SmallRng::seed_from_u64(0));
        assert_eq!(
            true_convs(&net),
            vec![(5, 1, 6, Some((2, 2))), (5, 1, 16, Some((2, 2)))]
        );
    }

    #[test]
    fn empty_observations_are_an_error_not_a_panic() {
        let obs = observe(&cnnre_trace::Trace::from_parts(Vec::new(), 64, 4));
        assert_eq!(
            lift_and_enumerate(&obs, (32, 1), 10, &solver_config(1)),
            Err(SolveError::EmptyTrace)
        );
    }

    #[test]
    fn unsolvable_network_is_a_failed_operation() {
        // LeNet observed with the wrong class count admits no structure.
        let net = lenet(1, 10, &mut SmallRng::seed_from_u64(0));
        let victims = [Victim::new("LeNet/7".into(), net, (32, 1), 7)];
        let mut t = Tally::default();
        structure_pass(
            &victims,
            Mode {
                threads: 2,
                traced: false,
            },
            &mut t,
        );
        assert_eq!((t.attempted, t.failed), (1, 1));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
