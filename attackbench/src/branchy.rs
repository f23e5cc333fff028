//! The `structure-branchy` generator: seeded draws of small inception-style
//! and residual networks on 64×64×3 inputs.
//!
//! Every draw is buildable by construction (all widths divide cleanly
//! through the stem pool and each downsampling stage). A drawn network the
//! attack cannot solve is a failed operation; the generator never redraws.

use cnnre_nn::models::{
    inception, resnet, ConvSpec, InceptionModule, InceptionSpec, PoolSpec, ResNetSpec,
};
use cnnre_nn::Network;
use cnnre_tensor::rng::{Rng, SeedableRng, SmallRng};
use cnnre_tensor::Shape3;

/// Input interface `(W_IFM, D_IFM)` of every drawn network.
pub const INPUT: (usize, usize) = (64, 3);

/// One drawn architecture.
#[derive(Debug, Clone, PartialEq)]
pub enum Arch {
    /// GoogLeNet-style concatenating modules.
    Inception(InceptionSpec),
    /// Residual blocks with identity and projection shortcuts.
    ResNet(ResNetSpec),
}

impl Arch {
    /// Output classes of the drawn network.
    #[must_use]
    pub fn classes(&self) -> usize {
        match self {
            Arch::Inception(s) => s.classes,
            Arch::ResNet(s) => s.classes,
        }
    }

    /// Builds the network with weights drawn from `seed` (weights never
    /// reach a trace-only run, so they do not change the attack's work).
    ///
    /// # Panics
    ///
    /// Panics when the spec does not build, which the generator rules out.
    #[must_use]
    pub fn build(&self, seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            Arch::Inception(s) => inception(s, &mut rng),
            Arch::ResNet(s) => resnet(s, &mut rng),
        }
        .expect("generated architectures are buildable")
    }
}

fn pick<T: Copy>(rng: &mut SmallRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

fn stem(rng: &mut SmallRng) -> ConvSpec {
    let f = pick(rng, &[3, 5]);
    ConvSpec::new(pick(rng, &[8, 16, 32]), f, 1, f / 2).with_pool(PoolSpec::max(2, 2))
}

/// Draw `index` of the stream for `seed`. Even indices are inception
/// networks and odd ones residual networks, so every input set holds an equal
/// mix of concatenation-heavy and bypass-heavy graphs.
#[must_use]
pub fn draw(seed: u64, index: u64) -> Arch {
    let mut rng = SmallRng::seed_from_u64(crate::workloads::stream(seed, index));
    let input = Shape3::new(INPUT.1, INPUT.0, INPUT.0);
    let classes = rng.gen_range(5..=16usize);
    if index.is_multiple_of(2) {
        let stem = stem(&mut rng);
        let modules = (0..2)
            .map(|_| InceptionModule {
                b1: pick(&mut rng, &[4, 8, 16, 32]),
                b3: pick(&mut rng, &[8, 16, 32]),
                b5: pick(&mut rng, &[4, 8, 16]),
            })
            .collect();
        Arch::Inception(InceptionSpec {
            input,
            stem,
            modules,
            classes,
        })
    } else {
        let stem = stem(&mut rng);
        let stages = (0..2)
            .map(|_| (pick(&mut rng, &[8, 16, 32]), rng.gen_range(1..=2usize)))
            .collect();
        Arch::ResNet(ResNetSpec {
            input,
            stem,
            stages,
            classes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnnre_accel::{AccelConfig, Accelerator};

    #[test]
    fn draws_are_deterministic_per_seed() {
        for seed in [0, 1, 17] {
            let a: Vec<Arch> = (0..16).map(|i| draw(seed, i)).collect();
            let b: Vec<Arch> = (0..16).map(|i| draw(seed, i)).collect();
            assert_eq!(a, b);
        }
        let other: Vec<Arch> = (0..16).map(|i| draw(2, i)).collect();
        let first: Vec<Arch> = (0..16).map(|i| draw(1, i)).collect();
        assert_ne!(first, other, "seeds change the draws");
    }

    #[test]
    fn draws_build_and_lower_onto_the_accelerator() {
        let accel = Accelerator::new(AccelConfig::default());
        for seed in 0..4 {
            for i in 0..24 {
                let arch = draw(seed, i);
                let mut rng = SmallRng::seed_from_u64(seed);
                let built = match &arch {
                    Arch::Inception(s) => inception(s, &mut rng),
                    Arch::ResNet(s) => resnet(s, &mut rng),
                };
                let net = built.unwrap_or_else(|e| panic!("draw {seed}/{i} does not build: {e}"));
                let exec = accel.run_trace_only(&net).expect("lowers");
                assert!(
                    (1_000..200_000).contains(&exec.trace.len()),
                    "draw {seed}/{i}: {} events",
                    exec.trace.len()
                );
                assert_eq!(net.output_shape().c, arch.classes());
            }
        }
    }
}
