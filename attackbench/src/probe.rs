//! Measurement from outside the program: busy time and work counts taken
//! around calls into each layer's public functions, a digest of the
//! outputs, and the timing wrapper around the victim oracle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cnnre_attacks::weights::{LayerGeometry, Probe, ZeroCountOracle};

/// Layers whose busy time is the attacker's own work (`attack_s`).
pub const ATTACK_LAYERS: [&str; 4] = ["trace", "structure", "weights", "rank"];

/// Every layer timed by the benchmark; their busy times never nest.
pub const LAYERS: [&str; 5] = ["accel", "trace", "structure", "weights", "rank"];

/// Busy key of the benchmark's own correctness checks and digests.
pub const CHECK: &str = "check";

/// What one pass over a workload's inputs measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Busy seconds per layer ([`LAYERS`]), plus `oracle` (inside `weights`)
    /// and the benchmark's own [`CHECK`].
    pub busy: BTreeMap<&'static str, f64>,
    /// Counts that must repeat exactly for the same inputs.
    pub exact: BTreeMap<String, u64>,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Operations that failed their correctness check.
    pub failed: u64,
    /// Digest of every output the pass produced.
    pub digest: Digest,
}

impl Tally {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        *self.busy.entry(layer).or_default() += start.elapsed().as_secs_f64();
        out
    }

    /// Charges the time since `start` to the benchmark's own output checks,
    /// which a pass's wall time leaves out.
    pub fn checked_since(&mut self, start: Instant) {
        *self.busy.entry(CHECK).or_default() += start.elapsed().as_secs_f64();
    }

    /// Adds `n` to the exact count `name`.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.exact.entry(name.to_string()).or_default() += n;
    }

    /// Records one operation and whether it passed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Busy seconds of `layer` (0 when the pass never entered it).
    #[must_use]
    pub fn busy(&self, layer: &str) -> f64 {
        self.busy.get(layer).copied().unwrap_or(0.0)
    }

    /// Exact count `name` (0 when never recorded).
    #[must_use]
    pub fn exact(&self, name: &str) -> u64 {
        self.exact.get(name).copied().unwrap_or(0)
    }

    /// Seconds spent inside the attacker's entry points.
    #[must_use]
    pub fn attack_s(&self) -> f64 {
        ATTACK_LAYERS.iter().map(|l| self.busy(l)).sum()
    }
}

/// FNV-1a taken a 64-bit word at a time: a stable digest of outputs, so two builds can
/// be shown to produce the same candidates and ratios bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word into the digest.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A victim oracle that also sums the wall time spent answering queries
/// across all its clones, separating the victim's cost from the attacker's
/// search. Answers and query counts are the inner oracle's, unchanged.
#[derive(Debug, Clone)]
pub struct TimedOracle<O> {
    inner: O,
    busy_ns: Arc<AtomicU64>,
}

impl<O> TimedOracle<O> {
    /// Wraps `inner`, adding its query time to `busy_ns`.
    pub fn new(inner: O, busy_ns: Arc<AtomicU64>) -> Self {
        Self { inner, busy_ns }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut O) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // A statistic only: it publishes no other data.
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

impl<O: ZeroCountOracle> ZeroCountOracle for TimedOracle<O> {
    fn geometry(&self) -> LayerGeometry {
        self.inner.geometry()
    }

    fn query(&mut self, probes: &[Probe]) -> Vec<u64> {
        self.timed(|o| o.query(probes))
    }

    fn query_filter(&mut self, filter: usize, probes: &[Probe]) -> u64 {
        self.timed(|o| o.query_filter(filter, probes))
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnnre_attacks::weights::{
        recover_ratios_parallel, FunctionalOracle, MergedOrder, RecoveryConfig,
    };
    use cnnre_nn::layer::{Conv2d, PoolKind};
    use cnnre_tensor::rng::{Rng, SeedableRng, SmallRng};
    use cnnre_tensor::{init, Shape3, Shape4};

    #[test]
    fn timed_oracle_is_transparent() {
        let geom = LayerGeometry {
            input: Shape3::new(2, 12, 12),
            d_ofm: 3,
            f: 3,
            s: 1,
            p: 0,
            pool: Some((PoolKind::Max, 2, 2, 0)),
            order: MergedOrder::ActThenPool,
            threshold: 0.0,
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let weights = init::compressed_conv(&mut rng, Shape4::new(3, 2, 3, 3), 0.45, 8);
        let bias = (0..3).map(|_| -rng.gen_range(0.05..0.5f32)).collect();
        let conv = Conv2d::from_parts(weights, bias, 1, 0).expect("shapes agree");
        let cfg = RecoveryConfig {
            threads: 2,
            ..RecoveryConfig::default()
        };
        let bare = recover_ratios_parallel(FunctionalOracle::new(conv.clone(), geom), &cfg);
        let busy = Arc::new(AtomicU64::new(0));
        let timed = TimedOracle::new(FunctionalOracle::new(conv, geom), Arc::clone(&busy));
        let wrapped = recover_ratios_parallel(timed, &cfg);
        assert_eq!(wrapped, bare, "same ratios, zeros and query count");
        assert!(bare.queries > 0);
        assert!(busy.load(Ordering::Relaxed) > 0, "victim time was recorded");
    }

    #[test]
    fn digest_depends_on_every_word_and_its_order() {
        let digest = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|&w| d.word(w));
            d
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 2, 4]));
        assert_eq!(digest(&[]).hex().len(), 16);
    }
}
