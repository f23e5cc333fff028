//! Differential test of the trace front end: the single dense pass behind
//! `observe` against the two-pass front end it replaced — a segmenter over
//! ordered address sets and a read-only interval set, then a classifier
//! over per-segment ordered sets and a producer map committed after each
//! segment.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use cnn_reveng::trace::observe::{
    observe, IfmSource, LayerKindHint, LayerObservation, TraceObservations,
};
use cnn_reveng::trace::segment::Segment;
use cnn_reveng::trace::{AccessKind, MemoryEvent, Trace};
use cnnre_tensor::rng::{Rng, SeedableRng, SmallRng};

/// A seeded trace with sorted cycles and addresses drawn by `addr`.
fn arb_trace(seed: u64, addr: fn(&mut SmallRng, u64) -> u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ 0x7141);
    let block = if rng.gen_bool(0.5) { 32u64 } else { 64 };
    let n = rng.gen_range(0usize..200);
    let mut events: Vec<MemoryEvent> = (0..n)
        .map(|_| MemoryEvent {
            cycle: rng.gen_range(0u64..2_000),
            addr: addr(&mut rng, block),
            kind: if rng.gen_bool(0.5) {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        })
        .collect();
    events.sort_by_key(|ev| ev.cycle);
    Trace::from_parts(events, block, 4)
}

/// The single pass agrees with the reference on every address layout: the
/// compact aligned span of accelerator traces (dense ids), and misaligned
/// captures and sparse spans at both ends of the address space (rank ids).
#[test]
fn single_pass_matches_two_pass_reference() {
    let layouts: [fn(&mut SmallRng, u64) -> u64; 4] = [
        |rng, block| rng.gen_range(0u64..256) * block,
        |rng, block| rng.gen_range(0..256 * block),
        |rng, block| {
            let offset = rng.gen_range(0u64..64) * block;
            if rng.gen_bool(0.5) {
                offset
            } else {
                (u64::MAX - block + 1) - offset
            }
        },
        |rng, block| u64::MAX - rng.gen_range(0..8 * block),
    ];
    for seed in 0..256 {
        for (layout, addr) in layouts.iter().enumerate() {
            let trace = arb_trace(seed, *addr);
            assert_eq!(
                observe(&trace),
                two_pass(&trace),
                "seed {seed}, layout {layout}"
            );
        }
    }
}

fn two_pass(trace: &Trace) -> TraceObservations {
    let (events, block) = (trace.events(), trace.block_bytes());
    // Pass 1: RAW and fresh-region boundaries.
    let mut starts = vec![0];
    let (mut ever_written, mut written_now) = (BTreeSet::new(), BTreeSet::new());
    let mut ro_regions = IntervalSet::default();
    let mut has_write = false;
    for (i, ev) in events.iter().enumerate() {
        let boundary = written_now.contains(&ev.addr)
            || (!ever_written.contains(&ev.addr)
                && has_write
                && ro_regions.neighbour(ev.addr, block, block).is_none());
        if ev.kind.is_read() && boundary && i > starts[starts.len() - 1] {
            starts.push(i);
            written_now.clear();
            ro_regions.intervals.clear();
            has_write = false;
        }
        if ev.kind.is_write() {
            ever_written.insert(ev.addr);
            written_now.insert(ev.addr);
            has_write = true;
        } else if !ever_written.contains(&ev.addr) {
            ro_regions.insert(ev.addr, block, block);
        }
    }
    if !events.is_empty() {
        starts.push(events.len());
    }

    // Pass 2: per-segment footprints and producers.
    let mut producer = BTreeMap::new();
    let mut layers: Vec<LayerObservation> = Vec::new();
    for (index, w) in starts.windows(2).enumerate() {
        let (mut written, mut ro_read) = (BTreeSet::new(), BTreeSet::new());
        let mut ifm_read: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
        for ev in &events[w[0]..w[1]] {
            match (ev.kind, producer.get(&ev.addr)) {
                (AccessKind::Write, _) => written.insert(ev.addr),
                (_, Some(&p)) => ifm_read.entry(p).or_default().insert(ev.addr),
                _ => ro_read.insert(ev.addr),
            };
        }
        producer.extend(written.iter().map(|&a| (a, index)));
        let kind = match (written.is_empty(), ro_read.is_empty(), ifm_read.is_empty()) {
            (_, false, _) => LayerKindHint::Compute,
            (false, true, true) => LayerKindHint::Prologue,
            (false, true, false) => LayerKindHint::Merge,
            _ => LayerKindHint::Other,
        };
        let segment = Segment {
            first_event: w[0],
            end_event: w[1],
            start_cycle: events[w[0]].cycle,
            end_cycle: events[w[1] - 1].cycle,
        };
        if let Some(prev) = layers.last_mut() {
            prev.cycles = segment.start_cycle - prev.segment.start_cycle;
        }
        layers.push(LayerObservation {
            index,
            segment,
            kind,
            ofm_blocks: written.len() as u64,
            weight_blocks: ro_read.len() as u64,
            ifm_sources: ifm_read
                .into_iter()
                .map(|(producer, s)| IfmSource {
                    producer,
                    blocks: s.len() as u64,
                })
                .collect(),
            cycles: segment.cycles(),
        });
    }
    TraceObservations {
        layers,
        elems_per_block: trace.elems_per_block(),
    }
}

/// Disjoint read-only intervals with slack-based clustering: each interval
/// spans a run of never-written blocks read in the open segment, with gaps
/// of at most the slack. Block extents saturate at the top of the address
/// space.
#[derive(Debug, Default)]
struct IntervalSet {
    /// Map from interval start to inclusive interval end.
    intervals: BTreeMap<u64, u64>,
}

impl IntervalSet {
    /// Returns `true` when the block at `addr` joins an existing interval;
    /// `false` when a new interval had to be created.
    fn insert(&mut self, addr: u64, block: u64, slack: u64) -> bool {
        let end = addr.saturating_add(block - 1);
        match self.neighbour(addr, block, slack) {
            // Predecessor: extend it, then absorb successors it now reaches.
            Some((lo, hi)) if lo <= addr => {
                self.intervals.insert(lo, hi.max(end));
                self.merge_forward(lo, slack);
                true
            }
            // Successor: it now starts at addr.
            Some((lo, hi)) => {
                self.intervals.remove(&lo);
                self.intervals.insert(addr, hi.max(end));
                true
            }
            None => {
                self.intervals.insert(addr, end);
                false
            }
        }
    }

    /// The interval within `slack` of the block at `addr`: the last one
    /// starting at or before `addr`, else the first one after it.
    fn neighbour(&self, addr: u64, block: u64, slack: u64) -> Option<(u64, u64)> {
        let end = addr.saturating_add(block - 1);
        let pred = self.intervals.range(..=addr).next_back();
        let succ = || self.intervals.range(addr..).next();
        pred.filter(|(_, &hi)| addr <= hi.saturating_add(slack))
            .or_else(|| succ().filter(|(&lo, _)| lo <= end.saturating_add(slack)))
            .map(|(&lo, &hi)| (lo, hi))
    }

    /// Merges the interval starting at `lo` with any successors it now
    /// reaches (within slack).
    fn merge_forward(&mut self, lo: u64, slack: u64) {
        loop {
            let hi = self.intervals[&lo];
            let next = self
                .intervals
                .range((Bound::Excluded(lo), Bound::Unbounded))
                .next()
                .map(|(&l, &h)| (l, h));
            match next {
                Some((nl, nh)) if nl <= hi.saturating_add(slack) => {
                    self.intervals.remove(&nl);
                    self.intervals.insert(lo, hi.max(nh));
                }
                _ => break,
            }
        }
    }
}

#[test]
fn interval_set_clusters_with_slack() {
    let mut s = IntervalSet::default();
    assert!(!s.insert(0, 64, 64)); // new region [0,63]
    assert!(s.insert(64, 64, 64)); // adjacent -> [0,127]
    assert!(s.insert(191, 64, 64)); // within slack -> [0,254]
    assert!(!s.insert(1024, 64, 64)); // far away -> new region
    assert_eq!(s.intervals.len(), 2);
    // A block just before an existing region extends it backwards.
    assert!(s.insert(960, 64, 64));
    assert_eq!(s.intervals.len(), 2);
    // Bridging block merges the two regions (960-254 gap closed stepwise).
    for addr in [256u64, 320, 384, 448, 512, 576, 640, 704, 768, 832, 896] {
        assert!(s.insert(addr, 64, 64), "addr {addr}");
    }
    assert_eq!(s.intervals.len(), 1);
}
