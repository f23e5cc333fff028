//! Randomized property tests over trace analytics and defenses — invariants
//! that must hold for *any* trace, not just accelerator-shaped ones.
//! Driven by the in-tree seeded generator so they run without network
//! access; each test sweeps a fixed number of deterministic cases.

#![cfg(test)]

use cnnre_tensor::rng::{Rng, SeedableRng, SmallRng};

use crate::defense::{jitter_timing, pad_write_traffic, shuffle_within_window};
use crate::io::{read_binary, read_csv, write_binary, write_csv};
use crate::stats::{TraceStats, TrafficProfile};
use crate::{AccessKind, Trace, TraceBuilder};

const CASES: u64 = 128;

/// An arbitrary well-formed trace (sorted cycles, aligned addresses) from a
/// seed — the loop-based equivalent of the old proptest strategy.
fn arb_trace(seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ 0x7141);
    let block = if rng.gen_bool(0.5) { 32u64 } else { 64 };
    let n = rng.gen_range(0usize..200);
    let mut events: Vec<(u64, u64, bool)> = (0..n)
        .map(|_| {
            (
                rng.gen_range(0u64..2_000),
                rng.gen_range(0u64..256),
                rng.gen_bool(0.5),
            )
        })
        .collect();
    events.sort_by_key(|&(cycle, _, _)| cycle);
    let mut b = TraceBuilder::new(block, 4);
    for (cycle, blk, is_write) in events {
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        b.record(cycle, blk * block, kind);
    }
    b.finish()
}

/// Regions partition the touched blocks: disjoint, sorted, and their
/// touched-block counts sum to the unique-block count.
#[test]
fn stats_regions_partition_the_footprint() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let gap = seed % 8;
        let s = TraceStats::compute(&trace, gap);
        assert_eq!(s.transactions, trace.len());
        assert_eq!(s.reads + s.writes, s.transactions);
        let total: usize = s.regions.iter().map(|r| r.touched_blocks).sum();
        assert_eq!(total, s.unique_blocks);
        for w in s.regions.windows(2) {
            assert!(w[0].end <= w[1].start, "regions overlap or unsorted");
            // A gap survives between separate regions.
            assert!(w[1].start - w[0].end > gap * trace.block_bytes());
        }
        for r in &s.regions {
            assert!(r.start < r.end);
            assert!(r.touched_blocks as u64 <= r.len_bytes() / trace.block_bytes());
        }
    }
}

/// A larger clustering gap never yields more regions.
#[test]
fn larger_gap_means_fewer_regions() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let fine = TraceStats::compute(&trace, 0).regions.len();
        let coarse = TraceStats::compute(&trace, 4).regions.len();
        assert!(coarse <= fine);
    }
}

/// Traffic windows conserve the transaction counts.
#[test]
fn traffic_profile_conserves_counts() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let window = 1 + seed * 4 % 499;
        let p = TrafficProfile::compute(&trace, window);
        let reads: usize = p.windows.iter().map(|w| w.0).sum();
        let writes: usize = p.windows.iter().map(|w| w.1).sum();
        assert_eq!(reads, trace.read_count());
        assert_eq!(writes, trace.write_count());
        // Window count is bounded by the duration.
        if !trace.is_empty() {
            let max_windows = usize::try_from(trace.duration() / window).unwrap() + 1;
            assert!(p.windows.len() <= max_windows);
        }
    }
}

/// Timing jitter preserves length, order, addresses, and kinds.
#[test]
fn jitter_preserves_everything_but_time() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let mut rng = SmallRng::seed_from_u64(seed % 100);
        let j = jitter_timing(&trace, 0.3, &mut rng);
        assert_eq!(j.len(), trace.len());
        for (a, b) in trace.events().iter().zip(j.events()) {
            assert_eq!(a.addr, b.addr);
            assert_eq!(a.kind, b.kind);
        }
        let mono = j.events().windows(2).all(|w| w[0].cycle <= w[1].cycle);
        assert!(mono);
        assert!(j.duration() >= trace.duration());
    }
}

/// Window shuffling is a permutation: same multiset of (addr, kind).
#[test]
fn shuffle_is_a_permutation() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let mut rng = SmallRng::seed_from_u64(seed % 100);
        let window = 1 + (seed as usize * 7) % 199;
        let s = shuffle_within_window(&trace, window, &mut rng);
        assert_eq!(s.len(), trace.len());
        let key = |t: &Trace| {
            let mut v: Vec<(u64, bool)> = t
                .events()
                .iter()
                .map(|e| (e.addr, e.kind.is_write()))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(&s), key(&trace));
    }
}

/// CSV serialization round-trips any trace exactly.
#[test]
fn csv_roundtrip() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).expect("write");
        let back = read_csv(buf.as_slice()).expect("read");
        assert_eq!(back, trace);
    }
}

/// Binary serialization round-trips any trace exactly.
#[test]
fn binary_roundtrip() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        let mut buf = Vec::new();
        write_binary(&trace, &mut buf).expect("write");
        let back = read_binary(buf.as_slice()).expect("read");
        assert_eq!(back, trace);
    }
}

/// Write padding only adds writes: reads are untouched, the write count
/// never decreases, and its stats are self-consistent.
#[test]
fn padding_only_adds_writes() {
    for seed in 0..CASES {
        let trace = arb_trace(seed);
        // Pad over the trace's own footprint regions.
        let regions: Vec<(u64, u64)> = TraceStats::compute(&trace, 4)
            .regions
            .iter()
            .map(|r| (r.start, r.len_bytes()))
            .collect();
        let (padded, stats) = pad_write_traffic(&trace, &regions);
        assert_eq!(padded.read_count(), trace.read_count());
        assert!(padded.write_count() >= trace.write_count());
        assert_eq!(stats.writes_before, trace.write_count());
        assert_eq!(stats.writes_after, padded.write_count());
    }
}
