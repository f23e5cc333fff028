//! Layer-boundary detection from RAW dependencies.
//!
//! This implements step 1 of the paper's Algorithm 1: *"Identify layer
//! boundaries by observing the RAW dependency on FMAPs."*
//!
//! Two adversary-observable signals mark the start of a new layer:
//!
//! 1. **RAW dependency** (the paper's primary signal): a read to an address
//!    that was *written during the current segment*. The OFM written by a
//!    layer is first read back by the layer that consumes it, so this fires
//!    exactly at the consumer's first input fetch.
//! 2. **Fresh read-only region**: a read of a never-written block with no
//!    never-written block read in the current segment within
//!    [`SegmentConfig::slack_bytes`] of it, after the current segment has
//!    produced writes. (A read-only region is thus a run of such blocks
//!    with gaps of at most the slack.) This catches the second of two
//!    back-to-back layers that share an input (e.g. the two parallel
//!    expand convolutions of a SqueezeNet fire module, which both read the
//!    squeeze output): its weight fetches land in a fresh region even
//!    though its input was already read before.
//!
//! Both signals are pure functions of (address, read/write, time) — exactly
//! the threat model's observables. They are applied by the single
//! front-end pass in [`crate::observe`], which classifies each segment as
//! it closes.

use crate::{Cycle, Trace};

/// A contiguous run of trace events attributed to one accelerator layer
/// (or to the host's input staging, for the first segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Index of the first event of the segment.
    pub first_event: usize,
    /// One past the index of the last event.
    pub end_event: usize,
    /// Cycle stamp of the first event.
    pub start_cycle: Cycle,
    /// Cycle stamp of the last event.
    pub end_cycle: Cycle,
}

impl Segment {
    /// Number of events in the segment.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.end_event - self.first_event
    }

    /// Returns `true` for an empty segment (never produced by
    /// [`segment_trace`]).
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.first_event == self.end_event
    }

    /// Execution cycles spanned by the segment.
    #[must_use]
    pub const fn cycles(&self) -> Cycle {
        self.end_cycle.saturating_sub(self.start_cycle)
    }
}

/// Tuning knobs for segmentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Two read-only addresses within `slack_bytes` of an existing region's
    /// extent are considered part of that region. Defaults to the trace's
    /// block size; must be smaller than the DRAM allocator's inter-region
    /// guard gap. The pass looks at every block within the slack of a new
    /// read-only block, so its cost grows with `slack_bytes / block`.
    pub slack_bytes: u64,
}

impl SegmentConfig {
    /// Default configuration for a given trace (slack = one block).
    #[must_use]
    pub fn for_trace(trace: &Trace) -> Self {
        Self {
            slack_bytes: trace.block_bytes(),
        }
    }
}

/// Splits a trace into per-layer segments.
///
/// The first segment is typically the host staging the (adversary-known)
/// input feature map into DRAM — all writes, no reads.
///
/// # Example
///
/// ```
/// use cnnre_trace::{AccessKind, TraceBuilder};
/// use cnnre_trace::segment::segment_trace;
///
/// let mut b = TraceBuilder::new(64, 4);
/// // Host stages the input (writes), layer 1 reads it back and writes
/// // its output, layer 2 reads layer 1's output (a RAW dependency — the
/// // boundary signal).
/// b.record(0, 0, AccessKind::Write);
/// b.record(10, 0, AccessKind::Read);
/// b.record(11, 4096, AccessKind::Write);
/// b.record(20, 4096, AccessKind::Read); // RAW: new segment starts here
/// b.record(21, 8192, AccessKind::Write);
/// let segments = segment_trace(&b.finish());
/// assert_eq!(segments.len(), 3); // prologue + two layers
/// assert_eq!(segments[2].start_cycle, 20);
/// ```
#[must_use]
pub fn segment_trace(trace: &Trace) -> Vec<Segment> {
    segment_trace_with(trace, SegmentConfig::for_trace(trace))
}

/// [`segment_trace`] with explicit configuration: the segments of the
/// single front-end pass behind [`crate::observe::observe_with`].
///
/// With the `audit-hooks` feature enabled (the workspace turns it on for
/// test builds), every segmentation is re-checked against the structural
/// invariants in [`crate::audit`] and the call panics on any violation — a
/// sanitizer for the segmenter itself and for callers that feed it
/// corrupted traces.
#[must_use]
pub fn segment_trace_with(trace: &Trace, config: SegmentConfig) -> Vec<Segment> {
    crate::observe::scan(trace, config)
        .into_iter()
        .map(|layer| layer.segment)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, TraceBuilder};

    const BLK: u64 = 64;

    /// Builds a synthetic two-conv-layer trace:
    /// host writes input; layer 1 reads weights@W1 + input, writes OFM1;
    /// layer 2 reads weights@W2 + OFM1, writes OFM2.
    fn two_layer_trace() -> Trace {
        let mut b = TraceBuilder::new(BLK, 4);
        let input = 0u64;
        let w1 = 0x10_000u64;
        let ofm1 = 0x20_000u64;
        let w2 = 0x30_000u64;
        let ofm2 = 0x40_000u64;
        let mut t = 0u64;
        // Host stages the input (4 blocks).
        for i in 0..4 {
            b.record(t, input + i * BLK, AccessKind::Write);
            t += 1;
        }
        // Layer 1: weights first, then input, then output.
        for i in 0..3 {
            b.record(t, w1 + i * BLK, AccessKind::Read);
            t += 1;
        }
        for i in 0..4 {
            b.record(t, input + i * BLK, AccessKind::Read);
            t += 1;
        }
        for i in 0..4 {
            b.record(t, ofm1 + i * BLK, AccessKind::Write);
            t += 1;
        }
        // Layer 2.
        for i in 0..2 {
            b.record(t, w2 + i * BLK, AccessKind::Read);
            t += 1;
        }
        for i in 0..4 {
            b.record(t, ofm1 + i * BLK, AccessKind::Read);
            t += 1;
        }
        for i in 0..2 {
            b.record(t, ofm2 + i * BLK, AccessKind::Write);
            t += 1;
        }
        b.finish()
    }

    #[test]
    fn two_layers_plus_prologue() {
        let trace = two_layer_trace();
        let segs = segment_trace(&trace);
        assert_eq!(segs.len(), 3, "{segs:?}");
        // Prologue: the 4 host writes.
        assert_eq!(segs[0].len(), 4);
        // Layer 1: 3 + 4 + 4 events.
        assert_eq!(segs[1].len(), 11);
        // Layer 2: 2 + 4 + 2 events.
        assert_eq!(segs[2].len(), 8);
        // Segments tile the trace.
        assert_eq!(segs[0].end_event, segs[1].first_event);
        assert_eq!(segs[2].end_event, trace.len());
    }

    #[test]
    fn raw_within_segment_triggers_boundary() {
        // write X, read X -> two segments split exactly at the read.
        let mut b = TraceBuilder::new(BLK, 4);
        b.record(0, 0, AccessKind::Write);
        b.record(1, 0, AccessKind::Read);
        let segs = segment_trace(&b.finish());
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].len(), 1);
        assert_eq!(segs[1].len(), 1);
    }

    #[test]
    fn rereads_do_not_split_a_layer() {
        // One layer tiling over its input: repeated reads of the same
        // regions interleaved with writes must stay one segment.
        let mut b = TraceBuilder::new(BLK, 4);
        let w = 0x1000u64;
        let x = 0x8000u64;
        let y = 0x10_000u64;
        b.record(0, x, AccessKind::Write); // host stages 1-block input
        let mut t = 1;
        for tile in 0..3u64 {
            b.record(t, w, AccessKind::Read);
            t += 1;
            b.record(t, x, AccessKind::Read);
            t += 1;
            b.record(t, y + tile * BLK, AccessKind::Write);
            t += 1;
        }
        let segs = segment_trace(&b.finish());
        assert_eq!(segs.len(), 2, "{segs:?}"); // prologue + one layer
        assert_eq!(segs[1].len(), 9);
    }

    #[test]
    fn parallel_branch_layers_split_on_fresh_weight_region() {
        // Fire-module expand pattern: both branches read the same input
        // region; the second branch is only distinguishable by its fresh
        // weight region.
        let mut b = TraceBuilder::new(BLK, 4);
        let sq_ofm = 0x1000u64; // written by the squeeze layer
        let wa = 0x8000u64;
        let wb = 0x10_000u64;
        let ofm_a = 0x18_000u64;
        let ofm_b = 0x20_000u64;
        let mut t = 0;
        b.record(t, sq_ofm, AccessKind::Write); // stand-in for squeeze output
        t += 1;
        // Branch A: weights, input, output.
        for &(addr, kind) in &[
            (wa, AccessKind::Read),
            (sq_ofm, AccessKind::Read),
            (ofm_a, AccessKind::Write),
        ] {
            b.record(t, addr, kind);
            t += 1;
        }
        // Branch B: fresh weights although input was read before.
        for &(addr, kind) in &[
            (wb, AccessKind::Read),
            (sq_ofm, AccessKind::Read),
            (ofm_b, AccessKind::Write),
        ] {
            b.record(t, addr, kind);
            t += 1;
        }
        let segs = segment_trace(&b.finish());
        assert_eq!(segs.len(), 3, "{segs:?}");
        assert_eq!(segs[1].len(), 3);
        assert_eq!(segs[2].len(), 3);
    }

    #[test]
    fn empty_trace_yields_no_segments() {
        let t = TraceBuilder::new(BLK, 4).finish();
        assert!(segment_trace(&t).is_empty());
    }
}
