//! Per-layer observations extracted from a memory trace.
//!
//! This is step 2 of the paper's Algorithm 1: *"Record the execution time of
//! each layer and calculate `SIZE_IFM`, `SIZE_OFM`, and `SIZE_FLTR` based on
//! the memory access pattern"* — plus the inter-layer connection structure
//! (which earlier layer's output each layer consumes), which reveals fire
//! modules and bypass paths.
//!
//! Step 1 (the layer boundaries of [`crate::segment`]) and step 2 run as
//! one pass over the events. Every address maps to a
//! dense table index: `(addr − lo) / block` when the trace is block-aligned
//! (power-of-two block) over a compact span, else the address's rank among
//! the trace's distinct addresses. Two `u32`s per index carry all the
//! state: the segment that last wrote the address (the segmenter's "ever
//! written", the RAW signal and the OFM count when it is the open segment,
//! the producer behind an IFM read otherwise) and the segment that last
//! read it, marking whether the block was never written then (the filter
//! and IFM-per-producer counts, and the read-only blocks the fresh-region
//! signal looks for). Both hold segment indices, so opening a segment
//! needs no clearing.
//!
//! A write becomes its address's producer at once, yet no read is ever
//! attributed to its own segment: reading an address written earlier in
//! the open segment is the RAW signal, so that read always opens a new
//! segment first.

use cnnre_obs::log_debug;
use cnnre_obs::stream::BoundarySignal;

use crate::segment::{Segment, SegmentConfig};
use crate::{Addr, Cycle, MemoryEvent, Trace};

/// Why a segment was classified the way it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKindHint {
    /// Writes only — the host staging the input feature map.
    Prologue,
    /// Reads weights (a read-only region) and computes — a CONV or FC layer
    /// (possibly with merged activation/pooling).
    Compute,
    /// Reads two or more previously written feature maps and writes a new
    /// one without touching weights — an element-wise merge (bypass join).
    Merge,
    /// Anything else (e.g. a read-only pass) — not produced by the
    /// simulated accelerator but kept for robustness.
    Other,
}

/// One feature-map input of a layer: which earlier segment produced it and
/// how many distinct blocks of it this layer read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfmSource {
    /// Index (into [`TraceObservations::layers`]) of the producing segment.
    pub producer: usize,
    /// Distinct blocks of the producer's output read by this layer.
    pub blocks: u64,
}

/// Everything the adversary can say about one layer from the trace alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerObservation {
    /// Segment index (0 is usually the prologue).
    pub index: usize,
    /// The underlying event range.
    pub segment: Segment,
    /// Classification hint.
    pub kind: LayerKindHint,
    /// Distinct blocks written (the OFM footprint).
    pub ofm_blocks: u64,
    /// Distinct read-only blocks read (the filter/weight footprint).
    pub weight_blocks: u64,
    /// Feature-map inputs, by producing segment.
    pub ifm_sources: Vec<IfmSource>,
    /// Execution cycles (last event cycle − first event cycle).
    pub cycles: Cycle,
}

impl LayerObservation {
    /// Total distinct IFM blocks read across all sources.
    #[must_use]
    pub fn ifm_blocks_total(&self) -> u64 {
        self.ifm_sources.iter().map(|s| s.blocks).sum()
    }
}

/// The full set of per-layer observations for a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceObservations {
    /// Per-segment observations, in execution order.
    pub layers: Vec<LayerObservation>,
    /// Data elements per transaction block (known memory-system parameter).
    pub elems_per_block: u64,
}

impl TraceObservations {
    /// The observations for compute layers only (prologue and merge
    /// segments filtered out), in order.
    #[must_use]
    pub fn compute_layers(&self) -> Vec<&LayerObservation> {
        self.layers
            .iter()
            .filter(|l| l.kind == LayerKindHint::Compute)
            .collect()
    }

    /// Inclusive lower and exclusive upper bound on an element count whose
    /// block footprint is `blocks`: the true size is in
    /// `((blocks−1)·epb, blocks·epb]`.
    #[must_use]
    pub fn element_bounds(&self, blocks: u64) -> (u64, u64) {
        if blocks == 0 {
            return (0, 0);
        }
        (
            (blocks - 1) * self.elems_per_block,
            blocks * self.elems_per_block,
        )
    }

    /// True when `candidate_elems` is consistent with a measured footprint
    /// of `blocks` blocks.
    #[must_use]
    pub fn size_matches(&self, blocks: u64, candidate_elems: u64) -> bool {
        let (lo, hi) = self.element_bounds(blocks);
        candidate_elems > lo && candidate_elems <= hi
    }
}

/// Segments a trace and extracts per-layer observations.
///
/// # Example
///
/// ```
/// use cnnre_trace::{AccessKind, TraceBuilder};
/// use cnnre_trace::observe::{observe, LayerKindHint};
///
/// let mut b = TraceBuilder::new(64, 4);
/// b.record(0, 0, AccessKind::Write);        // host stages the input
/// b.record(10, 4096, AccessKind::Read);     // layer 1: weight fetch
/// b.record(11, 0, AccessKind::Read);        // layer 1: IFM fetch
/// b.record(12, 8192, AccessKind::Write);    // layer 1: OFM write
/// let obs = observe(&b.finish());
/// assert_eq!(obs.layers.len(), 2);
/// assert_eq!(obs.layers[0].kind, LayerKindHint::Prologue);
/// assert_eq!(obs.layers[1].kind, LayerKindHint::Compute);
/// assert_eq!(obs.layers[1].ofm_blocks, 1);
/// assert_eq!(obs.layers[1].weight_blocks, 1);
/// ```
#[must_use]
pub fn observe(trace: &Trace) -> TraceObservations {
    observe_with(trace, SegmentConfig::for_trace(trace))
}

/// [`observe`] with explicit segmentation configuration.
#[must_use]
pub fn observe_with(trace: &Trace, config: SegmentConfig) -> TraceObservations {
    let layers = scan(trace, config);
    if cnnre_obs::stream::enabled() {
        // Classification is post-hoc (it needs the whole trace), so every
        // SegmentClassified event is stamped at the trace's end cycle —
        // after all LayerBoundary events, keeping the stream monotone.
        use cnnre_obs::stream::{EventPayload, SegmentKind};
        for obs in &layers {
            let kind = match obs.kind {
                LayerKindHint::Prologue => SegmentKind::Prologue,
                LayerKindHint::Compute => SegmentKind::Compute,
                LayerKindHint::Merge => SegmentKind::Merge,
                LayerKindHint::Other => SegmentKind::Other,
            };
            cnnre_obs::stream::emit_at(
                trace.duration(),
                EventPayload::SegmentClassified {
                    index: obs.index as u64,
                    kind,
                    start_cycle: obs.segment.start_cycle,
                    end_cycle: obs.segment.end_cycle,
                    ifm_blocks: obs.ifm_blocks_total(),
                    ofm_blocks: obs.ofm_blocks,
                    weight_blocks: obs.weight_blocks,
                },
            );
        }
    }
    TraceObservations {
        layers,
        elems_per_block: trace.elems_per_block(),
    }
}

/// The front-end pass: segments the trace and classifies every segment,
/// under the `trace.segment` span.
pub(crate) fn scan(trace: &Trace, config: SegmentConfig) -> Vec<LayerObservation> {
    let mut span = cnnre_obs::span("trace.segment");
    span.add_cycles(trace.duration());
    let layers = if let Some((lo, shift, ids)) = compact_span(trace) {
        let id = |addr: Addr| ((addr - lo) >> shift) as usize;
        scan_with(trace, config, ids, id, |id| lo + ((id as u64) << shift))
    } else {
        let mut addrs: Vec<Addr> = trace.events().iter().map(|ev| ev.addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        let id = |addr: Addr| addrs.partition_point(|&a| a < addr);
        scan_with(trace, config, addrs.len(), id, |id| addrs[id])
    };
    #[cfg(feature = "audit-hooks")]
    crate::audit::assert_well_formed(trace, &layers.iter().map(|l| l.segment).collect::<Vec<_>>());
    layers
}

/// `(lo, log2 block, table length)` when every address is aligned to a
/// power-of-two block and the span holds at most `4·events + 1024` blocks.
fn compact_span(trace: &Trace) -> Option<(Addr, u32, usize)> {
    let block = trace.block_bytes();
    let events = trace.events();
    let (mut lo, mut hi, mut bits) = (Addr::MAX, 0, 0);
    for ev in events {
        lo = lo.min(ev.addr);
        hi = hi.max(ev.addr);
        bits |= ev.addr;
    }
    let shift = block.trailing_zeros();
    let blocks = hi.saturating_sub(lo) >> shift;
    let budget = (events.len() as u64).saturating_mul(4).saturating_add(1024);
    (block.is_power_of_two() && bits & (block - 1) == 0 && blocks <= budget)
        .then(|| (lo, shift, blocks as usize + 1))
}

/// No segment has touched the address yet.
const NONE: u32 = u32::MAX;

/// Per-address state of the pass (see the module docs).
#[derive(Clone, Copy)]
struct Slot {
    /// Segment that last wrote the address, or [`NONE`].
    producer: u32,
    /// `2·s + 1` when segment `s` last read the address and it was never
    /// written then (a read-only block), `2·s` for other reads, [`NONE`]
    /// before any read.
    read: u32,
}

impl Slot {
    const fn read_in(self, seg: u32) -> bool {
        self.read >> 1 == seg
    }

    const fn read_only_in(self, seg: u32) -> bool {
        self.read == 2 * seg + 1
    }
}

/// Tallies of the open segment.
#[derive(Default)]
struct Open {
    first_event: usize,
    has_write: bool,
    ofm_blocks: u64,
    weight_blocks: u64,
    /// Distinct blocks read per producing segment, indexed by segment.
    ifm_blocks: Vec<u64>,
    /// Producers with a non-zero `ifm_blocks` entry.
    producers: Vec<usize>,
}

impl Open {
    /// Closes the open segment, ending before `end_event`, and resets the
    /// tallies for the next one.
    fn close(&mut self, events: &[MemoryEvent], end_event: usize) -> LayerObservation {
        let segment = Segment {
            first_event: self.first_event,
            end_event,
            start_cycle: events[self.first_event].cycle,
            end_cycle: events[end_event - 1].cycle,
        };
        self.producers.sort_unstable();
        let ifm_sources: Vec<IfmSource> = self
            .producers
            .drain(..)
            .map(|producer| IfmSource {
                producer,
                blocks: std::mem::take(&mut self.ifm_blocks[producer]),
            })
            .collect();
        let kind = match (
            self.weight_blocks > 0,
            ifm_sources.is_empty(),
            self.ofm_blocks > 0,
        ) {
            (true, _, _) => LayerKindHint::Compute,
            (false, false, true) => LayerKindHint::Merge,
            (false, true, true) => LayerKindHint::Prologue,
            _ => LayerKindHint::Other,
        };
        // One entry per closed segment: the index of this one, which is a
        // possible producer from here on.
        let index = self.ifm_blocks.len();
        self.ifm_blocks.push(0);
        let layer = LayerObservation {
            index,
            segment,
            kind,
            ofm_blocks: std::mem::take(&mut self.ofm_blocks),
            weight_blocks: std::mem::take(&mut self.weight_blocks),
            ifm_sources,
            cycles: segment.cycles(),
        };
        self.first_event = end_event;
        self.has_write = false;
        layer
    }
}

/// [`scan`] over `ids` table slots: `id` maps an address to its slot and
/// `addr_of` a slot back to its address, both increasing.
fn scan_with(
    trace: &Trace,
    config: SegmentConfig,
    ids: usize,
    id: impl Fn(Addr) -> usize,
    addr_of: impl Fn(usize) -> Addr,
) -> Vec<LayerObservation> {
    let events = trace.events();
    let (block, slack) = (trace.block_bytes(), config.slack_bytes);
    let untouched = Slot {
        producer: NONE,
        read: NONE,
    };
    let mut slots = vec![untouched; ids];
    let mut layers = Vec::new();
    let mut open = Open::default();
    let mut raw = 0u64;
    // The open segment's index. (Traces of 2^31 − 1 or more events are
    // out of scope: they would not fit in memory.)
    let mut seg = 0u32;
    // Is a block read as read-only in this segment within `slack` bytes of
    // the block in slot `k`? Walks outward over the slots in that window.
    let near_read_only = |slots: &[Slot], k: usize, seg: u32| {
        let addr = addr_of(k);
        let lo = addr.saturating_sub(slack.saturating_add(block - 1));
        let hi = addr.saturating_add(block - 1).saturating_add(slack);
        let below = (0..k).rev().take_while(|&j| addr_of(j) >= lo);
        let above = (k + 1..slots.len()).take_while(|&j| addr_of(j) <= hi);
        below.chain(above).any(|j| slots[j].read_only_in(seg))
    };
    for (i, ev) in events.iter().enumerate() {
        let k = id(ev.addr);
        let slot = slots[k];
        if ev.kind.is_read() {
            // Fresh region: the first read of a never-written block with no
            // read-only block of this segment within `slack` bytes. (Later
            // reads of the block would find the block itself.)
            let signal = if slot.producer == seg {
                Some(BoundarySignal::Raw)
            } else if slot.producer == NONE
                && !slot.read_in(seg)
                && open.has_write
                && !near_read_only(&slots, k, seg)
            {
                Some(BoundarySignal::FreshRegion)
            } else {
                None
            };
            // Both signals need a write earlier in the open segment, so
            // neither fires on its first event: `boundaries_rejected`
            // stays 0.
            if let Some(signal) = signal {
                let is_raw = signal == BoundarySignal::Raw;
                raw += u64::from(is_raw);
                log_debug!(
                    "trace.segment",
                    "boundary at event {} cycle {} ({})",
                    i,
                    ev.cycle,
                    if is_raw { "RAW" } else { "fresh region" }
                );
                if cnnre_obs::stream::enabled() {
                    cnnre_obs::stream::emit_at(
                        ev.cycle,
                        cnnre_obs::stream::EventPayload::LayerBoundary {
                            index: u64::from(seg),
                            signal,
                        },
                    );
                }
                layers.push(open.close(events, i));
                seg += 1;
            }
            if !slot.read_in(seg) {
                let read_only = slot.producer == NONE;
                slots[k].read = 2 * seg + u32::from(read_only);
                if read_only {
                    open.weight_blocks += 1;
                } else {
                    let producer = slot.producer as usize;
                    if open.ifm_blocks[producer] == 0 {
                        open.producers.push(producer);
                    }
                    open.ifm_blocks[producer] += 1;
                }
            }
        } else {
            if slot.producer != seg {
                slots[k].producer = seg;
                open.ofm_blocks += 1;
            }
            open.has_write = true;
        }
    }
    if events.len() > open.first_event {
        layers.push(open.close(events, events.len()));
    }
    // A layer's execution time is boundary-to-boundary: from its first
    // transaction to the next layer's first transaction. (The span of its
    // own events alone misses the trailing compute that overlaps no DMA.)
    for i in 0..layers.len().saturating_sub(1) {
        layers[i].cycles = layers[i + 1]
            .segment
            .start_cycle
            .saturating_sub(layers[i].segment.start_cycle);
    }
    let reg = cnnre_obs::global();
    reg.counter("trace.segment.events").add(events.len() as u64);
    reg.counter("trace.segment.raw_boundaries_accepted")
        .add(raw);
    reg.counter("trace.segment.fresh_region_boundaries_accepted")
        .add(u64::from(seg) - raw);
    reg.counter("trace.segment.boundaries_rejected").add(0);
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, TraceBuilder};

    const BLK: u64 = 64;

    fn record_n(b: &mut TraceBuilder, t: &mut u64, base: u64, n: u64, kind: AccessKind) {
        for i in 0..n {
            b.record(*t, base + i * BLK, kind);
            *t += 1;
        }
    }

    /// input(4 blocks) -> L1 (w:3, ofm:6) -> L2 (w:2, ofm:2), L2 also
    /// re-reads part of the input? No: plain chain.
    fn chain_trace() -> Trace {
        let mut b = TraceBuilder::new(BLK, 4);
        let mut t = 0;
        record_n(&mut b, &mut t, 0x0000, 4, AccessKind::Write); // host input
        record_n(&mut b, &mut t, 0x10_000, 3, AccessKind::Read); // w1
        record_n(&mut b, &mut t, 0x0000, 4, AccessKind::Read); // ifm1
        record_n(&mut b, &mut t, 0x20_000, 6, AccessKind::Write); // ofm1
        record_n(&mut b, &mut t, 0x30_000, 2, AccessKind::Read); // w2
        record_n(&mut b, &mut t, 0x20_000, 6, AccessKind::Read); // ifm2
        record_n(&mut b, &mut t, 0x40_000, 2, AccessKind::Write); // ofm2
        b.finish()
    }

    #[test]
    fn chain_observations() {
        let obs = observe(&chain_trace());
        assert_eq!(obs.layers.len(), 3);
        assert_eq!(obs.layers[0].kind, LayerKindHint::Prologue);
        assert_eq!(obs.layers[0].ofm_blocks, 4);

        let l1 = &obs.layers[1];
        assert_eq!(l1.kind, LayerKindHint::Compute);
        assert_eq!(l1.weight_blocks, 3);
        assert_eq!(l1.ofm_blocks, 6);
        assert_eq!(
            l1.ifm_sources,
            vec![IfmSource {
                producer: 0,
                blocks: 4
            }]
        );

        let l2 = &obs.layers[2];
        assert_eq!(l2.weight_blocks, 2);
        assert_eq!(
            l2.ifm_sources,
            vec![IfmSource {
                producer: 1,
                blocks: 6
            }]
        );
        assert_eq!(obs.compute_layers().len(), 2);
    }

    #[test]
    fn merge_layer_is_detected_with_bypass_sources() {
        // L1 writes A; L2 reads A writes B; merge reads A (bypass) + B,
        // writes C with no weights.
        let mut b = TraceBuilder::new(BLK, 4);
        let mut t = 0;
        record_n(&mut b, &mut t, 0x0000, 2, AccessKind::Write); // input
        record_n(&mut b, &mut t, 0x10_000, 1, AccessKind::Read); // w1
        record_n(&mut b, &mut t, 0x0000, 2, AccessKind::Read);
        record_n(&mut b, &mut t, 0x20_000, 3, AccessKind::Write); // A
        record_n(&mut b, &mut t, 0x30_000, 1, AccessKind::Read); // w2
        record_n(&mut b, &mut t, 0x20_000, 3, AccessKind::Read);
        record_n(&mut b, &mut t, 0x40_000, 3, AccessKind::Write); // B
                                                                  // Merge: read B (RAW boundary), read A (bypass), write C.
        record_n(&mut b, &mut t, 0x40_000, 3, AccessKind::Read);
        record_n(&mut b, &mut t, 0x20_000, 3, AccessKind::Read);
        record_n(&mut b, &mut t, 0x50_000, 3, AccessKind::Write); // C
        let obs = observe(&b.finish());
        assert_eq!(obs.layers.len(), 4, "{:?}", obs.layers);
        let merge = &obs.layers[3];
        assert_eq!(merge.kind, LayerKindHint::Merge);
        assert_eq!(merge.weight_blocks, 0);
        assert_eq!(
            merge.ifm_sources,
            vec![
                IfmSource {
                    producer: 1,
                    blocks: 3
                },
                IfmSource {
                    producer: 2,
                    blocks: 3
                }
            ]
        );
    }

    #[test]
    fn element_bounds_and_matching() {
        let obs = observe(&chain_trace());
        assert_eq!(obs.elems_per_block, 16);
        assert_eq!(obs.element_bounds(3), (32, 48));
        assert!(obs.size_matches(3, 33));
        assert!(obs.size_matches(3, 48));
        assert!(!obs.size_matches(3, 32));
        assert!(!obs.size_matches(3, 49));
        assert_eq!(obs.element_bounds(0), (0, 0));
    }

    #[test]
    fn sparse_trace_takes_rank_ids_sized_by_its_addresses() {
        // The span is 2^58 blocks; the tables must hold two slots instead.
        let mut b = TraceBuilder::new(BLK, 4);
        b.record(0, 0, AccessKind::Write);
        b.record(1, u64::MAX - (BLK - 1), AccessKind::Read);
        let trace = b.finish();
        assert_eq!(compact_span(&trace), None);
        let obs = observe(&trace);
        assert_eq!(obs.layers.len(), 2);
        assert_eq!(obs.layers[1].weight_blocks, 1);
        // A compact span takes dense ids, one slot per block of the span.
        let mut b = TraceBuilder::new(BLK, 4);
        b.record(0, 0x1000, AccessKind::Write);
        b.record(1, 0x1000 + 1024 * BLK, AccessKind::Read);
        assert_eq!(compact_span(&b.finish()), Some((0x1000, 6, 1025)));
    }

    #[test]
    fn tiled_rereads_count_distinct_blocks_once() {
        let mut b = TraceBuilder::new(BLK, 4);
        let mut t = 0;
        record_n(&mut b, &mut t, 0x0000, 2, AccessKind::Write);
        // Layer reads its weights and input twice (two tiles).
        for _ in 0..2 {
            record_n(&mut b, &mut t, 0x10_000, 3, AccessKind::Read);
            record_n(&mut b, &mut t, 0x0000, 2, AccessKind::Read);
        }
        record_n(&mut b, &mut t, 0x20_000, 1, AccessKind::Write);
        let obs = observe(&b.finish());
        assert_eq!(obs.layers.len(), 2);
        assert_eq!(obs.layers[1].weight_blocks, 3);
        assert_eq!(obs.layers[1].ifm_blocks_total(), 2);
    }
}
