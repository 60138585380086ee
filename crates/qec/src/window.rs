//! Sliding-window streaming decode on top of the union-find decoder.
//!
//! A [`SlidingWindowDecoder`] consumes detection events round by round and
//! decodes *behind* the stream: when round `t` arrives it runs union-find
//! over everything still buffered and **commits** every interaction group
//! whose events all sit at rounds `≤ t − w` (`w` = the commit depth,
//! below), accumulating the committed groups' west parity and dropping
//! their events. Clusters that reach past the commit horizon are deferred
//! wholesale — kept in the buffer, in arrival order, for re-decoding once
//! more rounds have arrived. Deferring whole clusters (instead of cutting
//! them at the seam) is the window-boundary handling: a cluster is only
//! resolved when the stream has moved far enough past it that later events
//! cannot merge into it, so no artificial boundary ever splits a match.
//!
//! [`SlidingWindowDecoder::finish`] decodes the remaining buffer without a
//! horizon and returns the block's totals. The streamed outcome equals
//! [`crate::uf::decode_events`] over the full block only if every committed
//! group is one the whole-block decode also forms. Union-find refinement
//! links events up to the interaction radius `d + 1` apart, so the commit
//! depth is `w = max(lag, d + 1)`: an event arriving later cannot reach
//! back into a committed group through the radius. Groups also join through
//! a shared grown cluster, whose reach has no such bound; the seeded
//! long-stream sweeps in `uf_parity.rs` and `herqles-stream`'s parity tests
//! pin the equality. A consequence: a block of at most `d + 1` rounds
//! commits nothing before `finish`.
//!
//! All rounds are absolute block rounds: events are never rebased, the
//! decoding graph spans the whole block, and the caller owns both the graph
//! and the [`UnionFindScratch`], so warm streaming decodes are
//! allocation-free.

use crate::graph::DecodingGraph;
use crate::syndrome::DetectionEvent;
use crate::uf::{decode_events, decode_events_commit, interaction_radius, UnionFindScratch};

/// Streaming window state for one block. Reused across blocks via
/// [`SlidingWindowDecoder::reset`]; buffers keep their capacity.
#[derive(Debug, Clone)]
pub struct SlidingWindowDecoder {
    /// Configured commit lag: with round `t` fed, groups confined to rounds
    /// `≤ t − max(lag, d + 1)` commit.
    lag: usize,
    /// Uncommitted events, in arrival order.
    buf: Vec<DetectionEvent>,
    /// Swap buffer for the deferred set.
    keep: Vec<DetectionEvent>,
    /// West-boundary edges of committed clusters.
    west: usize,
    /// Clusters committed before [`SlidingWindowDecoder::finish`].
    committed_clusters: usize,
    /// Events consumed this block (committed + still buffered).
    n_events: usize,
}

impl SlidingWindowDecoder {
    /// A window decoder with commit lag `w ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `lag == 0` (committing the round currently arriving would
    /// race the events still being measured).
    pub fn new(lag: usize) -> Self {
        assert!(lag >= 1, "sliding-window lag must be at least one round");
        SlidingWindowDecoder {
            lag,
            buf: Vec::new(),
            keep: Vec::new(),
            west: 0,
            committed_clusters: 0,
            n_events: 0,
        }
    }

    /// Pre-reserves event buffers for blocks on `graph` (every space-time
    /// node could fire at most once), making warm streaming allocation-free.
    pub fn reserve_for(&mut self, graph: &DecodingGraph) {
        let cap = graph.n_nodes();
        self.buf.reserve(cap.saturating_sub(self.buf.capacity()));
        self.keep.reserve(cap.saturating_sub(self.keep.capacity()));
    }

    /// The configured commit lag (the commit depth is never below the
    /// interaction radius `d + 1`).
    pub fn lag(&self) -> usize {
        self.lag
    }

    /// West parity accumulated from committed clusters so far.
    pub fn committed_west(&self) -> usize {
        self.west
    }

    /// Clusters committed ahead of the block end so far.
    pub fn committed_clusters(&self) -> usize {
        self.committed_clusters
    }

    /// Events fed this block.
    pub fn n_events(&self) -> usize {
        self.n_events
    }

    /// Events currently buffered (not yet committed).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Clears per-block state for the next block, keeping capacity.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.keep.clear();
        self.west = 0;
        self.committed_clusters = 0;
        self.n_events = 0;
    }

    /// Feeds newly arrived events (any rounds up to the round about to be
    /// advanced past).
    pub fn push_events(&mut self, events: &[DetectionEvent]) {
        self.buf.extend_from_slice(events);
        self.n_events += events.len();
    }

    /// Round `t` has fully arrived: decode the buffer and commit clusters
    /// confined to rounds `≤ t − max(lag, d + 1)`. No-op until the stream
    /// is that many rounds deep or while nothing is buffered.
    pub fn advance(&mut self, t: usize, graph: &DecodingGraph, scratch: &mut UnionFindScratch) {
        let reach = self.lag.max(interaction_radius(graph));
        if t < reach || self.buf.is_empty() {
            return;
        }
        let horizon = t - reach;
        self.keep.clear();
        let (west, clusters) =
            decode_events_commit(graph, &self.buf, horizon, scratch, &mut self.keep);
        self.west += west;
        self.committed_clusters += clusters;
        std::mem::swap(&mut self.buf, &mut self.keep);
    }

    /// Ends the block: decodes whatever is still buffered (no horizon) and
    /// returns the block's total west count. The decoder is left ready for
    /// [`SlidingWindowDecoder::reset`].
    pub fn finish(&mut self, graph: &DecodingGraph, scratch: &mut UnionFindScratch) -> usize {
        if !self.buf.is_empty() {
            self.west += decode_events(graph, &self.buf, scratch);
            self.buf.clear();
        }
        self.west
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RotatedSurfaceCode;
    use crate::syndrome::{NoiseParams, SyndromeSim};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Streams a simulated long block through the window round by round and
    /// compares against the whole-block union-find decode.
    #[test]
    fn streamed_decode_matches_whole_block_on_long_streams() {
        for (d, rounds, lag, seed) in [(3, 40, 3, 1u64), (5, 60, 4, 2), (7, 48, 5, 3)] {
            let code = RotatedSurfaceCode::new(d);
            let noise = NoiseParams {
                data_error_prob: 0.004,
                meas_error_prob: 0.004,
            };
            let graph = DecodingGraph::new(&code, rounds);
            let mut scratch = UnionFindScratch::for_graph(&graph);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sim = SyndromeSim::new(&code, &noise);
            sim.reserve_rounds(rounds);
            let mut wd = SlidingWindowDecoder::new(lag);
            wd.reserve_for(&graph);
            let mut fed = 0usize;
            for t in 0..rounds {
                sim.step_round(&mut rng);
                wd.push_events(&sim.events()[fed..]);
                fed = sim.events().len();
                wd.advance(t, &graph, &mut scratch);
            }
            sim.finish_perfect_round();
            wd.push_events(&sim.events()[fed..]);
            let streamed = wd.finish(&graph, &mut scratch);
            let block = sim.into_block();
            let whole = decode_events(&graph, &block.events, &mut scratch);
            assert_eq!(
                streamed, whole,
                "d={d} rounds={rounds} lag={lag}: streamed west diverged"
            );
            assert_eq!(wd.n_events(), block.events.len());
            assert!(
                wd.committed_clusters() > 0,
                "d={d}: long stream never committed ahead of the block end"
            );
        }
    }

    #[test]
    fn quiet_stream_commits_nothing_and_finishes_clean() {
        let code = RotatedSurfaceCode::new(3);
        let graph = DecodingGraph::new(&code, 10);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        let mut wd = SlidingWindowDecoder::new(2);
        for t in 0..10 {
            wd.advance(t, &graph, &mut scratch);
        }
        assert_eq!(wd.finish(&graph, &mut scratch), 0);
        assert_eq!(wd.committed_clusters(), 0);
        assert_eq!(wd.n_events(), 0);
    }

    #[test]
    fn reset_reuses_buffers_across_blocks() {
        let code = RotatedSurfaceCode::new(3);
        let graph = DecodingGraph::new(&code, 8);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        let mut wd = SlidingWindowDecoder::new(2);
        wd.reserve_for(&graph);
        for _ in 0..3 {
            wd.push_events(&[
                DetectionEvent { stab: 0, round: 0 },
                DetectionEvent { stab: 0, round: 1 },
            ]);
            for t in 0..8 {
                wd.advance(t, &graph, &mut scratch);
            }
            let west = wd.finish(&graph, &mut scratch);
            assert_eq!(west, 0, "vertical pair never exits west");
            assert_eq!(wd.n_events(), 2);
            wd.reset();
        }
    }
}
