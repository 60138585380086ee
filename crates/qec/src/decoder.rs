//! Block decoders: exact matching, the union-find decoder, and the
//! subset-DP reference oracle.
//!
//! Small detection-event sets are decoded with *exact* minimum-weight
//! matching over the events and the two virtual boundaries, solved by the
//! blossom matcher of [`crate::matching`]; everything larger goes to the
//! union-find decoder ([`crate::uf`]) on the precomputed decoding graph
//! ([`crate::graph`]), which has no defect-count ceiling, near-linear cost
//! in the number of space-time nodes, and the same matcher re-solving each
//! small interaction group. A separate dynamic program over event subsets
//! ([`decode_block_exact`], up to [`EXACT_MATCHING_LIMIT`] events) is the
//! reference oracle the tests and the benchmark compare against; it shares
//! no code with the production paths.
//!
//! # Logical-class bookkeeping
//!
//! With the layout of [`crate::layout`], correction paths between two
//! stabilizer nodes never traverse west-column data qubits (those qubits
//! touch exactly one Z-stabilizer, so they only appear on stabilizer-to-
//! boundary edges). Therefore only west-boundary matches flip the `X`
//! logical class, and the decoders just count them.
//!
//! # Canonical tie-breaking
//!
//! Minimum-weight matchings are frequently non-unique, and co-optimal
//! solutions can disagree on west-match parity. Both exact matchers
//! therefore minimize the pair `(cost, west matches)` lexicographically —
//! both packed into one `u64` so a single numeric `min` does the job —
//! making `west_matches` (and hence `logical_error`) a canonical function
//! of the event *set*, independent of enumeration order. The union-find decoder is
//! deterministic and order-independent by construction (fixed node-order
//! growth sweeps).

use crate::graph::DecodingGraph;
use crate::layout::RotatedSurfaceCode;
use crate::syndrome::{DetectionEvent, SyndromeBlock};
use crate::uf::{self, UnionFindScratch};

/// Outcome of decoding one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// Number of detection events decoded.
    pub n_events: usize,
    /// Number of west-boundary matches (exact path) or west-boundary edges
    /// in the peeled correction (union-find path).
    pub west_matches: usize,
    /// Whether the block ends in a logical `X` error (correction applied to
    /// the residual error state flips the logical class).
    pub logical_error: bool,
    /// Whether decoding this block overran its real-time budget. The block
    /// decoders themselves never set this: `herqles-stream`'s `CycleEngine`
    /// stamps it when any decode step of the block — a sliding-window
    /// advance or finish, the whole-block decode or an offloaded decode —
    /// takes longer than the budget set by
    /// `CycleEngine::set_decode_budget_ns`.
    pub degraded: bool,
}

impl Default for DecodeOutcome {
    /// The outcome of an empty block: nothing decoded, no error.
    fn default() -> Self {
        DecodeOutcome {
            n_events: 0,
            west_matches: 0,
            logical_error: false,
            degraded: false,
        }
    }
}

/// Space-time distance between two detection events.
fn event_distance(code: &RotatedSurfaceCode, a: &DetectionEvent, b: &DetectionEvent) -> usize {
    code.stab_distance(a.stab, b.stab) + a.round.abs_diff(b.round)
}

/// Hard ceiling of the subset-DP oracle [`decode_block_exact`] (`2^n`
/// subsets): it refuses larger sets.
pub const EXACT_MATCHING_LIMIT: usize = 14;

/// Production dispatch threshold: blocks with at most this many events are
/// matched exactly in one blossom solve over the whole block; larger blocks
/// go to union-find, whose cluster growth splits them into interaction
/// groups that are matched exactly one by one (up to
/// [`crate::uf::LOCAL_EXACT_LIMIT`] events each).
pub const EXACT_DISPATCH_LIMIT: usize = 10;

/// Reusable working memory for [`decode_block_with`].
///
/// Owns the union-find scratch (which holds the blossom matcher's
/// fixed-size tables), the decoding graph (rebuilt only when the code
/// distance or block length changes — never on the warm path), and the
/// subset-DP oracle's memo, which only [`decode_block_exact`] grows. A
/// scratch built with [`DecodeScratch::prewarmed`] decodes any block of its
/// `(code, rounds)` envelope without touching the heap;
/// `crates/stream/tests/alloc.rs` pins warm whole cycles at exactly zero
/// allocations on top of this.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    memo: Vec<u64>,
    graph: Option<DecodingGraph>,
    uf: UnionFindScratch,
}

impl DecodeScratch {
    /// An empty scratch; buffers and the graph build on first use.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// A scratch pre-sized for blocks of up to `rounds` noisy rounds on
    /// `code`: the decoding graph is built eagerly and the union-find arrays
    /// cover every space-time node. Sized from the worst case, not a guess —
    /// a block within the envelope never grows it, no matter how dense its
    /// syndrome gets under fault injection.
    pub fn prewarmed(code: &RotatedSurfaceCode, rounds: usize) -> Self {
        let graph = DecodingGraph::new(code, rounds);
        let uf = UnionFindScratch::for_graph(&graph);
        DecodeScratch {
            memo: Vec::new(),
            graph: Some(graph),
            uf,
        }
    }

    /// The decoding graph for `(code, rounds)`, rebuilding only on a
    /// distance or block-length change (the cold path).
    fn ensure_graph(&mut self, code: &RotatedSurfaceCode, rounds: usize) -> &DecodingGraph {
        let rebuild = match &self.graph {
            Some(g) => g.distance() != code.distance() || g.layers() < rounds + 1,
            None => true,
        };
        if rebuild {
            let graph = DecodingGraph::new(code, rounds);
            self.uf = UnionFindScratch::for_graph(&graph);
            self.graph = Some(graph);
        }
        self.graph.as_ref().expect("graph just ensured")
    }

    /// Borrows the graph and union-find scratch together, for callers that
    /// drive the union-find decoder directly (the sliding-window streaming
    /// path). Rebuilds the graph only on an envelope change.
    pub fn window_parts(
        &mut self,
        code: &RotatedSurfaceCode,
        rounds: usize,
    ) -> (&DecodingGraph, &mut UnionFindScratch) {
        self.ensure_graph(code, rounds);
        (
            self.graph.as_ref().expect("graph just ensured"),
            &mut self.uf,
        )
    }
}

/// Decodes a block and determines the logical class.
///
/// Detection-event sets of at most [`EXACT_DISPATCH_LIMIT`] events are
/// decoded with exact minimum-weight matching (blossom matcher, canonical
/// tie-break); larger sets — with no upper ceiling — go to the union-find
/// decoder. At Fig. 13's operating points most blocks fall in the exact
/// regime; under drift or at large distances the union-find path keeps
/// decode latency near-linear in block size.
///
/// Allocates its working memory per call; hot loops that decode many blocks
/// hold a [`DecodeScratch`] and call [`decode_block_with`], which is
/// identical in outcome and allocation-free once warm.
pub fn decode_block(code: &RotatedSurfaceCode, block: &SyndromeBlock) -> DecodeOutcome {
    decode_block_with(code, block, &mut DecodeScratch::new())
}

/// [`decode_block`] against caller-owned working memory: same dispatch,
/// same outcome for every block, zero heap allocation once `scratch` covers
/// the block's `(code, rounds)` envelope (see [`DecodeScratch::prewarmed`]).
pub fn decode_block_with(
    code: &RotatedSurfaceCode,
    block: &SyndromeBlock,
    scratch: &mut DecodeScratch,
) -> DecodeOutcome {
    if block.events.len() <= EXACT_DISPATCH_LIMIT {
        let events = block.events.iter().copied();
        let west_matches = scratch.uf.matcher.canonical_west(code, events);
        return outcome(code, block, west_matches);
    }
    decode_block_uf(code, block, scratch)
}

/// The outcome of decoding `block` with `west_matches` west-boundary
/// matches in the correction.
fn outcome(code: &RotatedSurfaceCode, block: &SyndromeBlock, west_matches: usize) -> DecodeOutcome {
    DecodeOutcome {
        n_events: block.events.len(),
        west_matches,
        logical_error: block.west_column_error_parity(code) != (west_matches % 2 == 1),
        degraded: false,
    }
}

/// Exact subset-DP decode — the reference oracle. Usable up to
/// [`EXACT_MATCHING_LIMIT`] events.
///
/// # Panics
///
/// Panics if the block has more than [`EXACT_MATCHING_LIMIT`] events.
pub fn decode_block_exact(
    code: &RotatedSurfaceCode,
    block: &SyndromeBlock,
    scratch: &mut DecodeScratch,
) -> DecodeOutcome {
    let n = block.events.len();
    assert!(
        n <= EXACT_MATCHING_LIMIT,
        "exact matcher ceiling is {EXACT_MATCHING_LIMIT} events, block has {n}"
    );
    let west_matches = exact_min_weight_west_matches(code, &block.events, &mut scratch.memo);
    outcome(code, block, west_matches)
}

/// Union-find decode of a whole block, regardless of size.
pub fn decode_block_uf(
    code: &RotatedSurfaceCode,
    block: &SyndromeBlock,
    scratch: &mut DecodeScratch,
) -> DecodeOutcome {
    let graph = {
        scratch.ensure_graph(code, block.rounds);
        scratch.graph.as_ref().expect("graph just ensured")
    };
    let west_matches = uf::decode_events(graph, &block.events, &mut scratch.uf);
    outcome(code, block, west_matches)
}

/// Exact minimum-weight matching via subset DP with a canonical tie-break:
/// every memo entry packs `(cost << WEST_BITS) | west_count`, so the numeric
/// minimum is the lexicographic minimum over `(cost, west_count)` — among
/// co-optimal matchings the one with the fewest west matches wins,
/// independent of event enumeration order. Returns that canonical west
/// count. `memo` is caller-owned scratch, cleared and resized to the `2^n`
/// subsets here.
fn exact_min_weight_west_matches(
    code: &RotatedSurfaceCode,
    events: &[DetectionEvent],
    memo: &mut Vec<u64>,
) -> usize {
    let n = events.len();
    if n == 0 {
        return 0;
    }
    // West counts are at most EXACT_MATCHING_LIMIT (14), so 8 bits of
    // packing leave costs 2^56 of headroom — unreachable for any block.
    const WEST_BITS: u32 = 8;
    const WEST_MASK: u64 = (1 << WEST_BITS) - 1;
    let full = (1usize << n) - 1;
    memo.clear();
    memo.resize(1 << n, u64::MAX);
    memo[0] = 0;

    // Increasing-mask order is valid: every transition clears the lowest set
    // bit, so dependencies have smaller values. Packed sums add component-
    // wise because the west field cannot carry past its 8 bits.
    for mask in 1..=full {
        let i = mask.trailing_zeros() as usize;
        let rest = mask & !(1 << i);
        let west = memo[rest] + ((code.dist_west(events[i].stab) as u64) << WEST_BITS) + 1;
        let east = memo[rest] + ((code.dist_east(events[i].stab) as u64) << WEST_BITS);
        let mut best = west.min(east);
        let mut bits = rest;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let pair = memo[rest & !(1 << j)]
                + ((event_distance(code, &events[i], &events[j]) as u64) << WEST_BITS);
            best = best.min(pair);
        }
        memo[mask] = best;
    }
    (memo[full] & WEST_MASK) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syndrome::NoiseParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn code() -> RotatedSurfaceCode {
        RotatedSurfaceCode::new(5)
    }

    /// Builds a block with a hand-placed error set and perfect measurements.
    fn block_with_errors(code: &RotatedSurfaceCode, error_qubits: &[usize]) -> SyndromeBlock {
        let mut errors = vec![false; code.n_data()];
        for &q in error_qubits {
            errors[q] = true;
        }
        let mut events = Vec::new();
        for (s, stab) in code.stabilizers().iter().enumerate() {
            let mut parity = false;
            for &q in &stab.support {
                parity ^= errors[q];
            }
            if parity {
                events.push(DetectionEvent { stab: s, round: 0 });
            }
        }
        SyndromeBlock {
            events,
            final_errors: errors,
            rounds: 1,
        }
    }

    #[test]
    fn empty_block_decodes_cleanly() {
        let c = code();
        let block = block_with_errors(&c, &[]);
        let out = decode_block(&c, &block);
        assert!(!out.logical_error);
        assert_eq!(out.n_events, 0);
        assert_eq!(out, DecodeOutcome::default());
    }

    #[test]
    fn every_single_qubit_error_is_corrected() {
        let c = code();
        for q in 0..c.n_data() {
            let block = block_with_errors(&c, &[q]);
            let out = decode_block(&c, &block);
            assert!(!out.logical_error, "single error on qubit {q} mis-decoded");
        }
    }

    #[test]
    fn every_adjacent_pair_error_is_corrected() {
        // Any two-qubit error is weight 2 < d/2, must be correctable at d=5.
        let c = code();
        for q in 0..c.n_data() {
            let row = q / 5;
            let col = q % 5;
            if col + 1 < 5 {
                let block = block_with_errors(&c, &[q, row * 5 + col + 1]);
                let out = decode_block(&c, &block);
                assert!(
                    !out.logical_error,
                    "pair error at ({row},{col}) mis-decoded"
                );
            }
        }
    }

    #[test]
    fn full_logical_row_is_a_logical_error() {
        // A complete row of X errors has trivial syndrome; the decoder does
        // nothing and the class flips: this must be reported as a logical
        // error.
        let c = code();
        let row: Vec<usize> = (0..5).collect();
        let block = block_with_errors(&c, &row);
        assert!(block.events.is_empty(), "logical row must be undetectable");
        let out = decode_block(&c, &block);
        assert!(out.logical_error);
    }

    #[test]
    fn exact_tie_break_is_canonical_over_event_orderings() {
        // Co-optimal matchings must not let the enumeration order pick the
        // west parity: decode every block under many event permutations and
        // demand one canonical (west_matches, logical_error) answer. Seeded
        // blocks at d=5 routinely contain co-optimal sets; a rotation +
        // reversal sweep exercises distinct reconstruction orders.
        let c = code();
        let noise = NoiseParams {
            data_error_prob: 0.015,
            meas_error_prob: 0.01,
        };
        let mut rng = StdRng::seed_from_u64(97);
        let mut scratch = DecodeScratch::new();
        let mut checked = 0;
        for _ in 0..400 {
            let block = SyndromeBlock::simulate(&c, &noise, 5, &mut rng);
            if block.events.len() > EXACT_MATCHING_LIMIT || block.events.is_empty() {
                continue;
            }
            let base = decode_block_exact(&c, &block, &mut scratch);
            let mut permuted = block.clone();
            for rot in 0..permuted.events.len() {
                permuted.events.rotate_left(1);
                let out = decode_block_exact(&c, &permuted, &mut scratch);
                assert_eq!(out, base, "rotation {rot} changed the exact decode");
                permuted.events.reverse();
                let out = decode_block_exact(&c, &permuted, &mut scratch);
                assert_eq!(out, base, "reversal after rotation {rot} changed it");
                permuted.events.reverse();
            }
            checked += 1;
        }
        assert!(checked > 100, "only {checked} blocks exercised");
    }

    #[test]
    fn dispatch_handles_dense_blocks_without_ceiling() {
        // Far beyond the old 2^14 subset ceiling: a dense multi-round block
        // at d=7 must decode through the union-find path.
        let c = RotatedSurfaceCode::new(7);
        let noise = NoiseParams {
            data_error_prob: 0.05,
            meas_error_prob: 0.05,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch = DecodeScratch::prewarmed(&c, 7);
        let mut densest = 0;
        for _ in 0..50 {
            let block = SyndromeBlock::simulate(&c, &noise, 7, &mut rng);
            densest = densest.max(block.events.len());
            let out = decode_block_with(&c, &block, &mut scratch);
            assert_eq!(out.n_events, block.events.len());
            assert!(!out.degraded, "block decoders never set degraded");
        }
        assert!(
            densest > EXACT_MATCHING_LIMIT,
            "noise too low to exercise UF"
        );
    }

    #[test]
    fn decoder_beats_raw_error_rate_below_threshold() {
        // At p well below threshold the decoded logical rate must be far
        // below the probability of any error occurring.
        let c = code();
        let noise = NoiseParams {
            data_error_prob: 0.01,
            meas_error_prob: 0.005,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let blocks = 2_000;
        let mut failures = 0;
        for _ in 0..blocks {
            let block = SyndromeBlock::simulate(&c, &noise, 5, &mut rng);
            if decode_block(&c, &block).logical_error {
                failures += 1;
            }
        }
        let logical = failures as f64 / blocks as f64;
        // Raw chance of ≥1 data error in the block is ≈ 1−(1−p)^{25·5} ≈ 0.71.
        assert!(logical < 0.1, "logical rate {logical}");
    }

    #[test]
    fn measurement_errors_alone_cause_no_logical_errors_often() {
        // Pure measurement noise creates time-like strings that the decoder
        // should almost always match vertically (no data correction).
        let c = code();
        let noise = NoiseParams {
            data_error_prob: 0.0,
            meas_error_prob: 0.02,
        };
        let mut rng = StdRng::seed_from_u64(13);
        let mut failures = 0;
        for _ in 0..1_000 {
            let block = SyndromeBlock::simulate(&c, &noise, 5, &mut rng);
            if decode_block(&c, &block).logical_error {
                failures += 1;
            }
        }
        assert!(
            failures < 20,
            "{failures} failures from measurement noise alone"
        );
    }
}
