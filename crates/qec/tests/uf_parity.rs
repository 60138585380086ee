//! Decoder parity harness: the union-find decoder against the exact
//! subset-DP matcher, and the streaming window against whole-block decode.
//!
//! The exact matcher is the reference oracle up to its
//! `EXACT_MATCHING_LIMIT` (14) events; union-find must agree with its
//! `logical_error` verdict on *every* such block the simulated streams
//! produce — across distances, rounds, seeds, and noise levels spanning the
//! Fig. 13 operating points up to several times threshold-adjacent rates.
//! (Kernel dispatch never touches the decoder, but CI runs this harness
//! under `HERQLES_KERNEL=scalar` and `auto` so the guarantee is pinned on
//! both arms of every runner.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use surface_code::window::SlidingWindowDecoder;
use surface_code::{
    decode_block_exact, decode_block_uf, DecodeScratch, DecodingGraph, NoiseParams,
    RotatedSurfaceCode, SyndromeBlock, SyndromeSim, UnionFindScratch, EXACT_MATCHING_LIMIT,
};

/// Seeded streams per (distance, lag, noise point) in the long-stream sweep.
const SEEDS_PER_LAG: u64 = 24;

/// `(p_data, p_meas)` points of the long-stream sweep: sparse, the benchmark
/// streams' rate, that rate with the decode corpus's 1 % measurement error,
/// the invariant sweep's dense data rate, and that with 3 % measurement
/// error. A commit depth of only `lag` diverges from whole-block decode at
/// the two dense points (and at d = 11 at the stream rate).
const NOISE_POINTS: [(f64, f64); 5] = [
    (0.001, 0.001),
    (0.004, 0.004),
    (0.004, 0.01),
    (0.012, 0.012),
    (0.012, 0.03),
];

#[test]
fn union_find_matches_exact_logical_error_on_all_small_blocks() {
    let mut exercised = 0usize;
    for d in [3usize, 5, 7] {
        let code = RotatedSurfaceCode::new(d);
        let mut scratch = DecodeScratch::prewarmed(&code, d);
        for (p_data, p_meas) in [(0.002, 0.002), (0.004, 0.004), (0.01, 0.01), (0.02, 0.015)] {
            let noise = NoiseParams {
                data_error_prob: p_data,
                meas_error_prob: p_meas,
            };
            for seed in 0..12u64 {
                let mut rng = StdRng::seed_from_u64(seed * 7919 + d as u64);
                for _ in 0..60 {
                    let block = SyndromeBlock::simulate(&code, &noise, d, &mut rng);
                    if block.events.is_empty() || block.events.len() > EXACT_MATCHING_LIMIT {
                        continue;
                    }
                    let exact = decode_block_exact(&code, &block, &mut scratch);
                    let uf = decode_block_uf(&code, &block, &mut scratch);
                    assert_eq!(
                        uf.logical_error, exact.logical_error,
                        "d={d} p=({p_data},{p_meas}) seed={seed}: union-find \
                         (west {}) disagrees with exact (west {}) on {:?}",
                        uf.west_matches, exact.west_matches, block.events
                    );
                    assert_eq!(uf.n_events, exact.n_events);
                    exercised += 1;
                }
            }
        }
    }
    assert!(
        exercised > 3_000,
        "only {exercised} blocks exercised — harness lost its coverage"
    );
}

#[test]
fn union_find_is_deterministic_across_event_orderings() {
    // Dense blocks (beyond the exact ceiling) under several permutations:
    // the decode must be a function of the event *set*. d = 3 is excluded —
    // its 16 space-time nodes cannot produce more than 14 events.
    for d in [5usize, 7] {
        let code = RotatedSurfaceCode::new(d);
        let noise = NoiseParams {
            data_error_prob: 0.05,
            meas_error_prob: 0.05,
        };
        let mut scratch = DecodeScratch::prewarmed(&code, d);
        let mut rng = StdRng::seed_from_u64(42 + d as u64);
        let mut dense_seen = 0usize;
        for _ in 0..60 {
            let block = SyndromeBlock::simulate(&code, &noise, d, &mut rng);
            if block.events.len() <= EXACT_MATCHING_LIMIT {
                continue;
            }
            dense_seen += 1;
            let base = decode_block_uf(&code, &block, &mut scratch);
            let mut permuted = block.clone();
            for _ in 0..5 {
                permuted.events.rotate_left(3);
                permuted.events.reverse();
                let out = decode_block_uf(&code, &permuted, &mut scratch);
                assert_eq!(out, base, "d={d}: permutation changed the UF decode");
            }
        }
        assert!(dense_seen > 5, "d={d}: only {dense_seen} dense blocks");
    }
}

/// Streams one seeded block through `wd` round by round, advancing after
/// every round as the engine does. Returns the streamed west count, the
/// whole-block union-find west count of the same events, and the number of
/// groups committed ahead of the block end; leaves `wd` reset.
fn stream_block(
    code: &RotatedSurfaceCode,
    graph: &DecodingGraph,
    noise: &NoiseParams,
    wd: &mut SlidingWindowDecoder,
    uf: &mut UnionFindScratch,
    rng: &mut StdRng,
) -> (usize, usize, usize) {
    let rounds = graph.layers() - 1;
    let mut sim = SyndromeSim::new(code, noise);
    sim.reserve_rounds(rounds);
    let mut fed = 0usize;
    for t in 0..rounds {
        sim.step_round(rng);
        wd.push_events(&sim.events()[fed..]);
        fed = sim.events().len();
        wd.advance(t, graph, uf);
    }
    sim.finish_perfect_round();
    wd.push_events(&sim.events()[fed..]);
    let streamed = wd.finish(graph, uf);
    let committed = wd.committed_clusters();
    wd.reset();
    let block = sim.into_block();
    let whole = surface_code::uf::decode_events(graph, &block.events, uf);
    (streamed, whole, committed)
}

#[test]
fn sliding_window_matches_whole_block_across_seeds() {
    // Long multi-window streams: the streamed commit-behind decode must land
    // on exactly the whole-block union-find answer, while genuinely
    // committing work ahead of the block end.
    let mut committed_total = 0usize;
    for d in [3usize, 5, 7] {
        let code = RotatedSurfaceCode::new(d);
        let noise = NoiseParams {
            data_error_prob: 0.004,
            meas_error_prob: 0.004,
        };
        let graph = DecodingGraph::new(&code, 50);
        let mut uf = UnionFindScratch::for_graph(&graph);
        let mut wd = SlidingWindowDecoder::new(d);
        wd.reserve_for(&graph);
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed * 31 + d as u64);
            let (streamed, whole, committed) =
                stream_block(&code, &graph, &noise, &mut wd, &mut uf, &mut rng);
            committed_total += committed;
            assert_eq!(
                streamed, whole,
                "d={d} seed={seed}: streamed west count diverged from whole-block"
            );
        }
    }
    assert!(
        committed_total > 50,
        "streams committed only {committed_total} clusters ahead of block end"
    );
}

#[test]
fn sliding_window_matches_whole_block_at_every_lag_up_to_d11() {
    // Lags below, at and above the interaction radius d + 1, on streams of
    // 4d rounds: the commit depth max(lag, d + 1) must keep every streamed
    // decode equal to the whole-block one, and every (d, lag) pair must
    // still commit ahead of the block end. At d = 11 only the sparse noise
    // point commits anything: at the denser ones, events within the radius
    // chain through the whole 44-round block, so it is one interaction
    // group.
    for d in [3usize, 5, 7, 9, 11] {
        let code = RotatedSurfaceCode::new(d);
        let rounds = 4 * d;
        let graph = DecodingGraph::new(&code, rounds);
        let mut uf = UnionFindScratch::for_graph(&graph);
        for lag in [1, 2, 3, d + 2] {
            let mut wd = SlidingWindowDecoder::new(lag);
            wd.reserve_for(&graph);
            let mut committed_total = 0usize;
            for (data_error_prob, meas_error_prob) in NOISE_POINTS {
                let noise = NoiseParams {
                    data_error_prob,
                    meas_error_prob,
                };
                for seed in 0..SEEDS_PER_LAG {
                    let mut rng = StdRng::seed_from_u64(0x57_1DE ^ (seed << 8) ^ (d << 4) as u64);
                    let (streamed, whole, committed) =
                        stream_block(&code, &graph, &noise, &mut wd, &mut uf, &mut rng);
                    committed_total += committed;
                    assert_eq!(
                        streamed, whole,
                        "d={d} rounds={rounds} lag={lag} \
                         p={data_error_prob}/{meas_error_prob} seed={seed}: streamed west count diverged from whole-block"
                    );
                }
            }
            assert!(
                committed_total > 0,
                "d={d} lag={lag}: {rounds}-round streams never committed ahead of the block end"
            );
        }
    }
}

#[test]
fn union_find_scales_to_d11_without_ceiling() {
    // The acceptance bar: blocks at d = 11 (and 9) with event counts far
    // past the old 2^14 subset ceiling decode through union-find.
    for d in [9usize, 11] {
        let code = RotatedSurfaceCode::new(d);
        let noise = NoiseParams {
            data_error_prob: 0.01,
            meas_error_prob: 0.01,
        };
        let mut scratch = DecodeScratch::prewarmed(&code, d);
        let mut rng = StdRng::seed_from_u64(d as u64);
        let mut densest = 0usize;
        for _ in 0..20 {
            let block = SyndromeBlock::simulate(&code, &noise, d, &mut rng);
            densest = densest.max(block.events.len());
            let out = surface_code::decode_block_with(&code, &block, &mut scratch);
            assert_eq!(out.n_events, block.events.len());
            assert!(!out.degraded);
        }
        assert!(
            densest > EXACT_MATCHING_LIMIT,
            "d={d}: densest block only {densest} events"
        );
    }
}
