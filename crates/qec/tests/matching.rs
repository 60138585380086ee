//! The blossom matcher (`surface_code::matching`) checked three ways:
//! against the subset-DP oracle on seeded blocks at every distance the
//! decoder serves, against exhaustive pairing on random weight matrices
//! full of ties, and on the structural cases the algorithm must get right —
//! a blossom that contracts and later expands, and independence of the
//! event order.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use surface_code::matching::Matcher;
use surface_code::{
    decode_block_exact, decode_block_with, DecodeScratch, DecodingGraph, NoiseParams,
    RotatedSurfaceCode, SyndromeBlock, EXACT_DISPATCH_LIMIT, EXACT_MATCHING_LIMIT,
};

/// Seeded non-empty blocks at distance `d` within the oracle's ceiling.
/// Error rates scale as `1/d³` (a block has about `d³` qubit-rounds), so
/// every distance spreads its event counts over the oracle's whole range.
fn seeded_blocks(d: usize, seed: u64, per_rate: usize) -> Vec<SyndromeBlock> {
    let code = RotatedSurfaceCode::new(d);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut blocks = Vec::new();
    for scale in [2.0, 5.0, 9.0] {
        let p = scale / (d * d * d) as f64;
        let noise = NoiseParams {
            data_error_prob: p,
            meas_error_prob: p,
        };
        for _ in 0..per_rate {
            let block = SyndromeBlock::simulate(&code, &noise, d, &mut rng);
            if !block.events.is_empty() && block.events.len() <= EXACT_MATCHING_LIMIT {
                blocks.push(block);
            }
        }
    }
    blocks
}

#[test]
fn matcher_equals_subset_dp_oracle_on_seeded_blocks() {
    let mut matcher = Matcher::new();
    let mut oracle = DecodeScratch::new();
    let mut seen = [false; EXACT_MATCHING_LIMIT + 1];
    for d in [3usize, 5, 7, 9, 11] {
        let code = RotatedSurfaceCode::new(d);
        let graph = DecodingGraph::new(&code, d);
        let mut production = DecodeScratch::prewarmed(&code, d);
        let (mut odd, mut even) = (0, 0);
        for block in seeded_blocks(d, 1000 + d as u64, 40) {
            let want = decode_block_exact(&code, &block, &mut oracle);
            let events = block.events.iter().copied();
            assert_eq!(
                matcher.canonical_west(&code, events.clone()),
                want.west_matches,
                "d={d}: {:?}",
                block.events
            );
            assert_eq!(
                matcher.canonical_west(&graph, events),
                want.west_matches,
                "d={d}, graph metric: {:?}",
                block.events
            );
            let k = block.events.len();
            if k <= EXACT_DISPATCH_LIMIT {
                assert_eq!(decode_block_with(&code, &block, &mut production), want);
            }
            seen[k] = true;
            if k >= 3 {
                if k % 2 == 1 {
                    odd += 1;
                } else {
                    even += 1;
                }
            }
        }
        assert!(
            odd > 0 && even > 0,
            "d={d}: only {odd} odd and {even} even blocks beyond the closed forms"
        );
    }
    let missing: Vec<usize> = (1..=EXACT_MATCHING_LIMIT).filter(|&k| !seen[k]).collect();
    assert!(
        missing.is_empty(),
        "event counts never exercised: {missing:?}"
    );
}

/// Minimum perfect-matching weight by exhaustive pairing.
fn brute_force(left: u32, w: &[[u64; 10]; 10]) -> u64 {
    if left == 0 {
        return 0;
    }
    let i = left.trailing_zeros() as usize;
    let rest = left & !(1 << i);
    let mut best = u64::MAX;
    let mut others = rest;
    while others != 0 {
        let j = others.trailing_zeros() as usize;
        others &= others - 1;
        best = best.min(w[i][j] + brute_force(rest & !(1 << j), w));
    }
    best
}

#[test]
fn matcher_equals_brute_force_on_random_weights() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut matcher = Matcher::new();
    let (mut contractions, mut expansions) = (0, 0);
    for trial in 0..3000 {
        let n = 2 * rng.random_range(1..6usize);
        // Narrow weight ranges make co-optimal matchings common.
        let spread = [3u64, 20, 1000][trial % 3];
        let mut w = [[0u64; 10]; 10];
        for (i, j) in (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))) {
            w[i][j] = rng.random_range(0..spread);
            w[j][i] = w[i][j];
        }
        let got = matcher.min_weight_perfect_matching(n, |i, j| w[i][j]);
        assert_eq!(got, brute_force((1 << n) - 1, &w), "trial {trial}: {w:?}");
        let mut total = 0;
        for (i, row) in w.iter().enumerate().take(n) {
            let j = matcher.mate(i);
            assert!(
                j != i && matcher.mate(j) == i,
                "trial {trial}: not a matching"
            );
            if i < j {
                total += row[j];
            }
        }
        assert_eq!(
            total, got,
            "trial {trial}: reported total is not the matching's"
        );
        let (c, e) = matcher.blossom_counts();
        contractions += c;
        expansions += e;
    }
    assert!(
        contractions > 0 && expansions > 0,
        "random instances never exercised blossoms ({contractions} contractions, \
         {expansions} expansions)"
    );
}

#[test]
fn odd_cycle_blossom_contracts_and_expands() {
    // A 5-cycle 0-1-2-3-4 of cheap edges with three pendants: 5 hangs off
    // 0, 7 off 3 and 6 off 4, and every other pair costs 1000. The pendants
    // force the matching {0-5, 1-2, 3-7, 4-6}. The solver pairs 1-2 and 3-4
    // first, contracts the odd cycle into a blossom and matches it out
    // through 0-5; a later tree then reaches the blossom through 3-7 as an
    // inner blossom, and it must expand before 4 can reach its only
    // partner 6.
    let cheap = [
        ((0, 1), 7),
        ((1, 2), 5),
        ((2, 3), 8),
        ((3, 4), 5),
        ((0, 4), 8),
        ((0, 5), 15),
        ((3, 7), 16),
        ((4, 6), 17),
    ];
    let weight = |i: usize, j: usize| {
        cheap
            .iter()
            .find(|&&(e, _)| e == (i, j))
            .map_or(1000, |&(_, w)| w)
    };
    let mut matcher = Matcher::new();
    let total = matcher.min_weight_perfect_matching(8, weight);
    assert_eq!(total, 15 + 5 + 16 + 17);
    for (a, b) in [(0, 5), (1, 2), (3, 7), (4, 6)] {
        assert_eq!(matcher.mate(a), b);
        assert_eq!(matcher.mate(b), a);
    }
    let (contractions, expansions) = matcher.blossom_counts();
    assert!(contractions >= 1, "the odd cycle never contracted");
    assert!(expansions >= 1, "the blossom never expanded");
}

#[test]
fn event_order_never_changes_the_west_count() {
    let mut matcher = Matcher::new();
    for d in [5usize, 7] {
        let code = RotatedSurfaceCode::new(d);
        for block in seeded_blocks(d, 77 + d as u64, 20) {
            let base = matcher.canonical_west(&code, block.events.iter().copied());
            let mut events = block.events.clone();
            for rot in 0..events.len() {
                events.rotate_left(1);
                let rotated = matcher.canonical_west(&code, events.iter().copied());
                assert_eq!(rotated, base, "d={d}: rotation {rot} of {:?}", block.events);
                events.reverse();
                let reversed = matcher.canonical_west(&code, events.iter().copied());
                assert_eq!(reversed, base, "d={d}: reversal after rotation {rot}");
                events.reverse();
            }
        }
    }
}
