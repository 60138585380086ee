//! Exact canonical matching of detection events: Edmonds' weighted blossom
//! algorithm on a small complete graph.
//!
//! Both exact consumers in the decoder — [`crate::decoder`]'s dispatch of
//! small blocks and [`crate::uf`]'s interaction-group refinement — ask the
//! same question: over a set of `k` detection events, what is the west-exit
//! count of the minimum-cost matching in which every event pairs with
//! another event or exits through the west or east boundary, ties broken
//! towards the fewest west exits? [`Matcher::canonical_west`] answers it in
//! `O(k³)` with fixed-size working memory.
//!
//! # Reduction
//!
//! Weights are *packed* as `(cost << 8) | west`, so the numeric minimum of a
//! packed total is the lexicographic minimum of `(cost, west)` — the
//! canonical tie-break of the subset-DP oracle
//! ([`crate::decoder::decode_block_exact`]). The boundary is folded into the
//! edge weights, so only the `k` events are matched (no boundary twins):
//!
//! * an event's boundary exit costs `b_i = min(dist_west << 8 | 1, dist_east << 8)`;
//! * the pair `(i, j)` costs `min(dist(i, j) << 8, b_i + b_j)` — matched
//!   directly, or both exiting through their own boundaries;
//! * for odd `k`, one extra vertex joins every event at cost `b_i` (the one
//!   event left over after pairing exits alone).
//!
//! Every assignment of events to partners or boundaries maps to a perfect
//! matching of this graph with the same packed cost and back, so the
//! minimum packed total is the oracle's, and its low 8 bits are the
//! canonical west count: a function of the event *set*, whichever of
//! several co-optimal matchings the solver happens to find.
//!
//! # Solver
//!
//! A dense primal-dual Edmonds solver (Edmonds 1965, "Paths, trees, and
//! flowers", in Galil's `O(n³)` organisation with per-vertex least-slack
//! edges): alternating trees grow from every exposed vertex over tight
//! edges, odd cycles contract into blossoms, dual adjustments make new
//! edges tight, and inner blossoms whose dual reaches zero expand. It finds
//! a *maximum*-weight matching, so weights are flipped to `C − w` with `C`
//! above any perfect matching's total: every maximum-weight matching is
//! then perfect and of minimum original weight. Vertex indices are 1-based
//! (0 means "none"); blossoms take the ids after the vertices. Every table
//! is sized for [`MAX_EVENTS`] events, so a solve never touches the heap.
//! Instances of at most six vertices (at most 15 perfect matchings) skip
//! the solver and try every pairing, which is cheaper than its set-up.

use crate::decoder::EXACT_DISPATCH_LIMIT;
use crate::graph::DecodingGraph;
use crate::layout::RotatedSurfaceCode;
use crate::syndrome::DetectionEvent;
use crate::uf::LOCAL_EXACT_LIMIT;

/// Most events one [`Matcher::canonical_west`] call accepts: the larger of
/// the dispatch limit and the union-find refinement limit.
pub const MAX_EVENTS: usize = if EXACT_DISPATCH_LIMIT > LOCAL_EXACT_LIMIT {
    EXACT_DISPATCH_LIMIT
} else {
    LOCAL_EXACT_LIMIT
};

/// Most vertices one solve takes: the events plus the odd-`k` boundary
/// vertex.
pub const MAX_VERTICES: usize = (MAX_EVENTS + 1) & !1;

/// Vertex slots: 1-based vertices, slot 0 is "none".
const NV: usize = MAX_VERTICES + 1;
/// Vertex plus blossom slots. Live blossoms form a laminar family of odd
/// sets with at least three children each, so at most `(n − 1) / 2` exist
/// at once and their ids stay at or below `n + (n − 1) / 2`.
const NX: usize = NV + MAX_VERTICES / 2;

/// Low bits of a packed weight: the west-exit count.
const WEST_BITS: u32 = 8;
const WEST_MASK: u64 = (1 << WEST_BITS) - 1;

/// Labels within one augmentation stage: not in any alternating tree…
const UNLABELED: i8 = -1;
/// …at even distance from a tree root ("S")…
const OUTER: i8 = 0;
/// …or at odd distance ("T").
const INNER: i8 = 1;

/// Distances the matching needs: between two stabilizers and from a
/// stabilizer to either boundary. Implemented by the code itself and by
/// its precomputed [`DecodingGraph`], which agree on every value.
pub trait MatchingMetric {
    /// Spatial distance between stabilizers `a` and `b`.
    fn stab_distance(&self, a: usize, b: usize) -> usize;
    /// Distance from stabilizer `s` to the west boundary.
    fn dist_west(&self, s: usize) -> usize;
    /// Distance from stabilizer `s` to the east boundary.
    fn dist_east(&self, s: usize) -> usize;
}

impl MatchingMetric for RotatedSurfaceCode {
    fn stab_distance(&self, a: usize, b: usize) -> usize {
        RotatedSurfaceCode::stab_distance(self, a, b)
    }
    fn dist_west(&self, s: usize) -> usize {
        RotatedSurfaceCode::dist_west(self, s)
    }
    fn dist_east(&self, s: usize) -> usize {
        RotatedSurfaceCode::dist_east(self, s)
    }
}

impl MatchingMetric for DecodingGraph {
    fn stab_distance(&self, a: usize, b: usize) -> usize {
        DecodingGraph::stab_distance(self, a, b)
    }
    fn dist_west(&self, s: usize) -> usize {
        DecodingGraph::dist_west(self, s)
    }
    fn dist_east(&self, s: usize) -> usize {
        DecodingGraph::dist_east(self, s)
    }
}

/// Packed boundary-exit weight of one event.
fn boundary_weight<M: MatchingMetric>(metric: &M, e: &DetectionEvent) -> u64 {
    let west = ((metric.dist_west(e.stab) as u64) << WEST_BITS) | 1;
    let east = (metric.dist_east(e.stab) as u64) << WEST_BITS;
    west.min(east)
}

/// Packed weight of pairing two events, given the sum of their boundary
/// weights: matched directly, or both exiting through their own boundaries.
fn pair_weight<M: MatchingMetric>(
    metric: &M,
    a: &DetectionEvent,
    b: &DetectionEvent,
    boundaries: u64,
) -> u64 {
    let dist = metric.stab_distance(a.stab, b.stab) + a.round.abs_diff(b.round);
    ((dist as u64) << WEST_BITS).min(boundaries)
}

/// Instances of at most this many vertices (at most 15 perfect matchings)
/// are solved by trying every pairing: below eight vertices that is
/// cheaper than the blossom solver's fixed set-up.
const PAIRING_MAX: usize = 6;

/// Minimum total weight over every perfect pairing of the vertices in
/// `left` (upper-triangular weights `w[i][j]`, `i < j`).
fn min_pairing(w: &[[u64; PAIRING_MAX]; PAIRING_MAX], left: u32) -> u64 {
    if left == 0 {
        return 0;
    }
    let i = left.trailing_zeros() as usize;
    let rest = left & (left - 1);
    let mut best = u64::MAX;
    let mut others = rest;
    while others != 0 {
        let j = others.trailing_zeros() as usize;
        others &= others - 1;
        best = best.min(w[i][j] + min_pairing(w, rest & !(1 << j)));
    }
    best
}

/// An edge between real vertices `u` and `v`. A blossom's row holds its
/// least-slack edge to each other vertex or blossom.
#[derive(Debug, Clone, Copy, Default)]
struct Edge {
    u: u8,
    v: u8,
    w: i32,
}

/// Working memory of the blossom solver, sized for [`MAX_VERTICES`]
/// vertices and reused across solves without allocating.
#[derive(Debug, Clone)]
pub struct Matcher {
    /// Real vertices of the current solve.
    n: usize,
    /// Highest vertex-or-blossom id in use.
    n_x: usize,
    /// Edge table; real-vertex rows hold the flipped weights `C − w`.
    g: [[Edge; NX]; NX],
    /// Dual variables, doubled: an edge's slack is `lab_u + lab_v − 2w`.
    lab: [i32; NX],
    /// Matched partner (a real vertex) of each vertex or blossom.
    mate: [u8; NX],
    /// Outer vertex at the far end of each vertex's or blossom's
    /// least-slack edge.
    slack: [u8; NX],
    /// Top-level blossom containing each vertex or blossom (0 = unused id).
    st: [u8; NX],
    /// Tree parent: the outer vertex an inner vertex or blossom hangs off.
    pa: [u8; NX],
    label: [i8; NX],
    /// Marks of the lowest-common-ancestor walks, stamped per walk.
    vis: [u32; NX],
    stamp: u32,
    /// A blossom's children in cycle order, starting at its base.
    flower: [[u8; NV]; NX],
    flower_len: [u8; NX],
    /// `flower_from[b][x]`: the child of blossom `b` containing vertex `x`.
    flower_from: [[u8; NV]; NX],
    /// Outer vertices still to scan. A vertex turns outer at most once per
    /// stage, so `NV` slots suffice.
    queue: [u8; NV],
    q_head: usize,
    q_tail: usize,
    /// Blossom contractions and expansions of the last solve.
    contractions: u32,
    expansions: u32,
}

impl Default for Matcher {
    fn default() -> Self {
        Matcher {
            n: 0,
            n_x: 0,
            g: [[Edge::default(); NX]; NX],
            lab: [0; NX],
            mate: [0; NX],
            slack: [0; NX],
            st: [0; NX],
            pa: [0; NX],
            label: [UNLABELED; NX],
            vis: [0; NX],
            stamp: 0,
            flower: [[0; NV]; NX],
            flower_len: [0; NX],
            flower_from: [[0; NV]; NX],
            queue: [0; NV],
            q_head: 0,
            q_tail: 0,
            contractions: 0,
            expansions: 0,
        }
    }
}

impl Matcher {
    /// A ready solver (fixed-size, no heap).
    pub fn new() -> Self {
        Matcher::default()
    }

    /// The canonical west count of `events` (at most [`MAX_EVENTS`]): the
    /// west-exit count of the minimum-cost matching, fewest west exits
    /// among co-optimal ones. Independent of the order of `events`.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_EVENTS`] events.
    pub fn canonical_west<M, I>(&mut self, metric: &M, events: I) -> usize
    where
        M: MatchingMetric,
        I: IntoIterator<Item = DetectionEvent>,
    {
        let mut ev = [DetectionEvent { stab: 0, round: 0 }; MAX_EVENTS];
        let mut bound = [0u64; MAX_EVENTS];
        let mut k = 0;
        for e in events {
            assert!(k < MAX_EVENTS, "matcher takes at most {MAX_EVENTS} events");
            bound[k] = boundary_weight(metric, &e);
            ev[k] = e;
            k += 1;
        }
        // Vertex `k` (0-based) is the boundary vertex when `k` is odd.
        let weight = |i: usize, j: usize| {
            if j == k {
                bound[i]
            } else {
                pair_weight(metric, &ev[i], &ev[j], bound[i] + bound[j])
            }
        };
        let n = k + k % 2;
        let packed = match k {
            // Closed forms: nothing, one lone exit, one pair.
            0 => 0,
            1 => bound[0],
            2 => weight(0, 1),
            _ if n <= PAIRING_MAX => {
                let mut w = [[0u64; PAIRING_MAX]; PAIRING_MAX];
                for (i, row) in w.iter_mut().enumerate().take(n) {
                    for (j, cell) in row.iter_mut().enumerate().take(n).skip(i + 1) {
                        *cell = weight(i, j);
                    }
                }
                min_pairing(&w, (1 << n) - 1)
            }
            _ => self.min_weight_perfect_matching(n, weight),
        };
        (packed & WEST_MASK) as usize
    }

    /// Minimum total weight of a perfect matching on the complete graph over
    /// vertices `0..n`, with edge weights `weight(i, j)` for `i < j`. Read
    /// the matching itself with [`Matcher::mate`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is odd or above [`MAX_VERTICES`].
    pub fn min_weight_perfect_matching<F>(&mut self, n: usize, weight: F) -> u64
    where
        F: Fn(usize, usize) -> u64,
    {
        assert!(
            n.is_multiple_of(2) && n <= MAX_VERTICES,
            "perfect matching needs an even vertex count ≤ {MAX_VERTICES}, got {n}"
        );
        let mut max_w = 0;
        for i in 0..n {
            for j in i + 1..n {
                let w = weight(i, j);
                // Packed weights stay far below this for any code that fits
                // in memory; the bound keeps every dual and slack in `i32`.
                assert!(w < 1 << 20, "matching weight {w} out of range");
                let w = w as i32;
                max_w = max_w.max(w);
                let (u, v) = (i as u8 + 1, j as u8 + 1);
                self.g[u as usize][v as usize] = Edge { u, v, w };
                self.g[v as usize][u as usize] = Edge { u: v, v: u, w };
            }
        }
        // Every perfect matching totals at most (n/2)·max_w < C, so under
        // the weights C − w one more matched edge outweighs any difference
        // in original weight: maximum weight ⇒ perfect, minimum cost.
        let c = (n as i32 / 2) * max_w + 1;
        self.solve(n, c);
        let mut total = 0u64;
        for u in 1..=n {
            let v = self.mate[u] as usize;
            debug_assert!(v != 0, "vertex {u} left unmatched");
            if v > u {
                total += (c - self.g[u][v].w) as u64;
            }
        }
        total
    }

    /// Partner of vertex `i` (0-based) in the matching of the last
    /// [`Matcher::min_weight_perfect_matching`] call.
    pub fn mate(&self, i: usize) -> usize {
        self.mate[i + 1] as usize - 1
    }

    /// `(contractions, expansions)` of blossoms during the last
    /// [`Matcher::min_weight_perfect_matching`] call.
    pub fn blossom_counts(&self) -> (u32, u32) {
        (self.contractions, self.expansions)
    }

    /// Flips the loaded weights to `c − w` and runs augmentation stages
    /// until the matching is maximum-weight.
    fn solve(&mut self, n: usize, c: i32) {
        let mut top_w = 0;
        for u in 1..=n {
            self.g[u][u] = Edge {
                u: u as u8,
                v: u as u8,
                w: 0,
            };
            for v in u + 1..=n {
                let w = c - self.g[u][v].w;
                self.g[u][v].w = w;
                self.g[v][u].w = w;
                top_w = top_w.max(w);
            }
        }
        self.n = n;
        self.n_x = n;
        self.stamp = 0;
        self.vis.fill(0);
        self.mate.fill(0);
        self.st.fill(0);
        self.flower_len.fill(0);
        self.lab[0] = 0;
        for u in 1..=n {
            self.st[u] = u as u8;
            self.lab[u] = top_w;
            for v in 1..=n {
                self.flower_from[u][v] = if u == v { u as u8 } else { 0 };
            }
        }
        self.contractions = 0;
        self.expansions = 0;
        while self.augment_stage() {}
    }

    /// Slack of a real edge under the current duals.
    fn slack_of(&self, e: Edge) -> i32 {
        let (u, v) = (e.u as usize, e.v as usize);
        self.lab[u] + self.lab[v] - 2 * self.g[u][v].w
    }

    /// Top-level blossom (or the vertex itself) containing `x`.
    fn top(&self, x: usize) -> usize {
        self.st[x] as usize
    }

    fn update_slack(&mut self, u: usize, x: usize) {
        let s = self.slack[x] as usize;
        if s == 0 || self.slack_of(self.g[u][x]) < self.slack_of(self.g[s][x]) {
            self.slack[x] = u as u8;
        }
    }

    fn set_slack(&mut self, x: usize) {
        self.slack[x] = 0;
        for u in 1..=self.n {
            if self.g[u][x].w > 0 && self.top(u) != x && self.label[self.top(u)] == OUTER {
                self.update_slack(u, x);
            }
        }
    }

    /// Queues vertex `x`, or every vertex inside blossom `x`.
    fn q_push(&mut self, x: usize) {
        if x <= self.n {
            self.queue[self.q_tail] = x as u8;
            self.q_tail += 1;
        } else {
            for i in 0..self.flower_len[x] as usize {
                self.q_push(self.flower[x][i] as usize);
            }
        }
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.st[x] = b as u8;
        if x > self.n {
            for i in 0..self.flower_len[x] as usize {
                self.set_st(self.flower[x][i] as usize, b);
            }
        }
    }

    /// Position of child `xr` in blossom `b`'s cycle, reversing the cycle
    /// first when needed so that the path from the base to it is even.
    fn get_pr(&mut self, b: usize, xr: usize) -> usize {
        let len = self.flower_len[b] as usize;
        let pr = self.flower[b][..len]
            .iter()
            .position(|&c| c as usize == xr)
            .expect("vertex belongs to the blossom");
        if pr % 2 == 1 {
            self.flower[b][1..len].reverse();
            len - pr
        } else {
            pr
        }
    }

    /// Matches `u` (vertex or blossom) along its best edge to `v`,
    /// rematching a blossom's interior around its new base.
    fn set_match(&mut self, u: usize, v: usize) {
        let e = self.g[u][v];
        self.mate[u] = e.v;
        if u > self.n {
            let xr = self.flower_from[u][e.u as usize] as usize;
            let pr = self.get_pr(u, xr);
            for i in 0..pr {
                let (a, b) = (self.flower[u][i] as usize, self.flower[u][i ^ 1] as usize);
                self.set_match(a, b);
            }
            self.set_match(xr, v);
            let len = self.flower_len[u] as usize;
            self.flower[u][..len].rotate_left(pr);
        }
    }

    /// Flips the alternating path from `u` up to its tree root, starting
    /// with the new matched edge `(u, v)`.
    fn augment(&mut self, mut u: usize, mut v: usize) {
        loop {
            let xnv = self.top(self.mate[u] as usize);
            self.set_match(u, v);
            if xnv == 0 {
                return;
            }
            let next = self.top(self.pa[xnv] as usize);
            self.set_match(xnv, next);
            u = next;
            v = xnv;
        }
    }

    /// Lowest common outer ancestor of `u` and `v`, or 0 when they sit in
    /// different trees (the edge closes an augmenting path).
    fn get_lca(&mut self, mut u: usize, mut v: usize) -> usize {
        self.stamp += 1;
        let t = self.stamp;
        while u != 0 || v != 0 {
            if u != 0 {
                if self.vis[u] == t {
                    return u;
                }
                self.vis[u] = t;
                u = self.top(self.mate[u] as usize);
                if u != 0 {
                    u = self.top(self.pa[u] as usize);
                }
            }
            std::mem::swap(&mut u, &mut v);
        }
        0
    }

    fn push_flower(&mut self, b: usize, x: usize) {
        let len = self.flower_len[b] as usize;
        self.flower[b][len] = x as u8;
        self.flower_len[b] += 1;
    }

    /// Appends the tree path from `x` up to `lca` to blossom `b`'s cycle,
    /// queueing its inner members (they turn outer).
    fn push_path(&mut self, b: usize, mut x: usize, lca: usize) {
        while x != lca {
            self.push_flower(b, x);
            let y = self.top(self.mate[x] as usize);
            self.push_flower(b, y);
            self.q_push(y);
            x = self.top(self.pa[y] as usize);
        }
    }

    /// Contracts the odd cycle `lca … u — v … lca` into a new outer blossom.
    fn add_blossom(&mut self, u: usize, lca: usize, v: usize) {
        self.contractions += 1;
        let mut b = self.n + 1;
        while b <= self.n_x && self.st[b] != 0 {
            b += 1;
        }
        if b > self.n_x {
            self.n_x += 1;
        }
        debug_assert!(b < NX, "blossom id {b} beyond the fixed tables");
        self.lab[b] = 0;
        self.label[b] = OUTER;
        self.mate[b] = self.mate[lca];
        self.flower_len[b] = 0;
        self.push_flower(b, lca);
        self.push_path(b, u, lca);
        let len = self.flower_len[b] as usize;
        self.flower[b][1..len].reverse();
        self.push_path(b, v, lca);
        self.set_st(b, b);
        for x in 1..=self.n_x {
            self.g[b][x].w = 0;
            self.g[x][b].w = 0;
        }
        self.flower_from[b][1..=self.n].fill(0);
        for i in 0..self.flower_len[b] as usize {
            let xs = self.flower[b][i] as usize;
            for x in 1..=self.n_x {
                if self.g[b][x].w == 0 || self.slack_of(self.g[xs][x]) < self.slack_of(self.g[b][x])
                {
                    self.g[b][x] = self.g[xs][x];
                    self.g[x][b] = self.g[x][xs];
                }
            }
            for x in 1..=self.n {
                if self.flower_from[xs][x] != 0 {
                    self.flower_from[b][x] = xs as u8;
                }
            }
        }
        self.set_slack(b);
    }

    /// Expands an inner blossom whose dual reached zero: the even path from
    /// its entry child to its base stays in the tree, the rest leaves it.
    fn expand_blossom(&mut self, b: usize) {
        self.expansions += 1;
        for i in 0..self.flower_len[b] as usize {
            let c = self.flower[b][i] as usize;
            self.set_st(c, c);
        }
        let entry = self.g[b][self.pa[b] as usize].u as usize;
        let xr = self.flower_from[b][entry] as usize;
        let pr = self.get_pr(b, xr);
        for i in (0..pr).step_by(2) {
            let xs = self.flower[b][i] as usize;
            let xns = self.flower[b][i + 1] as usize;
            self.pa[xs] = self.g[xns][xs].u;
            self.label[xs] = INNER;
            self.label[xns] = OUTER;
            self.slack[xs] = 0;
            self.set_slack(xns);
            self.q_push(xns);
        }
        self.label[xr] = INNER;
        self.pa[xr] = self.pa[b];
        for i in pr + 1..self.flower_len[b] as usize {
            let xs = self.flower[b][i] as usize;
            self.label[xs] = UNLABELED;
            self.set_slack(xs);
        }
        self.st[b] = 0;
    }

    /// Handles a tight edge out of an outer vertex: grow the tree, contract
    /// a blossom, or augment. Returns whether the matching grew.
    fn on_tight_edge(&mut self, e: Edge) -> bool {
        let u = self.top(e.u as usize);
        let v = self.top(e.v as usize);
        if self.label[v] == UNLABELED {
            self.pa[v] = e.u;
            self.label[v] = INNER;
            let nu = self.top(self.mate[v] as usize);
            self.slack[v] = 0;
            self.slack[nu] = 0;
            self.label[nu] = OUTER;
            self.q_push(nu);
        } else if self.label[v] == OUTER {
            let lca = self.get_lca(u, v);
            if lca == 0 {
                self.augment(u, v);
                self.augment(v, u);
                return true;
            }
            self.add_blossom(u, lca, v);
        }
        false
    }

    /// One stage: grows alternating trees from every exposed vertex until
    /// an augmenting path is found (true) or no augmentation can raise the
    /// matching's weight (false).
    fn augment_stage(&mut self) -> bool {
        self.label[1..=self.n_x].fill(UNLABELED);
        self.slack[1..=self.n_x].fill(0);
        self.q_head = 0;
        self.q_tail = 0;
        for x in 1..=self.n_x {
            if self.top(x) == x && self.mate[x] == 0 {
                self.pa[x] = 0;
                self.label[x] = OUTER;
                self.q_push(x);
            }
        }
        if self.q_tail == 0 {
            return false;
        }
        loop {
            while self.q_head < self.q_tail {
                let u = self.queue[self.q_head] as usize;
                self.q_head += 1;
                if self.label[self.top(u)] == INNER {
                    continue;
                }
                for v in 1..=self.n {
                    if self.g[u][v].w > 0 && self.top(u) != self.top(v) {
                        if self.slack_of(self.g[u][v]) == 0 {
                            if self.on_tight_edge(self.g[u][v]) {
                                return true;
                            }
                        } else {
                            self.update_slack(u, self.top(v));
                        }
                    }
                }
            }

            // Dual adjustment: the largest step that keeps every slack and
            // every blossom dual non-negative.
            let mut d = i32::MAX;
            for b in self.n + 1..=self.n_x {
                if self.top(b) == b && self.label[b] == INNER {
                    d = d.min(self.lab[b] / 2);
                }
            }
            for x in 1..=self.n_x {
                let s = self.slack[x] as usize;
                if self.top(x) == x && s != 0 {
                    let slack = self.slack_of(self.g[s][x]);
                    if self.label[x] == UNLABELED {
                        d = d.min(slack);
                    } else if self.label[x] == OUTER {
                        debug_assert!(slack % 2 == 0, "outer-outer slack {slack} is odd");
                        d = d.min(slack / 2);
                    }
                }
            }
            for u in 1..=self.n {
                match self.label[self.top(u)] {
                    OUTER => {
                        if self.lab[u] <= d {
                            return false;
                        }
                        self.lab[u] -= d;
                    }
                    INNER => self.lab[u] += d,
                    _ => {}
                }
            }
            for b in self.n + 1..=self.n_x {
                if self.top(b) == b {
                    match self.label[b] {
                        OUTER => self.lab[b] += 2 * d,
                        INNER => self.lab[b] -= 2 * d,
                        _ => {}
                    }
                }
            }

            // Act on the edges the step made tight, then expand inner
            // blossoms whose dual hit zero. A contraction here can raise
            // `n_x`, so the bound is re-read every iteration.
            self.q_head = 0;
            self.q_tail = 0;
            let mut x = 1;
            while x <= self.n_x {
                let s = self.slack[x] as usize;
                if self.top(x) == x
                    && s != 0
                    && self.top(s) != x
                    && self.slack_of(self.g[s][x]) == 0
                    && self.on_tight_edge(self.g[s][x])
                {
                    return true;
                }
                x += 1;
            }
            for b in self.n + 1..=self.n_x {
                if self.top(b) == b && self.label[b] == INNER && self.lab[b] == 0 {
                    self.expand_blossom(b);
                }
            }
        }
    }
}
