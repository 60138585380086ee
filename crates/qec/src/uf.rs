//! Union-find decoder: cluster growth, boundary absorption, and peeling.
//!
//! The decoder grows clusters around detection events on the precomputed
//! [`DecodingGraph`] in synchronous half-step rounds (Delfosse–Nickerson
//! style): every node of an *active* cluster — odd defect parity, no
//! boundary contact — adds half a step of support to each of its unsaturated
//! half-edges; an edge whose support reaches [`EDGE_WEIGHT`] merges its
//! endpoints (weighted union by cluster size with path compression, the
//! virtual boundary nodes carrying effectively infinite size so they always
//! remain roots). A cluster that touches the west or east boundary is
//! absorbed — it stops growing, its parity no longer matters. Growth stops
//! when no active cluster remains.
//!
//! The union steps record a spanning forest of the grown clusters. Peeling
//! roots each tree at its boundary node (west first, then east, then the
//! first-touched real node for interior clusters) and walks it bottom-up:
//! a node whose accumulated defect parity is odd puts its parent edge into
//! the correction and flips its parent; boundary nodes absorb whatever
//! parity reaches them. Only west boundary edges can flip the logical `X`
//! class (west-column data qubits touch exactly one Z-stabilizer — see
//! [`crate::decoder`]), so the correction's weight along any interior path
//! is irrelevant and the decoder just counts committed west edges.
//!
//! Tree peeling alone routes a cluster's parity out whichever boundary the
//! growth touched *first*, which on co-optimal configurations can disagree
//! with minimum-weight matching (e.g. three merged defects where pairing
//! two and exiting the third east beats routing everything west — or two
//! defects in *different* clusters whose direct pairing ties both clusters'
//! independent boundary exits). So after peeling assigns commit components,
//! events are linked into **interaction groups** — same component, or
//! within the interaction radius `d + 1` of each other (far enough that a
//! direct pairing can never tie two independent boundary resolutions
//! beyond it) — and every group with at most [`LOCAL_EXACT_LIMIT`] events
//! has its west count *refined* by the blossom matcher of
//! [`crate::matching`]: exact minimum-weight matching over the group with
//! the identical metric and min-cost/min-west tie-break as
//! [`crate::decoder`]'s oracle, in `O(k³)` time and fixed memory. Only a
//! group beyond the limit keeps the sum of its components' peeled answers.
//!
//! Everything runs against a caller-owned [`UnionFindScratch`]: once sized
//! for a graph (see [`UnionFindScratch::for_graph`]) a decode performs no
//! heap allocation, preserving the streaming engine's warm zero-allocation
//! contract.
//!
//! Processing order — node-index order within each growth round, input
//! order for traversal roots — is fixed, so the decode is deterministic and
//! independent of the order events are listed in.

use crate::graph::{DecodingGraph, EDGE_WEIGHT, MAX_SLOTS, SPATIAL_SLOT0};
use crate::matching::Matcher;
use crate::syndrome::DetectionEvent;

const NO_NODE: u32 = u32::MAX;

/// Interaction groups with at most this many events are re-matched exactly
/// by the blossom matcher; larger ones keep the peeled correction. Equal to
/// the oracle's ceiling, [`crate::decoder::EXACT_MATCHING_LIMIT`].
pub const LOCAL_EXACT_LIMIT: usize = 14;

/// One recorded spanning-forest edge (endpoints as graph node indices; the
/// second endpoint may be a virtual boundary node).
#[derive(Debug, Clone, Copy)]
struct TreeEdge {
    a: u32,
    b: u32,
}

/// Caller-owned working memory for union-find decoding. All buffers are
/// sized to the graph's node count plus the two boundary nodes; a scratch
/// pre-sized with [`UnionFindScratch::for_graph`] never allocates during
/// [`decode_events`] / [`decode_events_commit`].
#[derive(Debug, Clone, Default)]
pub struct UnionFindScratch {
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Per-root defect parity of the cluster.
    parity: Vec<bool>,
    /// Per-root boundary-contact flag (absorbed clusters stop growing).
    boundary: Vec<bool>,
    /// Per-node defect marks; consumed as the carry during peeling.
    defect: Vec<bool>,
    /// Per-node half-edge support, [`MAX_SLOTS`] slots per node.
    growth: Vec<u8>,
    /// Spanning-forest edges recorded by the unions.
    tree: Vec<TreeEdge>,
    /// CSR offsets / adjacency of the spanning forest (rebuilt per decode).
    edge_off: Vec<u32>,
    edge_adj: Vec<u32>,
    /// Peeling traversal state.
    visited: Vec<bool>,
    order: Vec<u32>,
    parent_node: Vec<u32>,
    stack: Vec<u32>,
    /// Commit component id per node: trees are split at boundary nodes, so
    /// each physically separate cluster commits independently even when
    /// several absorbed the same virtual boundary.
    comp: Vec<u32>,
    /// Per-component (indexed by component id) latest touched round.
    comp_max_round: Vec<u32>,
    /// Per-component committed west-boundary edges (peeled; the group
    /// refinement overrides these through `group_west`).
    comp_west: Vec<u32>,
    /// Event-level union-find over interaction groups.
    ev_parent: Vec<u32>,
    /// `(group representative, component id, event index)` triples, sorted
    /// so each group's events are contiguous (components contiguous within
    /// a group) for the refinement and the fallback sum.
    by_group: Vec<(u32, u32, u32)>,
    /// Per-group (indexed by representative event) west count.
    group_west: Vec<u32>,
    /// Per-group latest round touched by any member component's tree.
    group_max_round: Vec<u32>,
    /// Per-group commit flag for [`decode_events_commit`].
    group_commit: Vec<bool>,
    /// Exact matcher for the group refinement (fixed-size tables); the
    /// decoder's small-block dispatch shares it.
    pub(crate) matcher: Matcher,
}

impl UnionFindScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        UnionFindScratch::default()
    }

    /// A scratch pre-sized for `graph`, so decoding any block on it is
    /// allocation-free.
    pub fn for_graph(graph: &DecodingGraph) -> Self {
        let mut scratch = UnionFindScratch::new();
        scratch.ensure(graph);
        scratch
    }

    /// Grows every buffer to the graph's node count (no-op when already
    /// large enough — the warm path).
    fn ensure(&mut self, graph: &DecodingGraph) {
        let n = graph.n_nodes() + 2;
        if self.parent.len() < n {
            self.parent.resize(n, 0);
            self.size.resize(n, 0);
            self.parity.resize(n, false);
            self.boundary.resize(n, false);
            self.defect.resize(n, false);
            self.growth.resize(graph.n_nodes() * MAX_SLOTS, 0);
            self.visited.resize(n, false);
            self.parent_node.resize(n, NO_NODE);
            self.comp.resize(n, NO_NODE);
            self.comp_max_round.resize(n, 0);
            self.comp_west.resize(n, 0);
            // Every union records ≤ 1 tree edge and each union shrinks the
            // cluster count, so the forest can never exceed n edges.
            self.tree.reserve(n.saturating_sub(self.tree.capacity()));
            self.edge_off.resize(n + 1, 0);
            self.edge_adj.reserve(2 * n);
            self.order.reserve(n.saturating_sub(self.order.capacity()));
            self.stack.reserve(n.saturating_sub(self.stack.capacity()));
            // Event-indexed buffers: a block has at most one event per node.
            self.ev_parent
                .reserve(n.saturating_sub(self.ev_parent.capacity()));
            self.by_group
                .reserve(n.saturating_sub(self.by_group.capacity()));
            self.group_west
                .reserve(n.saturating_sub(self.group_west.capacity()));
            self.group_max_round
                .reserve(n.saturating_sub(self.group_max_round.capacity()));
            self.group_commit
                .reserve(n.saturating_sub(self.group_commit.capacity()));
        }
    }
}

/// Iterative find with path halving.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

/// Decodes a set of detection events on `graph`: grows clusters, peels, and
/// returns the number of west-boundary edges in the correction. The west
/// count's parity is the correction's logical `X` contribution.
pub fn decode_events(
    graph: &DecodingGraph,
    events: &[DetectionEvent],
    scratch: &mut UnionFindScratch,
) -> usize {
    decode_inner(graph, events, scratch);
    let mut west = 0usize;
    for i in 0..events.len() {
        if find(&mut scratch.ev_parent, i as u32) == i as u32 {
            west += scratch.group_west[i] as usize;
        }
    }
    west
}

/// [`decode_events`] with a commit horizon, for sliding-window streaming:
/// interaction groups whose member clusters' spanning trees touch only
/// rounds `≤ horizon_round` are *committed* — their west-edge count is
/// returned — while events belonging to groups that reach past the horizon
/// are appended to `deferred` (preserving input order) for re-decoding once
/// more rounds have arrived. Returns `(committed_west_edges,
/// committed_groups)`.
pub fn decode_events_commit(
    graph: &DecodingGraph,
    events: &[DetectionEvent],
    horizon_round: usize,
    scratch: &mut UnionFindScratch,
    deferred: &mut Vec<DetectionEvent>,
) -> (usize, usize) {
    decode_inner(graph, events, scratch);
    let mut west = 0usize;
    let mut committed = 0usize;
    for i in 0..events.len() {
        if find(&mut scratch.ev_parent, i as u32) == i as u32 {
            let commit = scratch.group_max_round[i] as usize <= horizon_round;
            scratch.group_commit[i] = commit;
            if commit {
                west += scratch.group_west[i] as usize;
                committed += 1;
            }
        }
    }
    for (i, ev) in events.iter().enumerate() {
        let rep = find(&mut scratch.ev_parent, i as u32);
        if !scratch.group_commit[rep as usize] {
            deferred.push(*ev);
        }
    }
    (west, committed)
}

/// Cluster growth + peeling; fills the scratch's per-component west counts
/// and max-round table.
fn decode_inner(graph: &DecodingGraph, events: &[DetectionEvent], scratch: &mut UnionFindScratch) {
    scratch.ensure(graph);
    let n_nodes = graph.n_nodes();
    let n_stabs = graph.n_stabs();
    let west_node = graph.west_node() as u32;
    let east_node = graph.east_node() as u32;
    let total = n_nodes + 2;

    // Reset (O(n_nodes); a few KiB of writes even at d = 11).
    for i in 0..total {
        scratch.parent[i] = i as u32;
    }
    scratch.size[..total].fill(1);
    // Boundary nodes effectively never lose a union-by-size, so they stay
    // roots and `find` of any absorbed cluster lands on them.
    scratch.size[west_node as usize] = u32::MAX / 2;
    scratch.size[east_node as usize] = u32::MAX / 2;
    scratch.parity[..total].fill(false);
    scratch.boundary[..total].fill(false);
    scratch.boundary[west_node as usize] = true;
    scratch.boundary[east_node as usize] = true;
    scratch.defect[..total].fill(false);
    scratch.growth[..n_nodes * MAX_SLOTS].fill(0);
    scratch.tree.clear();

    let mut active = 0usize;
    for ev in events {
        assert!(
            ev.round < graph.layers() && ev.stab < n_stabs,
            "event ({}, {}) outside graph ({} stabs, {} layers)",
            ev.stab,
            ev.round,
            n_stabs,
            graph.layers()
        );
        let node = graph.node(ev.stab, ev.round);
        debug_assert!(!scratch.defect[node], "duplicate detection event");
        scratch.defect[node] = true;
        scratch.parity[node] = true;
        active += 1;
    }

    // Synchronous growth rounds. Any odd cluster reaches a boundary within
    // the graph diameter, so growth terminates well inside this bound.
    let max_growth_rounds = 2 * (graph.layers() + graph.distance() + 2);
    let mut growth_rounds = 0usize;
    while active > 0 {
        growth_rounds += 1;
        assert!(
            growth_rounds <= max_growth_rounds,
            "union-find growth failed to terminate"
        );
        for u in 0..n_nodes {
            let root = find(&mut scratch.parent, u as u32);
            if !scratch.parity[root as usize] || scratch.boundary[root as usize] {
                continue;
            }
            grow_node(graph, scratch, u, west_node, east_node);
        }
        // Recount active clusters (roots with odd parity, no boundary).
        active = 0;
        for u in 0..n_nodes {
            let root = find(&mut scratch.parent, u as u32) as usize;
            if root == u && scratch.parity[root] && !scratch.boundary[root] {
                active += 1;
            }
        }
    }

    peel(graph, scratch);
    refine_groups(graph, events, scratch);
}

/// Interaction radius: events within this graph distance of each other are
/// refined jointly. A defect's independent boundary resolution costs at
/// most `min(dist_west, dist_east) ≤ (d + 1) / 2`, so a direct pairing can
/// only tie or beat two independent resolutions when the pair is at most
/// `d + 1` apart — beyond the radius, per-group refinement loses nothing.
pub(crate) fn interaction_radius(graph: &DecodingGraph) -> usize {
    graph.distance() + 1
}

/// Links events into interaction groups (same grown cluster, or within the
/// interaction radius) and replaces each small group's peeled west count
/// with the blossom matcher's canonical matching over the group's events:
/// minimum total cost first, minimum west count among co-optimal matchings
/// second — exactly the oracle's tie-break, so union-find agrees with the
/// exact matcher whenever the optimal matching does not pair defects across
/// groups (which the radius makes strictly suboptimal). Fills the
/// per-event-group tables (`ev_parent`, `group_west`, `group_max_round`)
/// that [`decode_events`] / [`decode_events_commit`] read.
fn refine_groups(graph: &DecodingGraph, events: &[DetectionEvent], scratch: &mut UnionFindScratch) {
    let k = events.len();
    scratch.ev_parent.clear();
    scratch.ev_parent.extend(0..k as u32);
    scratch.group_west.clear();
    scratch.group_west.resize(k, 0);
    scratch.group_max_round.clear();
    scratch.group_max_round.resize(k, 0);
    scratch.group_commit.clear();
    scratch.group_commit.resize(k, false);
    if k == 0 {
        return;
    }

    // Link events of the same grown cluster, and events within the
    // interaction radius of each other. O(k²) with an early temporal
    // reject; blocks carry at most one event per space-time node, so k
    // stays small at any operating point worth decoding.
    let radius = interaction_radius(graph);
    scratch.by_group.clear();
    for (i, ev) in events.iter().enumerate() {
        let node = graph.node(ev.stab, ev.round);
        let c = scratch.comp[node];
        debug_assert_ne!(c, NO_NODE, "defect node missing from the forest");
        scratch.by_group.push((c, i as u32, 0));
    }
    // Same component ⇒ same group: sort by component, union neighbours.
    scratch.by_group.sort_unstable();
    for w in 0..k - 1 {
        let (ca, a, _) = scratch.by_group[w];
        let (cb, b, _) = scratch.by_group[w + 1];
        if ca == cb {
            union_events(&mut scratch.ev_parent, a, b);
        }
    }
    for i in 0..k {
        for j in i + 1..k {
            let (ea, eb) = (&events[i], &events[j]);
            if ea.round.abs_diff(eb.round) > radius {
                continue;
            }
            let dist = graph.stab_distance(ea.stab, eb.stab) + ea.round.abs_diff(eb.round);
            if dist <= radius {
                union_events(&mut scratch.ev_parent, i as u32, j as u32);
            }
        }
    }

    // Regroup as (representative, component, event) so each group's events
    // are contiguous, with its components contiguous inside it.
    for w in 0..k {
        let (c, i, _) = scratch.by_group[w];
        let rep = find(&mut scratch.ev_parent, i);
        scratch.by_group[w] = (rep, c, i);
    }
    // In-place unstable sort: no allocation on the warm path. The event
    // index tie-key only orders within one component; the matcher below is
    // canonical over the event *set*, so input order cannot leak into the
    // west count.
    scratch.by_group.sort_unstable();

    let UnionFindScratch {
        by_group,
        matcher,
        comp_west,
        comp_max_round,
        group_west,
        group_max_round,
        ..
    } = scratch;
    let mut i = 0usize;
    while i < k {
        let rep = by_group[i].0;
        let mut j = i + 1;
        while j < k && by_group[j].0 == rep {
            j += 1;
        }
        let mut max_round = 0u32;
        let mut fallback_west = 0u32;
        let mut prev_comp = NO_NODE;
        for &(_, c, _) in &by_group[i..j] {
            if comp_max_round[c as usize] > max_round {
                max_round = comp_max_round[c as usize];
            }
            if c != prev_comp {
                fallback_west += comp_west[c as usize];
                prev_comp = c;
            }
        }
        group_max_round[rep as usize] = max_round;
        group_west[rep as usize] = if j - i <= LOCAL_EXACT_LIMIT {
            let group = by_group[i..j].iter().map(|&(_, _, e)| events[e as usize]);
            matcher.canonical_west(graph, group) as u32
        } else {
            fallback_west
        };
        i = j;
    }
}

/// Union for the event-level interaction grouping (smaller index wins; the
/// decode only ever reads per-group aggregates, so representative identity
/// never leaks into the outcome).
fn union_events(parent: &mut [u32], a: u32, b: u32) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra == rb {
        return;
    }
    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
    parent[hi as usize] = lo;
}

/// Adds half-step support to every unsaturated half-edge of node `u`,
/// merging clusters whose connecting edge fills.
fn grow_node(
    graph: &DecodingGraph,
    scratch: &mut UnionFindScratch,
    u: usize,
    west_node: u32,
    east_node: u32,
) {
    let n_stabs = graph.n_stabs();
    let s = u % n_stabs;
    let round = u / n_stabs;
    let base = u * MAX_SLOTS;

    // Temporal down (slot 0) ↔ neighbour's slot 1.
    if round > 0 {
        let v = u - n_stabs;
        grow_half(scratch, u, base, 0, v, v * MAX_SLOTS + 1);
    }
    // Temporal up (slot 1) ↔ neighbour's slot 0.
    if round + 1 < graph.layers() {
        let v = u + n_stabs;
        grow_half(scratch, u, base, 1, v, v * MAX_SLOTS);
    }
    // Boundary edges: the virtual side contributes nothing, so the edge is
    // full when this node's half alone reaches the weight.
    if graph.has_west_edge(s) {
        grow_boundary_half(scratch, u, base, 2, west_node);
    }
    if graph.has_east_edge(s) {
        grow_boundary_half(scratch, u, base, 3, east_node);
    }
    for (k, nb) in graph.spatial(s).iter().enumerate() {
        let v = round * n_stabs + nb.stab as usize;
        grow_half(
            scratch,
            u,
            base,
            SPATIAL_SLOT0 + k,
            v,
            v * MAX_SLOTS + nb.rev_slot as usize,
        );
    }
}

/// Grows `u`'s half of the edge to real node `v`; unions when full.
fn grow_half(
    scratch: &mut UnionFindScratch,
    u: usize,
    base: usize,
    slot: usize,
    v: usize,
    rev_idx: usize,
) {
    let mine = scratch.growth[base + slot];
    let theirs = scratch.growth[rev_idx];
    if mine + theirs >= EDGE_WEIGHT {
        return;
    }
    scratch.growth[base + slot] = mine + 1;
    if mine + 1 + theirs >= EDGE_WEIGHT {
        union_nodes(scratch, u as u32, v as u32);
    }
}

/// Grows `u`'s half of a boundary edge; unions with the boundary when full.
fn grow_boundary_half(
    scratch: &mut UnionFindScratch,
    u: usize,
    base: usize,
    slot: usize,
    boundary: u32,
) {
    let mine = scratch.growth[base + slot];
    if mine >= EDGE_WEIGHT {
        return;
    }
    scratch.growth[base + slot] = mine + 1;
    if mine + 1 >= EDGE_WEIGHT {
        union_nodes(scratch, u as u32, boundary);
    }
}

/// Union by size with parity/boundary merge; records the spanning-forest
/// edge when the endpoints were in different clusters.
fn union_nodes(scratch: &mut UnionFindScratch, a: u32, b: u32) {
    let ra = find(&mut scratch.parent, a);
    let rb = find(&mut scratch.parent, b);
    if ra == rb {
        return;
    }
    let (winner, loser) = if scratch.size[ra as usize] >= scratch.size[rb as usize] {
        (ra, rb)
    } else {
        (rb, ra)
    };
    scratch.parent[loser as usize] = winner;
    scratch.size[winner as usize] =
        scratch.size[winner as usize].saturating_add(scratch.size[loser as usize]);
    let merged_parity = scratch.parity[ra as usize] ^ scratch.parity[rb as usize];
    let merged_boundary = scratch.boundary[ra as usize] | scratch.boundary[rb as usize];
    scratch.parity[winner as usize] = merged_parity;
    scratch.boundary[winner as usize] = merged_boundary;
    scratch.tree.push(TreeEdge { a, b });
}

/// Peels the spanning forest: roots every tree at its boundary node (west
/// preferred), walks bottom-up, and routes each odd defect parity along its
/// parent edge. Fills `comp`, `comp_west`, and `comp_max_round`.
fn peel(graph: &DecodingGraph, scratch: &mut UnionFindScratch) {
    let n_nodes = graph.n_nodes();
    let total = n_nodes + 2;
    let west_node = graph.west_node() as u32;

    // Forest CSR.
    scratch.edge_off[..total + 1].fill(0);
    for &TreeEdge { a, b } in &scratch.tree {
        scratch.edge_off[a as usize + 1] += 1;
        scratch.edge_off[b as usize + 1] += 1;
    }
    for i in 0..total {
        scratch.edge_off[i + 1] += scratch.edge_off[i];
    }
    scratch.edge_adj.clear();
    scratch.edge_adj.resize(2 * scratch.tree.len(), 0);
    {
        // `edge_off` doubles as the running insert cursor; it is restored to
        // offsets by the reverse sweep below.
        let tree = &scratch.tree;
        for &TreeEdge { a, b } in tree {
            let ia = scratch.edge_off[a as usize];
            scratch.edge_adj[ia as usize] = b;
            scratch.edge_off[a as usize] += 1;
            let ib = scratch.edge_off[b as usize];
            scratch.edge_adj[ib as usize] = a;
            scratch.edge_off[b as usize] += 1;
        }
        for i in (1..=total).rev() {
            scratch.edge_off[i] = scratch.edge_off[i - 1];
        }
        scratch.edge_off[0] = 0;
    }

    scratch.visited[..total].fill(false);
    scratch.comp[..total].fill(NO_NODE);
    scratch.comp_max_round[..total].fill(0);
    scratch.comp_west[..total].fill(0);
    scratch.order.clear();

    // Traversal roots: the west boundary first, then east, then the first
    // endpoint (in recorded-edge order) of any interior tree.
    traverse(graph, scratch, west_node);
    traverse(graph, scratch, graph.east_node() as u32);
    for i in 0..scratch.tree.len() {
        let TreeEdge { a, b } = scratch.tree[i];
        if !scratch.visited[a as usize] {
            traverse(graph, scratch, a);
        }
        if !scratch.visited[b as usize] {
            traverse(graph, scratch, b);
        }
    }

    // Bottom-up sweep (children precede parents in reverse visit order):
    // odd parity routes along the parent edge; boundary nodes absorb.
    for idx in (0..scratch.order.len()).rev() {
        let u = scratch.order[idx] as usize;
        if u >= n_nodes {
            // A boundary node (as root, or east interior to a west-rooted
            // tree) absorbs every parity that reaches it.
            continue;
        }
        let p = scratch.parent_node[u];
        if p == NO_NODE {
            // Interior root of an even cluster: all defects below cancelled.
            debug_assert!(!scratch.defect[u], "odd cluster without boundary");
            continue;
        }
        if scratch.defect[u] {
            scratch.defect[u] = false;
            scratch.defect[p as usize] ^= true;
            if p == west_node {
                let c = scratch.comp[u];
                scratch.comp_west[c as usize] += 1;
            }
        }
    }
}

/// Depth-first traversal from `root`, assigning visit order, parent links,
/// and commit component ids (new component at every child of a boundary
/// node).
fn traverse(graph: &DecodingGraph, scratch: &mut UnionFindScratch, root: u32) {
    let n_nodes = graph.n_nodes();
    if scratch.visited[root as usize] {
        return;
    }
    // Skip boundary roots with no incident tree edges.
    let off = |s: &UnionFindScratch, x: u32| {
        (
            s.edge_off[x as usize] as usize,
            s.edge_off[x as usize + 1] as usize,
        )
    };
    let (rs, re) = off(scratch, root);
    if rs == re && (root as usize) >= n_nodes {
        return;
    }
    scratch.visited[root as usize] = true;
    scratch.parent_node[root as usize] = NO_NODE;
    if (root as usize) < n_nodes {
        scratch.comp[root as usize] = root;
        let r = graph.round_of(root as usize) as u32;
        scratch.comp_max_round[root as usize] = r;
    }
    scratch.order.push(root);
    scratch.stack.clear();
    scratch.stack.push(root);
    while let Some(u) = scratch.stack.pop() {
        let (s0, s1) = off(scratch, u);
        for i in s0..s1 {
            let v = scratch.edge_adj[i];
            if scratch.visited[v as usize] {
                continue;
            }
            scratch.visited[v as usize] = true;
            scratch.parent_node[v as usize] = u;
            if (v as usize) < n_nodes {
                // Trees split at boundary nodes: a child of a boundary node
                // starts its own commit component.
                let c = if (u as usize) >= n_nodes {
                    v
                } else {
                    scratch.comp[u as usize]
                };
                scratch.comp[v as usize] = c;
                let r = graph.round_of(v as usize) as u32;
                if scratch.comp_max_round[c as usize] < r {
                    scratch.comp_max_round[c as usize] = r;
                }
            }
            scratch.order.push(v);
            scratch.stack.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RotatedSurfaceCode;

    fn ev(stab: usize, round: usize) -> DetectionEvent {
        DetectionEvent { stab, round }
    }

    #[test]
    fn no_events_no_correction() {
        let code = RotatedSurfaceCode::new(3);
        let graph = DecodingGraph::new(&code, 3);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        assert_eq!(decode_events(&graph, &[], &mut scratch), 0);
    }

    #[test]
    fn time_like_pair_matches_vertically() {
        // A measurement flip makes two events on the same stabilizer in
        // consecutive rounds; the cluster is even once merged, no boundary.
        let code = RotatedSurfaceCode::new(5);
        let graph = DecodingGraph::new(&code, 5);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        for s in 0..code.n_stabilizers() {
            let west = decode_events(&graph, &[ev(s, 1), ev(s, 2)], &mut scratch);
            assert_eq!(west, 0, "stab {s}: vertical pair must not touch west");
        }
    }

    #[test]
    fn single_event_next_to_west_boundary_matches_west() {
        let code = RotatedSurfaceCode::new(5);
        let graph = DecodingGraph::new(&code, 5);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        for s in 0..code.n_stabilizers() {
            if !graph.has_west_edge(s) || graph.has_east_edge(s) {
                continue;
            }
            let west = decode_events(&graph, &[ev(s, 0)], &mut scratch);
            assert_eq!(west % 2, 1, "stab {s} should exit west");
        }
    }

    #[test]
    fn decode_is_order_independent() {
        let code = RotatedSurfaceCode::new(5);
        let graph = DecodingGraph::new(&code, 5);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        let events = [ev(0, 0), ev(3, 1), ev(7, 2), ev(2, 4), ev(9, 3), ev(1, 5)];
        let base = decode_events(&graph, &events, &mut scratch);
        let mut perm = events;
        perm.reverse();
        assert_eq!(decode_events(&graph, &perm, &mut scratch), base);
        perm.swap(0, 3);
        perm.swap(1, 4);
        assert_eq!(decode_events(&graph, &perm, &mut scratch), base);
    }

    #[test]
    fn commit_splits_early_and_late_clusters() {
        let code = RotatedSurfaceCode::new(5);
        let rounds = 12;
        let graph = DecodingGraph::new(&code, rounds);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        // An early vertical pair and a late one, far apart in time.
        let events = [ev(4, 0), ev(4, 1), ev(6, 10), ev(6, 11)];
        let mut deferred = Vec::new();
        let (west, committed) =
            decode_events_commit(&graph, &events, 4, &mut scratch, &mut deferred);
        assert_eq!(west, 0);
        assert_eq!(committed, 1, "early cluster commits");
        assert_eq!(deferred.len(), 2, "late cluster defers");
        assert!(deferred.iter().all(|e| e.round >= 10));
        // Committing everything matches the whole decode.
        deferred.clear();
        let (west_all, committed_all) =
            decode_events_commit(&graph, &events, rounds, &mut scratch, &mut deferred);
        assert_eq!(west_all, decode_events(&graph, &events, &mut scratch));
        assert_eq!(committed_all, 2);
        assert!(deferred.is_empty());
    }

    #[test]
    fn warm_scratch_handles_larger_then_smaller_blocks() {
        let code = RotatedSurfaceCode::new(7);
        let big = DecodingGraph::new(&code, 10);
        let small = DecodingGraph::new(&code, 3);
        let mut scratch = UnionFindScratch::for_graph(&big);
        let a = decode_events(&big, &[ev(0, 9), ev(0, 10)], &mut scratch);
        assert_eq!(a, 0);
        let b = decode_events(&small, &[ev(0, 2), ev(0, 3)], &mut scratch);
        assert_eq!(b, 0);
    }
}
