//! Static communication graphs for the mobile telephone model.
//!
//! The model abstracts physical proximity as an undirected graph: nodes can
//! only scan advertisements of, and connect to, their graph neighbors. The
//! builders here cover the standard analysis topologies — line, ring, grid,
//! complete — plus random geometric graphs, the usual stand-in for devices
//! scattered in space with a fixed radio range.
//!
//! Adjacency is stored in **CSR form** (one flat edge array plus per-node
//! offsets) rather than a `Vec` of per-node `Vec`s: a scan over a node's
//! neighbors is a contiguous slice read, the whole graph is two
//! allocations, and a round-loop sweep over all nodes walks the edge array
//! linearly — the layout the engine's sharded hot path is built around.

use crate::{NodeId, Rng};

/// Read access to an undirected graph over dense node ids, with sorted
/// per-node neighbor slices.
///
/// Both the static [`Topology`] and the mutable
/// [`DynamicTopology`](crate::DynamicTopology) implement this view, so the
/// matching resolvers — and anything else that only *reads* adjacency —
/// run unchanged over a frozen graph or one mutating under churn. For a
/// dynamic graph the view exposes the **currently active** edges: both
/// endpoints alive and the edge not faded out.
pub trait GraphView {
    /// Number of nodes (alive or not) in the graph.
    fn num_nodes(&self) -> usize;

    /// Sorted neighbors of `node` visible through this view.
    fn neighbors(&self, node: NodeId) -> &[NodeId];

    /// Are `u` and `v` adjacent through this view?
    fn are_neighbors(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }
}

/// A uniform bucket grid over the unit square: cells of edge length
/// `>= radius` so that all points within `radius` of a query point lie in
/// a bounded window of cells around it. This is what makes RGG
/// construction and mobility re-derivation `O(local density)` instead of
/// a full `O(n)` scan per node.
#[derive(Clone, Debug)]
struct SpatialGrid {
    /// Cells per side.
    dims: usize,
    /// How many cells a radius spans (the query window half-width).
    reach: usize,
    /// `dims × dims` buckets of node ids, row-major.
    buckets: Vec<Vec<u32>>,
}

impl SpatialGrid {
    fn new(positions: &[(f64, f64)], radius: f64) -> Self {
        let n = positions.len();
        // Cell edge ~ radius, but never more buckets than ~n so sparse
        // point sets with tiny radii do not allocate absurd grids.
        let max_dims = (n as f64).sqrt().ceil().max(1.0) as usize;
        let dims = ((1.0 / radius).floor() as usize).clamp(1, max_dims);
        let reach = (radius * dims as f64).ceil().max(1.0) as usize;
        let mut grid = SpatialGrid {
            dims,
            reach,
            buckets: vec![Vec::new(); dims * dims],
        };
        for (i, &p) in positions.iter().enumerate() {
            let b = grid.bucket_of(p);
            grid.buckets[b].push(i as u32);
        }
        grid
    }

    #[inline]
    fn axis_cell(&self, coord: f64) -> usize {
        ((coord * self.dims as f64) as usize).min(self.dims - 1)
    }

    #[inline]
    fn bucket_of(&self, (x, y): (f64, f64)) -> usize {
        self.axis_cell(y) * self.dims + self.axis_cell(x)
    }

    fn remove(&mut self, pos: (f64, f64), id: u32) {
        let b = self.bucket_of(pos);
        let bucket = &mut self.buckets[b];
        let at = bucket
            .iter()
            .position(|&v| v == id)
            .expect("node must be bucketed at its recorded position");
        bucket.swap_remove(at);
    }

    fn insert(&mut self, pos: (f64, f64), id: u32) {
        let b = self.bucket_of(pos);
        self.buckets[b].push(id);
    }

    /// The buckets within `reach` cells of `pos`: one run of adjacent
    /// buckets per grid row the window spans.
    fn window(&self, pos: (f64, f64)) -> impl Iterator<Item = &[Vec<u32>]> + '_ {
        let (cx, cy) = (self.axis_cell(pos.0), self.axis_cell(pos.1));
        let (x0, x1) = (
            cx.saturating_sub(self.reach),
            (cx + self.reach).min(self.dims - 1),
        );
        let (y0, y1) = (
            cy.saturating_sub(self.reach),
            (cy + self.reach).min(self.dims - 1),
        );
        (y0..=y1).map(move |y| &self.buckets[y * self.dims + x0..=y * self.dims + x1])
    }
}

/// The point set and connection radius behind a random geometric graph,
/// for consumers that need the embedding itself — e.g. waypoint mobility
/// models that move nodes and re-derive radius-based edges.
///
/// The geometry maintains an internal uniform bucket grid over the points, so
/// neighbor re-derivation queries only nearby cells; positions therefore
/// change through [`move_to`](Self::move_to) (which keeps the index
/// consistent) rather than by direct field access.
#[derive(Clone, Debug)]
pub struct RggGeometry {
    /// Node positions in the unit square, indexed by node id.
    positions: Vec<(f64, f64)>,
    /// Connection radius: nodes within this distance are adjacent.
    radius: f64,
    grid: SpatialGrid,
}

impl RggGeometry {
    /// Index `positions` under connection radius `radius`.
    pub fn new(positions: Vec<(f64, f64)>, radius: f64) -> Self {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "connection radius must be positive"
        );
        let grid = SpatialGrid::new(&positions, radius);
        RggGeometry {
            positions,
            radius,
            grid,
        }
    }

    /// The adaptive builder's starting radius: the connectivity threshold
    /// `sqrt(2 ln n / n)`, or 1 below two nodes.
    pub fn threshold_radius(n: usize) -> f64 {
        if n > 1 {
            (2.0 * (n as f64).ln() / n as f64).sqrt()
        } else {
            1.0
        }
    }

    /// Expected adjacency entries of `n` uniform points at `radius`:
    /// `n · min(n − 1, π r² n)`, saturating. Points near the border have
    /// fewer neighbours, so the count a build produces is at most about
    /// this.
    pub fn expected_entries(n: usize, radius: f64) -> usize {
        let degree = (std::f64::consts::PI * radius * radius * n as f64)
            .min(n.saturating_sub(1) as f64)
            .ceil() as usize;
        n.saturating_mul(degree)
    }

    /// Number of embedded nodes.
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// All node positions, indexed by node id.
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    /// Current position of `node`.
    #[inline]
    pub fn position(&self, node: NodeId) -> (f64, f64) {
        self.positions[node.index()]
    }

    /// The connection radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Move `node` to `pos`, keeping the spatial index consistent.
    pub fn move_to(&mut self, node: NodeId, pos: (f64, f64)) {
        let old = self.positions[node.index()];
        self.grid.remove(old, node.0);
        self.positions[node.index()] = pos;
        self.grid.insert(pos, node.0);
    }

    /// Change the connection radius, re-bucketing the same points.
    fn regrid(&mut self, radius: f64) {
        self.radius = radius;
        self.grid = SpatialGrid::new(&self.positions, radius);
    }

    /// Sorted ids of every node within `radius` of `node`'s position
    /// (excluding `node` itself), against the current positions. Queries
    /// only the grid cells a radius can span, so the cost scales with
    /// local density, not `n`.
    pub fn neighbors_of(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.gather_row(node.0, &mut out);
        out
    }

    /// The row kernel behind both the built graph and
    /// [`neighbors_of`](Self::neighbors_of): append `node`'s radius
    /// neighbours to `out`, then sort the appended run. Branch-free: `out`
    /// grows by the whole window, every candidate is stored and the length
    /// advances only past a keeper, then `out` is cut back to the keepers.
    fn gather_row(&self, node: u32, out: &mut Vec<NodeId>) {
        let start = out.len();
        let p @ (x, y) = self.positions[node as usize];
        let window: usize = self.grid.window(p).flatten().map(Vec::len).sum();
        out.resize(start + window, NodeId(0));
        let row = &mut out[start..];
        let r2 = self.radius * self.radius;
        let mut len = 0;
        for buckets in self.grid.window(p) {
            for bucket in buckets {
                for &v in bucket {
                    let (px, py) = self.positions[v as usize];
                    let (dx, dy) = (x - px, y - py);
                    row[len] = NodeId(v);
                    len += usize::from((dx * dx + dy * dy <= r2) & (v != node));
                }
            }
        }
        out.truncate(start + len);
        out[start..].sort_unstable();
    }

    /// The radius graph over the current positions, one gathered row per
    /// node.
    fn graph(&self) -> Topology {
        let n = self.num_nodes();
        // A row is gathered a whole window at a time before it is cut
        // back: `n` spare entries cover the widest window, so the edge
        // array is not regrown near its end.
        let capacity = Self::expected_entries(n, self.radius).saturating_add(n);
        Topology::from_rows("rgg", n, capacity, |u, row| self.gather_row(u, row))
    }
}

/// An undirected graph over nodes `0..num_nodes()` in CSR layout: one flat
/// sorted edge array plus `u32` offsets, giving cache-friendly contiguous
/// neighbor slices and `O(log degree)` membership checks with exactly two
/// heap allocations for the whole graph.
#[derive(Clone, Debug)]
pub struct Topology {
    /// `offsets[u]..offsets[u+1]` indexes `u`'s neighbors in `edges`.
    pub(crate) offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists.
    pub(crate) edges: Vec<NodeId>,
    name: String,
}

impl Topology {
    /// The row builder every family goes through: `row(u, edges)` appends
    /// `u`'s sorted, duplicate-free neighbours to `edges`, for `u` in id
    /// order. `capacity` is the expected entry count.
    ///
    /// Offsets are `u32`, so the graph must hold fewer than `u32::MAX`
    /// entries. No CLI input reaches that: the scenario builder refuses
    /// any topology whose expected adjacency exceeds its word budget.
    fn from_rows(
        name: &str,
        n: usize,
        capacity: usize,
        mut row: impl FnMut(u32, &mut Vec<NodeId>),
    ) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut edges = Vec::with_capacity(capacity);
        for u in 0..n as u32 {
            row(u, &mut edges);
            offsets.push(u32::try_from(edges.len()).expect("edge count overflows u32 CSR offsets"));
        }
        Topology {
            offsets,
            edges,
            name: name.to_string(),
        }
    }

    /// Build a topology from an undirected edge list. Self-loops and
    /// duplicate edges are ignored.
    ///
    /// Counts each node's degree, prefix-sums the counts into offsets,
    /// scatters both directions of every edge into its rows, then sorts
    /// and dedups each row in place.
    ///
    /// # Panics
    ///
    /// If an edge names a node `>= n`, or the list holds `u32::MAX` or
    /// more non-loop entries counted both ways (the `u32` offsets' range).
    /// Both are caller bugs: no CLI input builds a topology from an edge
    /// list, and the scenario builder bounds every family's adjacency far
    /// below that range.
    pub fn from_edges(name: &str, n: usize, edges: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0u32; n + 1];
        let mut entries = 0usize;
        for &(u, v) in edges {
            let (ui, vi) = (u as usize, v as usize);
            assert!(ui < n && vi < n, "edge ({u},{v}) out of range for n={n}");
            if ui != vi {
                offsets[ui + 1] += 1;
                offsets[vi + 1] += 1;
                entries += 2;
            }
        }
        assert!(
            entries < u32::MAX as usize,
            "edge count overflows u32 CSR offsets"
        );
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // `next[u]` is the first unfilled slot of `u`'s row.
        let mut next = offsets[..n].to_vec();
        let mut adj = vec![NodeId(0); entries];
        for &(u, v) in edges {
            if u != v {
                for (from, to) in [(u, v), (v, u)] {
                    let slot = &mut next[from as usize];
                    adj[*slot as usize] = NodeId(to);
                    *slot += 1;
                }
            }
        }
        // Sort each row, then keep its distinct ids, packed leftwards.
        let (mut kept, mut start) = (0, 0);
        for u in 0..n {
            let end = offsets[u + 1] as usize;
            adj[start..end].sort_unstable();
            offsets[u] = kept as u32;
            let row_start = kept;
            for i in start..end {
                if kept == row_start || adj[kept - 1] != adj[i] {
                    adj[kept] = adj[i];
                    kept += 1;
                }
            }
            start = end;
        }
        offsets[n] = kept as u32;
        adj.truncate(kept);
        Topology {
            offsets,
            edges: adj,
            name: name.to_string(),
        }
    }

    /// Path graph: `0 — 1 — … — n-1`.
    pub fn line(n: usize) -> Self {
        Self::from_rows("line", n, 2 * n.saturating_sub(1), |u, row| {
            if u > 0 {
                row.push(NodeId(u - 1));
            }
            if u as usize + 1 < n {
                row.push(NodeId(u + 1));
            }
        })
    }

    /// Cycle graph: the line plus the wrap-around edge `n-1 — 0`.
    pub fn ring(n: usize) -> Self {
        // Below three nodes the wrap-around edge would repeat the line's
        // only edge, or be a self-loop.
        if n < 3 {
            return Topology {
                name: "ring".to_string(),
                ..Self::line(n)
            };
        }
        let last = n as u32 - 1;
        Self::from_rows("ring", n, 2 * n, |u, row| {
            let prev = if u == 0 { last } else { u - 1 };
            let next = if u == last { 0 } else { u + 1 };
            row.extend([NodeId(prev.min(next)), NodeId(prev.max(next))]);
        })
    }

    /// Near-square 4-neighbor lattice over `n` nodes. The grid has
    /// `floor(sqrt(n))` rows; the final row may be partial.
    pub fn grid(n: usize) -> Self {
        let rows = (n as f64).sqrt().floor().max(1.0) as usize;
        let cols = n.div_ceil(rows);
        Self::from_rows("grid", n, 4 * n, |u, row| {
            let i = u as usize;
            let c = i % cols;
            if i >= cols {
                row.push(NodeId((i - cols) as u32));
            }
            if c > 0 {
                row.push(NodeId(u - 1));
            }
            if c + 1 < cols && i + 1 < n {
                row.push(NodeId(u + 1));
            }
            if i + cols < n {
                row.push(NodeId((i + cols) as u32));
            }
        })
    }

    /// Complete graph: every pair of nodes is adjacent.
    pub fn complete(n: usize) -> Self {
        let ids = n as u32;
        Self::from_rows("complete", n, n * n.saturating_sub(1), |u, row| {
            row.extend((0..u).chain(u + 1..ids).map(NodeId));
        })
    }

    /// Random geometric graph: `n` points placed uniformly in the unit
    /// square, adjacent when within the connection radius. The radius starts
    /// at the standard connectivity threshold `sqrt(2 ln n / n)` and grows
    /// until the graph is connected, so the result is always usable for
    /// gossip while staying sparse. Deterministic in `rng`.
    ///
    /// The canonical name of the resulting topology is `"rgg"`.
    pub fn random_geometric(n: usize, rng: &mut Rng) -> Self {
        Self::random_geometric_with_geometry(n, rng).0
    }

    /// [`random_geometric`](Self::random_geometric), also returning the
    /// point set and final radius so mobility models can move the nodes
    /// and re-derive radius-based edges. Same RNG consumption, same graph.
    ///
    /// Each node's row is gathered from the geometry's spatial grid —
    /// only the points bucketed within a radius of it — sorted, and
    /// appended to the CSR edge array, so a million-node RGG builds in
    /// `O(n · expected degree)` with no intermediate edge list.
    pub fn random_geometric_with_geometry(n: usize, rng: &mut Rng) -> (Self, RggGeometry) {
        let pts = Self::sample_unit_square(n, rng);
        let mut geometry = RggGeometry::new(pts, RggGeometry::threshold_radius(n));
        loop {
            let topo = geometry.graph();
            if topo.is_connected() {
                return (topo, geometry);
            }
            geometry.regrid(geometry.radius * 1.25);
        }
    }

    /// Random geometric graph at an **explicit** connection radius, with
    /// its embedding. Unlike [`random_geometric`](Self::random_geometric),
    /// the radius is taken as given and never grown: a radius below the
    /// connectivity threshold yields a disconnected graph (and a gossip
    /// run that can never complete), which is itself a legitimate
    /// experiment. The point sampling is identical to the adaptive
    /// builder's — the same `rng` state yields the same embedding — and
    /// the topology's canonical name is `"rgg"` either way.
    pub fn random_geometric_fixed_radius(
        n: usize,
        radius: f64,
        rng: &mut Rng,
    ) -> (Self, RggGeometry) {
        let pts = Self::sample_unit_square(n, rng);
        let geometry = RggGeometry::new(pts, radius);
        (geometry.graph(), geometry)
    }

    /// The shared point sampling of both RGG builders: `n` uniform points
    /// in the unit square, two `rng` draws per point.
    fn sample_unit_square(n: usize, rng: &mut Rng) -> Vec<(f64, f64)> {
        (0..n).map(|_| (rng.gen_f64(), rng.gen_f64())).collect()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Builder name ("ring", "grid", …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sorted neighbors of `node`.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let u = node.index();
        &self.edges[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        let u = node.index();
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Are `u` and `v` adjacent?
    pub fn are_neighbors(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Total number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len() / 2
    }

    /// BFS connectivity check. The empty graph counts as connected.
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        let mut visited = 1;
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(NodeId(u as u32)) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    visited += 1;
                    queue.push_back(v.index());
                }
            }
        }
        visited == n
    }
}

impl GraphView for Topology {
    fn num_nodes(&self) -> usize {
        Topology::num_nodes(self)
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        Topology::neighbors(self, node)
    }

    fn are_neighbors(&self, u: NodeId, v: NodeId) -> bool {
        Topology::are_neighbors(self, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_degrees() {
        let t = Topology::line(5);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.degree(NodeId(2)), 2);
        assert_eq!(t.degree(NodeId(4)), 1);
        assert!(t.is_connected());
    }

    #[test]
    fn ring_is_two_regular() {
        let t = Topology::ring(6);
        assert_eq!(t.num_edges(), 6);
        for i in 0..6 {
            assert_eq!(t.degree(NodeId(i)), 2);
        }
        assert!(t.are_neighbors(NodeId(5), NodeId(0)));
    }

    #[test]
    fn tiny_rings_degrade_gracefully() {
        // A 2-ring is just an edge; a 1-ring a lone node.
        assert_eq!(Topology::ring(2).num_edges(), 1);
        assert_eq!(Topology::ring(1).num_edges(), 0);
        assert!(Topology::ring(1).is_connected());
    }

    #[test]
    fn grid_structure() {
        // n=12 -> 3 rows x 4 cols.
        let t = Topology::grid(12);
        assert!(t.is_connected());
        assert_eq!(t.degree(NodeId(0)), 2); // corner
        assert_eq!(t.degree(NodeId(5)), 4); // interior
                                            // Partial last row still connects upward.
        let t = Topology::grid(10);
        assert!(t.is_connected());
    }

    #[test]
    fn complete_graph_edges() {
        let t = Topology::complete(7);
        assert_eq!(t.num_edges(), 21);
        for i in 0..7 {
            assert_eq!(t.degree(NodeId(i)), 6);
        }
    }

    #[test]
    fn random_geometric_is_connected_and_deterministic() {
        let mut rng = Rng::new(42);
        let a = Topology::random_geometric(50, &mut rng);
        assert!(a.is_connected());
        let mut rng = Rng::new(42);
        let b = Topology::random_geometric(50, &mut rng);
        assert_eq!(a.num_edges(), b.num_edges(), "same seed, same graph");
    }

    #[test]
    fn fixed_radius_rgg_shares_the_adaptive_embedding() {
        // Same seed => same points; a generous fixed radius on a small
        // point set must reproduce the adaptive builder's graph when the
        // adaptive builder settles on that same radius.
        let (adaptive, geo) = Topology::random_geometric_with_geometry(60, &mut Rng::new(3));
        let (fixed, fixed_geo) =
            Topology::random_geometric_fixed_radius(60, geo.radius(), &mut Rng::new(3));
        assert_eq!(adaptive.num_edges(), fixed.num_edges());
        assert_eq!(geo.positions(), fixed_geo.positions());
        assert_eq!(adaptive.name(), "rgg");
        assert_eq!(fixed.name(), "rgg");
        // A tiny radius is honored as-is, even though it disconnects.
        let (sparse, _) = Topology::random_geometric_fixed_radius(60, 1e-6, &mut Rng::new(3));
        assert!(!sparse.is_connected());
        assert_eq!(sparse.num_edges(), 0);
    }

    #[test]
    fn disconnected_graph_detected() {
        let t = Topology::from_edges("pair", 4, &[(0, 1), (2, 3)]);
        assert!(!t.is_connected());
    }

    #[test]
    fn csr_layout_is_contiguous_and_sorted() {
        let t = Topology::from_edges("messy", 4, &[(3, 0), (0, 1), (1, 3), (0, 2)]);
        assert_eq!(t.offsets.len(), 5);
        assert_eq!(t.offsets[4] as usize, t.edges.len());
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(t.neighbors(NodeId(3)), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn grid_neighbors_match_brute_force() {
        // The spatial index must reproduce exactly the all-pairs scan it
        // replaced, including points on cell boundaries.
        let mut rng = Rng::new(7);
        let pts: Vec<(f64, f64)> = (0..300).map(|_| (rng.gen_f64(), rng.gen_f64())).collect();
        for &radius in &[0.03, 0.1, 0.5, 1.5] {
            let geo = RggGeometry::new(pts.clone(), radius);
            let r2 = radius * radius;
            for u in 0..300u32 {
                let (x, y) = pts[u as usize];
                let brute: Vec<NodeId> = (0..300u32)
                    .filter(|&v| {
                        v != u && {
                            let (px, py) = pts[v as usize];
                            let (dx, dy) = (x - px, y - py);
                            dx * dx + dy * dy <= r2
                        }
                    })
                    .map(NodeId)
                    .collect();
                assert_eq!(
                    geo.neighbors_of(NodeId(u)),
                    brute,
                    "radius {radius} node {u}"
                );
            }
        }
    }

    #[test]
    fn geometry_moves_keep_the_index_consistent() {
        let mut rng = Rng::new(19);
        let pts: Vec<(f64, f64)> = (0..80).map(|_| (rng.gen_f64(), rng.gen_f64())).collect();
        let mut geo = RggGeometry::new(pts, 0.2);
        for step in 0..200 {
            let node = NodeId((step * 13 % 80) as u32);
            let target = (rng.gen_f64(), rng.gen_f64());
            geo.move_to(node, target);
            assert_eq!(geo.position(node), target);
            // Re-derived neighbors match a brute-force scan of the
            // *current* positions.
            let (x, y) = target;
            let r2 = geo.radius() * geo.radius();
            let brute: Vec<NodeId> = (0..80u32)
                .filter(|&v| {
                    v != node.0 && {
                        let (px, py) = geo.positions()[v as usize];
                        let (dx, dy) = (x - px, y - py);
                        dx * dx + dy * dy <= r2
                    }
                })
                .map(NodeId)
                .collect();
            assert_eq!(geo.neighbors_of(node), brute, "step {step}");
        }
    }
}
