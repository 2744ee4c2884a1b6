//! Property tests for the static topology builders: exact edge counts for
//! the regular families, structural invariants of `from_edges` (symmetry,
//! sortedness, dedup), connectivity across all builders and sizes, and
//! every builder's rows against the sort-and-dedup reference build.

use gossip_core::{NodeId, RggGeometry, Rng, Topology};

/// The reference build: both directions of every non-loop edge as pairs,
/// sorted and deduped globally, then cut into rows. The CSR builders must
/// produce exactly these rows.
fn reference_rows(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<NodeId>> {
    let mut directed: Vec<(u32, u32)> = edges
        .iter()
        .filter(|(u, v)| u != v)
        .flat_map(|&(u, v)| [(u, v), (v, u)])
        .collect();
    directed.sort_unstable();
    directed.dedup();
    let mut rows = vec![Vec::new(); n];
    for (u, v) in directed {
        rows[u as usize].push(NodeId(v));
    }
    rows
}

fn assert_matches_reference(t: &Topology, n: usize, edges: &[(u32, u32)]) {
    assert_eq!(t.num_nodes(), n, "{}", t.name());
    for (u, row) in reference_rows(n, edges).iter().enumerate() {
        assert_eq!(
            t.neighbors(NodeId(u as u32)),
            &row[..],
            "{}({n}) node {u}",
            t.name()
        );
    }
}

/// The edge lists the regular families were once built from.
fn line_edges(n: usize) -> Vec<(u32, u32)> {
    (1..n as u32).map(|v| (v - 1, v)).collect()
}

fn ring_edges(n: usize) -> Vec<(u32, u32)> {
    let mut edges = line_edges(n);
    if n > 2 {
        edges.push((n as u32 - 1, 0));
    }
    edges
}

fn grid_edges(n: usize) -> Vec<(u32, u32)> {
    let rows = (n as f64).sqrt().floor().max(1.0) as usize;
    let cols = n.div_ceil(rows);
    let mut edges = Vec::new();
    for i in 0..n {
        if i % cols + 1 < cols && i + 1 < n {
            edges.push((i as u32, i as u32 + 1));
        }
        if i + cols < n {
            edges.push((i as u32, (i + cols) as u32));
        }
    }
    edges
}

fn complete_edges(n: usize) -> Vec<(u32, u32)> {
    let n = n as u32;
    (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect()
}

/// Every pair within the geometry's radius, by all-pairs scan.
fn radius_edges(geometry: &RggGeometry) -> Vec<(u32, u32)> {
    let (pts, r2) = (geometry.positions(), geometry.radius() * geometry.radius());
    let n = pts.len() as u32;
    (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .filter(|&(u, v)| {
            let ((x, y), (px, py)) = (pts[u as usize], pts[v as usize]);
            let (dx, dy) = (x - px, y - py);
            dx * dx + dy * dy <= r2
        })
        .collect()
}

#[test]
fn regular_families_match_the_reference_build() {
    for n in 0..=80 {
        assert_matches_reference(&Topology::line(n), n, &line_edges(n));
        assert_matches_reference(&Topology::ring(n), n, &ring_edges(n));
        assert_matches_reference(&Topology::grid(n), n, &grid_edges(n));
        assert_matches_reference(&Topology::complete(n), n, &complete_edges(n));
    }
}

#[test]
fn rgg_matches_the_reference_build() {
    let n = 150;
    for seed in 0..8 {
        let mut builds = vec![Topology::random_geometric_with_geometry(
            n,
            &mut Rng::new(seed),
        )];
        for radius in [1e-6, 0.1, 1.5] {
            builds.push(Topology::random_geometric_fixed_radius(
                n,
                radius,
                &mut Rng::new(seed),
            ));
        }
        for (t, geometry) in &builds {
            assert_matches_reference(t, n, &radius_edges(geometry));
        }
    }
}

#[test]
fn from_edges_matches_the_reference_build_on_multigraphs() {
    for seed in 0..40 {
        let mut rng = Rng::new(2000 + seed);
        // Ids are drawn from the first `used` nodes only, so the rest are
        // isolated; a small pool makes parallel and reversed duplicates
        // common, and every fifth edge is a self-loop.
        let n = 1 + rng.gen_range(60);
        let used = 1 + rng.gen_range(n);
        let m = rng.gen_range(4 * n);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|i| {
                let u = rng.gen_range(used) as u32;
                let v = if i % 5 == 0 {
                    u
                } else {
                    rng.gen_range(used) as u32
                };
                (u, v)
            })
            .collect();
        let doubled: Vec<(u32, u32)> = edges.iter().chain(&edges).copied().collect();
        assert_matches_reference(&Topology::from_edges("multi", n, &doubled), n, &edges);
    }
}

/// Every adjacency list is sorted, duplicate-free, self-loop-free, and
/// symmetric (`v ∈ adj[u]` iff `u ∈ adj[v]`).
fn assert_well_formed(t: &Topology) {
    for u in 0..t.num_nodes() {
        let u = NodeId(u as u32);
        let neighbors = t.neighbors(u);
        assert!(
            neighbors.windows(2).all(|w| w[0] < w[1]),
            "{}: neighbors of {u} not strictly sorted (dup or disorder)",
            t.name()
        );
        for &v in neighbors {
            assert_ne!(v, u, "{}: self-loop at {u}", t.name());
            assert!(
                t.are_neighbors(v, u),
                "{}: asymmetric edge {u} -> {v}",
                t.name()
            );
        }
    }
    // Degree sum is even and consistent with the edge count.
    let degree_sum: usize = (0..t.num_nodes()).map(|u| t.degree(NodeId(u as u32))).sum();
    assert_eq!(degree_sum, 2 * t.num_edges(), "{}", t.name());
}

#[test]
fn line_edge_counts_and_connectivity() {
    for n in 1..=40 {
        let t = Topology::line(n);
        assert_eq!(t.num_edges(), n - 1, "line({n})");
        assert!(t.is_connected(), "line({n})");
        assert_well_formed(&t);
    }
}

#[test]
fn ring_edge_counts_and_regularity() {
    for n in 1..=40 {
        let t = Topology::ring(n);
        let expected = match n {
            1 => 0,
            2 => 1,
            n => n,
        };
        assert_eq!(t.num_edges(), expected, "ring({n})");
        assert!(t.is_connected(), "ring({n})");
        assert_well_formed(&t);
        if n >= 3 {
            for u in 0..n {
                assert_eq!(t.degree(NodeId(u as u32)), 2, "ring({n}) node {u}");
            }
        }
    }
}

#[test]
fn grid_edge_counts_match_the_lattice() {
    // Independent count: `rows = floor(sqrt n)`, `cols = ceil(n / rows)`,
    // nodes laid out row-major; horizontal edges join row-adjacent cells,
    // vertical edges join column-adjacent cells.
    for n in 1..=80 {
        let t = Topology::grid(n);
        let rows = (n as f64).sqrt().floor().max(1.0) as usize;
        let cols = n.div_ceil(rows);
        let horizontal = (0..n).filter(|i| i % cols + 1 < cols && i + 1 < n).count();
        let vertical = (0..n).filter(|i| i + cols < n).count();
        assert_eq!(t.num_edges(), horizontal + vertical, "grid({n})");
        assert!(t.is_connected(), "grid({n})");
        assert_well_formed(&t);
        for u in 0..n {
            assert!(t.degree(NodeId(u as u32)) <= 4, "grid({n}) node {u}");
        }
    }
}

#[test]
fn complete_edge_counts() {
    for n in 1..=30 {
        let t = Topology::complete(n);
        assert_eq!(t.num_edges(), n * (n - 1) / 2, "complete({n})");
        assert!(t.is_connected(), "complete({n})");
        assert_well_formed(&t);
    }
}

#[test]
fn random_geometric_is_connected_and_well_formed_across_seeds() {
    for seed in 0..8 {
        let mut rng = Rng::new(seed);
        let t = Topology::random_geometric(40, &mut rng);
        assert!(t.is_connected(), "rgg seed {seed}");
        assert_well_formed(&t);
    }
}

#[test]
fn rgg_geometry_matches_the_graph() {
    // The returned point set and radius must reproduce exactly the edges
    // the builder chose — the contract mobility models depend on.
    let mut rng = Rng::new(17);
    let (t, geometry) = Topology::random_geometric_with_geometry(50, &mut rng);
    assert_eq!(geometry.positions().len(), 50);
    for u in 0..50u32 {
        let derived = geometry.neighbors_of(NodeId(u));
        assert_eq!(
            derived,
            t.neighbors(NodeId(u)).to_vec(),
            "geometry-derived neighbors of {u} diverge from the graph"
        );
    }
}

#[test]
fn from_edges_dedups_and_symmetrizes() {
    // Duplicates (in both orientations) and self-loops collapse away.
    let t = Topology::from_edges(
        "messy",
        5,
        &[(0, 1), (1, 0), (0, 1), (2, 2), (3, 4), (4, 3), (1, 4)],
    );
    assert_eq!(t.num_edges(), 3);
    assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1)]);
    assert_eq!(t.neighbors(NodeId(1)), &[NodeId(0), NodeId(4)]);
    assert_eq!(t.neighbors(NodeId(2)), &[] as &[NodeId]);
    assert_well_formed(&t);
}

#[test]
fn from_edges_random_inputs_stay_well_formed() {
    for seed in 0..10 {
        let mut rng = Rng::new(1000 + seed);
        let n = 2 + rng.gen_range(30);
        let m = rng.gen_range(3 * n);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(n) as u32, rng.gen_range(n) as u32))
            .collect();
        let t = Topology::from_edges("random", n, &edges);
        assert_well_formed(&t);
        // Every requested non-loop edge is present.
        for &(u, v) in &edges {
            if u != v {
                assert!(
                    t.are_neighbors(NodeId(u), NodeId(v)),
                    "seed {seed}: {u}-{v}"
                );
            }
        }
    }
}

#[test]
fn builders_degrade_gracefully_on_empty_graphs() {
    for t in [
        Topology::line(0),
        Topology::ring(0),
        Topology::grid(0),
        Topology::complete(0),
        Topology::from_edges("empty", 0, &[]),
    ] {
        assert_eq!(t.num_nodes(), 0);
        assert_eq!(t.num_edges(), 0);
        assert!(t.is_connected(), "empty graph counts as connected");
    }
}
