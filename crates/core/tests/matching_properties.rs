//! Property-style tests for the connection matching resolvers.
//!
//! Across many seeds, topologies, and intent assignments (both synthetic
//! and generated by the real uniform / advertisement-guided protocols):
//! - no node ever appears in two connections in a round (the model's
//!   one-connection-per-node invariant),
//! - every connection joins a proposer to a listening neighbor,
//! - the matching is maximal over willing pairs: no free proposer is left
//!   adjacent to a free listener — which on complete graphs means the
//!   proposer/listener matching is maximal outright.
//!
//! The serial resolver is the oracle: [`resolve_connections_sharded`] must
//! satisfy exactly the same invariants at every region and thread count,
//! and must be *byte-identical* across thread counts for a fixed region
//! count.

use gossip_core::{
    resolve_connections, resolve_connections_sharded, Connection, Intent, MessageMatrix, NodeId,
    Resolution, Rng, Topology,
};
use gossip_protocols::{NodeCtx, Protocol, Tags};

fn random_intents(topo: &Topology, rng: &mut Rng) -> Vec<Intent> {
    (0..topo.num_nodes())
        .map(|u| {
            let neighbors = topo.neighbors(NodeId(u as u32));
            match rng.gen_range(3) {
                0 if !neighbors.is_empty() => {
                    Intent::Propose(neighbors[rng.gen_range(neighbors.len())])
                }
                1 => Intent::Listen,
                _ => Intent::Idle,
            }
        })
        .collect()
}

/// Intents exactly as the synchronous engine would produce them in one
/// round of `protocol`: random per-node message subsets, a full advertise
/// pass, then a scan/decide pass with per-node streams.
fn protocol_intents(topo: &Topology, protocol: Protocol, seed: u64) -> Vec<Intent> {
    let n = topo.num_nodes();
    let round = 5u64;
    let mut states = MessageMatrix::new(n, 6);
    let mut rng = Rng::new(seed ^ 0x5eed);
    for u in 0..n {
        for m in 0..6 {
            if rng.gen_bool() {
                states.insert(u, m);
            }
        }
    }
    let ads: Vec<_> = (0..n)
        .map(|u| protocol.advertise(states.view(u), round))
        .collect();
    (0..n)
        .map(|u| {
            let id = NodeId(u as u32);
            let ctx = NodeCtx {
                id,
                salt: round,
                messages: states.view(u),
                own_ad: ads[u],
                neighbors: topo.neighbors(id),
                tags: Tags::all(&ads),
            };
            protocol.decide(&ctx, &mut Rng::stream(seed, round, u as u64))
        })
        .collect()
}

/// Assert the three matching invariants on `conns`; returns the matched
/// mask for further checks.
fn check_invariants(
    topo: &Topology,
    intents: &[Intent],
    conns: &[Connection],
    what: &str,
) -> Vec<bool> {
    // Invariant 1: a matching — no node in two connections.
    let mut matched = vec![false; topo.num_nodes()];
    for c in conns {
        for node in [c.initiator, c.acceptor] {
            assert!(
                !matched[node.index()],
                "node {node} appears in two connections ({what})"
            );
            matched[node.index()] = true;
        }
    }

    // Invariant 2: connections respect roles and the topology.
    for c in conns {
        assert!(
            matches!(intents[c.initiator.index()], Intent::Propose(_)),
            "initiator {} did not propose ({what})",
            c.initiator
        );
        assert_eq!(
            intents[c.acceptor.index()],
            Intent::Listen,
            "acceptor {} was not listening ({what})",
            c.acceptor
        );
        assert!(
            topo.are_neighbors(c.initiator, c.acceptor),
            "connection across non-edge ({what})"
        );
    }

    // Invariant 3: maximal over willing pairs — no free proposer adjacent
    // to a free listener.
    for u in 0..topo.num_nodes() {
        let u = NodeId(u as u32);
        if !matches!(intents[u.index()], Intent::Propose(_)) || matched[u.index()] {
            continue;
        }
        for &v in topo.neighbors(u) {
            assert!(
                intents[v.index()] != Intent::Listen || matched[v.index()],
                "free proposer {u} adjacent to free listener {v} ({what})"
            );
        }
    }
    matched
}

fn check_serial(topo: &Topology, intents: &[Intent], seed: u64) {
    let res = resolve_connections(topo, intents, &mut Rng::new(seed));
    check_invariants(topo, intents, &res.connections, &format!("seed {seed}"));
}

#[test]
fn invariants_hold_across_topologies_and_seeds() {
    for seed in 0..30u64 {
        let mut rng = Rng::new(seed);
        let topologies = [
            Topology::line(17),
            Topology::ring(24),
            Topology::grid(25),
            Topology::complete(16),
            Topology::random_geometric(20, &mut rng),
        ];
        for topo in &topologies {
            let intents = random_intents(topo, &mut rng);
            check_serial(topo, &intents, seed.wrapping_mul(31).wrapping_add(7));
        }
    }
}

#[test]
fn sharded_resolver_upholds_the_serial_invariants() {
    // The equivalence property the partitioned resolver is held to: for
    // every topology family × protocol-generated intent distribution ×
    // region count × seed, the parallel matching satisfies the identical
    // invariants as the serial oracle (validity + maximality; invariants,
    // not bytes — the two draw from different streams, so the particular
    // maximal matching may differ).
    let protocols: [Protocol; 2] = [Protocol::Uniform, Protocol::Advert];
    for seed in 0..20u64 {
        let mut topo_rng = Rng::new(seed ^ 0x7090);
        let topologies = [
            Topology::ring(96),
            Topology::grid(100),
            Topology::random_geometric(90, &mut topo_rng),
        ];
        for topo in &topologies {
            for protocol in protocols {
                let intents = protocol_intents(topo, protocol, seed);
                // Oracle first: the serial resolver on the same intents.
                check_serial(topo, &intents, seed);
                for regions in [1usize, 2, 8] {
                    let what = format!(
                        "{} × {} seed {seed} regions {regions}",
                        topo.name(),
                        protocol.name()
                    );
                    let res = resolve_connections_sharded(topo, &intents, seed, 5, regions, 2);
                    check_invariants(topo, &intents, &res.connections, &what);
                    // And byte-identical across thread counts.
                    for threads in [1usize, 8] {
                        let again =
                            resolve_connections_sharded(topo, &intents, seed, 5, regions, threads);
                        assert_eq!(res, again, "{what}: threads={threads} diverged");
                    }
                }
            }
        }
    }
}

#[test]
fn complete_graph_matchings_are_maximal() {
    // On a complete graph every proposer is adjacent to every listener, so
    // maximality over willing pairs means min(free proposers, free
    // listeners) == 0 after resolution — for the sharded resolver too,
    // even though on a complete graph every proposal is a boundary
    // proposal (the sweep resolves them all).
    for seed in 0..50u64 {
        let n = 20;
        let topo = Topology::complete(n);
        let mut rng = Rng::new(seed);
        let intents: Vec<Intent> = (0..n)
            .map(|u| {
                if rng.gen_bool() {
                    // Propose to a random other node.
                    let mut v = rng.gen_range(n - 1);
                    if v >= u {
                        v += 1;
                    }
                    Intent::Propose(NodeId(v as u32))
                } else {
                    Intent::Listen
                }
            })
            .collect();

        let serial = resolve_connections(&topo, &intents, &mut rng).connections;
        let sharded = resolve_connections_sharded(&topo, &intents, seed, 1, 8, 4).connections;
        let proposers = (0..n)
            .filter(|&u| matches!(intents[u], Intent::Propose(_)))
            .count();
        for (conns, which) in [(&serial, "serial"), (&sharded, "sharded")] {
            let matched = check_invariants(&topo, &intents, conns, which);
            let free_proposers = (0..n)
                .filter(|&u| matches!(intents[u], Intent::Propose(_)) && !matched[u])
                .count();
            let free_listeners = (0..n)
                .filter(|&u| intents[u] == Intent::Listen && !matched[u])
                .count();
            assert!(
                free_proposers == 0 || free_listeners == 0,
                "non-maximal {which} matching on complete graph (seed {seed}): \
                 {free_proposers} free proposers, {free_listeners} free listeners"
            );
            // And the number of connections is what maximality dictates:
            // the smaller side of the willing split is fully matched.
            assert_eq!(conns.len(), proposers.min(n - proposers), "{which}");
        }
    }
}

#[test]
fn resolution_is_deterministic_for_a_fixed_seed() {
    let topo = Topology::grid(36);
    let mut rng = Rng::new(99);
    let intents = random_intents(&topo, &mut rng);
    let a = resolve_connections(&topo, &intents, &mut Rng::new(1234));
    let b = resolve_connections(&topo, &intents, &mut Rng::new(1234));
    assert_eq!(a, b);
    let c = resolve_connections_sharded(&topo, &intents, 1234, 9, 8, 3);
    let d = resolve_connections_sharded(&topo, &intents, 1234, 9, 8, 3);
    assert_eq!(c, d);
}

/// The sharded resolver's priority rule at a region edge, pinned. On
/// `line(6)` in two regions (`{0, 1, 2}`, `{3, 4, 5}`), proposers 1
/// (confined: its only listening neighbor is 2) and 3 (boundary: 2 lies
/// across the edge) contest listener 2. Region batches run before the
/// boundary sweep, so node 1 wins on every seed; the serial resolver
/// visits the two proposals in random order, so node 1 wins about half
/// the time there (213 of these 400 seeds; the band is 40–60 %).
#[test]
fn confined_proposers_win_contested_listeners_at_region_edges() {
    let topo = Topology::line(6);
    let mut intents = vec![Intent::Idle; 6];
    intents[1] = Intent::Propose(NodeId(2));
    intents[3] = Intent::Propose(NodeId(2));
    intents[2] = Intent::Listen;
    let winner = |res: &Resolution| {
        assert_eq!(res.connections.len(), 1, "listener 2 takes one proposer");
        res.connections[0].initiator
    };
    let seeds = 0..400u64;
    for seed in seeds.clone() {
        let res = resolve_connections_sharded(&topo, &intents, seed, 1, 2, 1);
        assert_eq!((res.confined_proposals, res.boundary_proposals), (1, 1));
        assert_eq!(winner(&res), NodeId(1), "seed {seed}");
    }
    let serial_wins = seeds
        .filter(|&seed| {
            winner(&resolve_connections(&topo, &intents, &mut Rng::new(seed))) == NodeId(1)
        })
        .count();
    assert!(
        (160..=240).contains(&serial_wins),
        "the serial resolver gave node 1 {serial_wins} of 400 seeds, not about half"
    );
}

/// FNV-1a 64 of `res` folded into `h`: its connections in order, then a
/// zero where a since-removed dropped-proposal count stood (so the pins
/// held across its removal), then the confined and boundary counts.
fn fold(h: &mut u64, res: &Resolution) {
    let ids = res
        .connections
        .iter()
        .flat_map(|c| [c.initiator.0, c.acceptor.0])
        .map(u64::from);
    let counts = [
        res.connections.len() as u64,
        0,
        res.confined_proposals,
        res.boundary_proposals,
    ];
    for word in ids.chain(counts) {
        for byte in word.to_le_bytes() {
            *h = (*h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Fold every resolution of `intents` the pins cover: the serial resolver,
/// then the sharded one at 1, 3 and 64 regions.
fn fold_resolutions(h: &mut u64, topo: &Topology, intents: &[Intent], seed: u64) {
    fold(h, &resolve_connections(topo, intents, &mut Rng::new(seed)));
    for regions in [1usize, 3, 64] {
        fold(
            h,
            &resolve_connections_sharded(topo, intents, seed, 5, regions, 2),
        );
    }
}

/// The pinned topologies: a ring whose last 64-region is short, a line
/// where every 64-region is one node, a grid, an RGG with long rows, and a
/// complete graph where every proposal crosses a region edge.
fn pinned_topologies() -> [Topology; 5] {
    [
        Topology::ring(4099),
        Topology::line(40),
        Topology::grid(1000),
        Topology::random_geometric(600, &mut Rng::new(0x9e37)),
        Topology::complete(20),
    ]
}

fn fnv_per_topology(intents_of: impl Fn(&Topology, u64) -> Vec<Vec<Intent>>) -> Vec<u64> {
    pinned_topologies()
        .iter()
        .map(|topo| {
            let mut h = 0xcbf2_9ce4_8422_2325;
            for seed in [1u64, 7, 42] {
                for intents in intents_of(topo, seed) {
                    fold_resolutions(&mut h, topo, &intents, seed);
                }
            }
            h
        })
        .collect()
}

#[test]
fn resolutions_are_pinned_byte_for_byte() {
    // The invariant tests above accept any valid maximal matching; these
    // pins accept only the one the resolvers pick, so a rewrite of the
    // matching kernel must keep every RNG draw and every output byte.
    let protocols: [Protocol; 2] = [Protocol::Uniform, Protocol::Advert];
    let got = fnv_per_topology(|topo, seed| {
        let mut sets = vec![random_intents(topo, &mut Rng::new(seed))];
        sets.extend(protocols.map(|p| protocol_intents(topo, p, seed)));
        sets
    });
    // ring 4099, line 40, grid 1000, rgg 600, complete 20.
    let want: [u64; 5] = [
        0xcf59_b924_9690_a5ec,
        0xc4e2_6c21_62f0_5c6d,
        0xaeaa_e439_e865_a11a,
        0xf8c7_79da_07c1_7e80,
        0x9579_340a_a35d_9887,
    ];
    assert_eq!(got, want);
}

#[test]
fn empty_and_single_node_graphs_resolve_to_nothing() {
    for n in [0usize, 1] {
        let topo = Topology::line(n);
        let intents = vec![Intent::Listen; n];
        let serial = resolve_connections(&topo, &intents, &mut Rng::new(3));
        assert_eq!(serial, Resolution::default(), "serial, {n} nodes");
        for regions in [1usize, 64] {
            for threads in [1usize, 2] {
                let sharded = resolve_connections_sharded(&topo, &intents, 3, 1, regions, threads);
                assert_eq!(sharded, Resolution::default(), "sharded, {n} nodes");
            }
        }
    }
}
