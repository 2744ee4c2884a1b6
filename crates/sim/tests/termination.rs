//! Gossip termination tests: both protocols reach all-nodes-informed on
//! line, ring, and complete topologies under a fixed RNG seed, within sane
//! round bounds, and the advertisement-guided protocol beats blind uniform
//! spread where wasted connections dominate (the ring).

use gossip_core::{Rng, Topology};
use gossip_protocols::Protocol;
use gossip_sim::{random_sources, RunInputs, Scheduler, SimConfig, SimResult};
use gossip_telemetry::NoopProbe;

fn run_one(topo: &Topology, protocol: Protocol, k: usize, seed: u64) -> SimResult {
    let mut rng = Rng::new(seed ^ 0xfeed);
    let sources = random_sources(topo.num_nodes(), k, &mut rng);
    let cfg = SimConfig {
        max_rounds: 60 * topo.num_nodes() + 200,
        ..SimConfig::default()
    };
    Scheduler::Sync { threads: 1 }.run(
        RunInputs::new(topo.clone(), protocol, &sources, seed, cfg),
        &mut NoopProbe,
    )
}

/// Completion requires at least n-1 rounds-worth of information flow on a
/// line/ring diameter, and can never beat ceil(log2(n)) doubling rounds.
fn assert_sane_bounds(result: &SimResult, upper: usize) {
    assert!(
        result.completed,
        "{} on {} (n={}) did not complete within the round cap",
        result.protocol, result.topology, result.nodes
    );
    let rounds = result.rounds_to_completion.unwrap();
    let log2_floor = usize::BITS as usize - 1 - result.nodes.leading_zeros() as usize;
    assert!(
        rounds >= log2_floor,
        "{} on {}: {rounds} rounds beats the doubling lower bound",
        result.protocol,
        result.topology
    );
    assert!(
        rounds <= upper,
        "{} on {}: {rounds} rounds exceeds sane bound {upper}",
        result.protocol,
        result.topology
    );
    assert_eq!(result.complete_nodes, result.nodes);
}

#[test]
fn uniform_terminates_on_line_ring_complete() {
    let n = 64;
    // A frontier edge advances with constant probability per round, so the
    // diameter-limited topologies finish in O(n) rounds w.h.p.; 20n is a
    // deep-tail bound for a fixed seed.
    assert_sane_bounds(
        &run_one(&Topology::line(n), Protocol::Uniform, 1, 42),
        20 * n,
    );
    assert_sane_bounds(
        &run_one(&Topology::ring(n), Protocol::Uniform, 1, 42),
        20 * n,
    );
    assert_sane_bounds(
        &run_one(&Topology::complete(n), Protocol::Uniform, 1, 42),
        12 * (usize::BITS as usize),
    );
}

#[test]
fn advert_terminates_on_line_ring_complete() {
    let n = 64;
    // Advertisement-guided frontiers advance nearly deterministically, so
    // 4n is already generous on the diameter-limited topologies.
    assert_sane_bounds(&run_one(&Topology::line(n), Protocol::Advert, 1, 42), 4 * n);
    assert_sane_bounds(&run_one(&Topology::ring(n), Protocol::Advert, 1, 42), 4 * n);
    assert_sane_bounds(
        &run_one(&Topology::complete(n), Protocol::Advert, 1, 42),
        12 * (usize::BITS as usize),
    );
}

#[test]
fn multi_message_gossip_terminates() {
    let n = 36;
    for proto in [Protocol::Uniform, Protocol::Advert] {
        let result = run_one(&Topology::grid(n), proto, 8, 7);
        assert!(result.completed, "{} failed 8-gossip on grid", proto.name());
    }
}

#[test]
fn large_universe_gossip_terminates() {
    // Regression test for hashed-tag livelock: with >64 messages the
    // advert protocol advertises round-salted hashes, so a tag collision
    // between differing sets cannot persist across rounds. In particular a
    // 2-node topology splits the universe into complementary sets — the
    // shape where a persistent collision would stall gossip forever.
    for proto in [Protocol::Uniform, Protocol::Advert] {
        let two = run_one(&Topology::line(2), proto, 128, 11);
        assert!(
            two.completed,
            "{} failed 128-gossip on line(2)",
            proto.name()
        );
        let ring = run_one(&Topology::ring(10), proto, 80, 11);
        assert!(ring.completed, "{} failed 80-gossip on ring", proto.name());
    }
}

#[test]
fn advert_beats_uniform_on_ring() {
    // The acceptance-criteria comparison: on a ring only the two frontier
    // edges can make progress, so a protocol that idles unproductive nodes
    // and aims frontier connections precisely must finish faster than blind
    // uniform spread. Check across several seeds to make sure this is not a
    // single-seed fluke.
    let n = 128;
    for seed in [1u64, 42, 99] {
        let topo = Topology::ring(n);
        let uniform = run_one(&topo, Protocol::Uniform, 1, seed);
        let advert = run_one(&topo, Protocol::Advert, 1, seed);
        assert!(uniform.completed && advert.completed);
        assert!(
            advert.rounds_to_completion < uniform.rounds_to_completion,
            "seed {seed}: advert took {:?} rounds, uniform {:?}",
            advert.rounds_to_completion,
            uniform.rounds_to_completion
        );
        assert!(
            advert.wasted_connections < uniform.wasted_connections,
            "seed {seed}: advert wasted {} connections, uniform {}",
            advert.wasted_connections,
            uniform.wasted_connections
        );
    }
}

#[test]
fn termination_round_counts_are_reproducible() {
    let topo = Topology::ring(48);
    let a = run_one(&topo, Protocol::Advert, 2, 1234);
    let b = run_one(&topo, Protocol::Advert, 2, 1234);
    assert_eq!(a.rounds_to_completion, b.rounds_to_completion);
    assert_eq!(a.total_connections, b.total_connections);
}
