//! The asynchronous event-driven scheduler.
//!
//! The follow-up to the PODC 2017 paper ("Asynchronous Gossip in
//! Smartphone Peer-to-Peer Networks", Newport, Weaver & Zheng 2021)
//! drops the synchronized-round assumption: real smartphone meshes have
//! per-device clock drift, advertisement refreshes on OS-controlled
//! timers, and connections whose setup and transfer take variable time.
//! [`AsyncScheduler`] models that world with a binary-heap event queue
//! over integer virtual time ([`SimTime`]):
//!
//! - every node runs an **act cycle** on its own drifted clock: refresh
//!   the advertisement, scan the *current* (possibly stale) tags of its
//!   neighbors, and commit an [`Intent`] through the unchanged
//!   [`GossipProtocol`] trait;
//! - a `Propose(v)` intent schedules a connection **attempt** that
//!   arrives at `v` after a sampled latency; the attempt resolves
//!   *incrementally* against `v`'s state at arrival time via
//!   [`IncrementalMatcher`] — there is no global matching batch;
//! - a formed connection holds both endpoints busy for a sampled
//!   transfer latency, then the push-pull union fires and both return to
//!   their act cycles.
//!
//! Everything — drift factors, refresh jitter, latencies, protocol coin
//! flips — is drawn from the single seeded [`Rng`], and events are
//! ordered by `(time, sequence-number)`, so runs are exactly reproducible
//! from the seed.
//!
//! Since the time-sliced parallel engine landed (see [`crate::sliced`]),
//! [`Scheduler::run`]/[`Scheduler::run_dynamic`] execute the sliced event
//! loop at every thread count (byte-identical results for any `threads`),
//! while the original single-heap loop lives on as
//! [`AsyncScheduler::run_serial`] / [`AsyncScheduler::run_dynamic_serial`]
//! — the globally time-ordered oracle the sliced engine's tests compare
//! against.

use crate::dynamic::DynRun;
use crate::metrics::RoundStats;
use crate::scheduler::{init_run, Scheduler};
use crate::sliced::SliceTimings;
use crate::{SimConfig, SimResult};

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gossip_core::time::{SimTime, TimingConfig, TICKS_PER_ROUND};
use gossip_core::{Advertisement, IncrementalMatcher, Intent, NodeId, PeerState, Rng, Topology};
use gossip_dynamics::{DynamicsModel, MutationKind};
use gossip_membership::MembershipConfig;
use gossip_protocols::{GossipProtocol, NodeCtx};
use gossip_telemetry::{NoopProbe, Probe};

/// Event-driven scheduler for the asynchronous mobile telephone model.
///
/// `config.max_rounds` is interpreted as a virtual-time cap of
/// `max_rounds ×` [`TICKS_PER_ROUND`] ticks, so the same [`SimConfig`]
/// bounds both schedulers comparably. Reported `rounds_executed` /
/// `rounds_to_completion` are round *equivalents* of the virtual time
/// (see [`SimTime::round_equivalent`]); with `record_rounds` set, one
/// [`RoundStats`] entry is recorded per elapsed round-sized epoch, and a
/// connection is counted in the epoch in which its transfer completes.
#[derive(Clone, Copy, Debug)]
pub struct AsyncScheduler {
    /// Drift, refresh-jitter, and latency distributions for the run.
    pub timing: TimingConfig,
    /// Worker threads for the time-sliced event loop. The slice/region
    /// partition is a fixed constant, so results are byte-identical at
    /// any value; `0` is normalized to 1.
    pub threads: usize,
}

impl Default for AsyncScheduler {
    fn default() -> Self {
        AsyncScheduler {
            timing: TimingConfig::default(),
            threads: 1,
        }
    }
}

impl AsyncScheduler {
    /// An async scheduler with default timing and `threads` workers
    /// (`0` is treated as 1).
    pub fn with_threads(threads: usize) -> Self {
        AsyncScheduler {
            timing: TimingConfig::default(),
            threads: threads.max(1),
        }
    }
}

/// What happens when a scheduled event fires.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// A node's act cycle: refresh advertisement, scan, decide.
    Act(NodeId),
    /// `from`'s proposal arrives at `to` after connection-setup latency.
    Attempt { from: NodeId, to: NodeId },
    /// The transfer over a formed connection completes.
    Finish { initiator: NodeId, acceptor: NodeId },
}

/// What happens when a scheduled event fires in a *dynamic* run. The
/// extra ingredients over [`Event`]: a `Mutate` marker that drains the
/// dynamics stream when it fires, and per-node generation stamps — a
/// node's generation bumps when it dies, so events queued against an
/// earlier incarnation (its act chain, an in-flight proposal, a pending
/// transfer) are lazily discarded when popped instead of surgically
/// removed from the heap.
#[derive(Clone, Copy, Debug)]
enum DynEvent {
    /// A node's act cycle, valid for one incarnation of the node.
    Act(NodeId, u64),
    /// `from`'s proposal arrives at `to`; `gen` stamps `from`'s
    /// incarnation (a dead proposer's attempt dissolves).
    Attempt { from: NodeId, to: NodeId, gen: u64 },
    /// The transfer over a formed connection completes — unless either
    /// endpoint died (and was severed) in the meantime.
    Finish {
        initiator: NodeId,
        acceptor: NodeId,
        gen_i: u64,
        gen_a: u64,
    },
    /// Apply every dynamics mutation due at this instant, then re-arm the
    /// marker at the stream's next event time.
    Mutate,
}

/// Heap entry: events fire in `(time, seq)` order. `seq` is a unique,
/// monotonically increasing tie-breaker, so simultaneous events fire in
/// scheduling order and the execution is deterministic.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Scheduled<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    // Reversed: BinaryHeap is a max-heap, and we want the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Scheduler for AsyncScheduler {
    fn name(&self) -> &'static str {
        "async"
    }

    fn run_probed(
        &self,
        topology: &Topology,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
        probe: &mut dyn Probe,
    ) -> SimResult {
        crate::sliced::run_sliced(self, topology, None, protocol, sources, seed, config, probe).0
    }

    fn run_dynamic_probed(
        &self,
        topology: &Topology,
        dynamics: &dyn DynamicsModel,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
        probe: &mut dyn Probe,
    ) -> SimResult {
        crate::sliced::run_dynamic_sliced(
            self, topology, dynamics, None, protocol, sources, seed, config, probe,
        )
        .0
    }

    fn run_membership_probed(
        &self,
        topology: &Topology,
        membership: &MembershipConfig,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
        probe: &mut dyn Probe,
    ) -> SimResult {
        crate::sliced::run_sliced(
            self,
            topology,
            Some(membership),
            protocol,
            sources,
            seed,
            config,
            probe,
        )
        .0
    }

    fn run_dynamic_membership_probed(
        &self,
        topology: &Topology,
        dynamics: &dyn DynamicsModel,
        membership: &MembershipConfig,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
        probe: &mut dyn Probe,
    ) -> SimResult {
        crate::sliced::run_dynamic_sliced(
            self,
            topology,
            dynamics,
            Some(membership),
            protocol,
            sources,
            seed,
            config,
            probe,
        )
        .0
    }
}

impl AsyncScheduler {
    /// Run the time-sliced engine and also return its per-phase wall-time
    /// breakdown (consumed by `bench`).
    pub fn run_with_slice_timings(
        &self,
        topology: &Topology,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
    ) -> (SimResult, SliceTimings) {
        crate::sliced::run_sliced(
            self,
            topology,
            None,
            protocol,
            sources,
            seed,
            config,
            &mut NoopProbe,
        )
    }

    /// The original single-heap, globally time-ordered event loop, kept
    /// as the serial oracle the sliced engine's tests compare against
    /// (it executes every event in exact `(time, seq)` order). Ignores
    /// `threads`.
    pub fn run_serial(
        &self,
        topology: &Topology,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
    ) -> SimResult {
        self.timing
            .validate()
            .unwrap_or_else(|e| panic!("invalid timing config: {e}"));
        let n = topology.num_nodes();
        let mut rng = Rng::new(seed);
        let (mut states, mut result) = init_run(topology, protocol, "async", sources, seed, config);
        if result.completed {
            return result;
        }
        let mut complete_nodes = result.complete_nodes;
        let mut messages_held: usize = states.total_messages();

        let max_time = (config.max_rounds as u64).saturating_mul(TICKS_PER_ROUND);
        let drift_factors: Vec<f64> = (0..n).map(|_| self.timing.drift_factor(&mut rng)).collect();
        // Every node publishes an initial epoch-0 tag before anyone scans.
        let mut ads = vec![Advertisement::default(); n];
        protocol.advertise_rows(&states, 0, 0, &mut ads);
        let mut matcher = IncrementalMatcher::new(n);
        let mut ad_scratch: Vec<Advertisement> = Vec::new();

        let mut heap: BinaryHeap<Scheduled<Event>> = BinaryHeap::with_capacity(2 * n);
        let mut seq: u64 = 0;
        let mut push = |heap: &mut BinaryHeap<Scheduled<Event>>, time: SimTime, event: Event| {
            heap.push(Scheduled {
                time,
                seq: {
                    seq += 1;
                    seq
                },
                event,
            });
        };

        // Stagger initial act cycles uniformly over the first nominal
        // period, so the network does not start phase-locked.
        for u in 0..n {
            let offset = rng.gen_range(TICKS_PER_ROUND as usize) as u64;
            push(&mut heap, SimTime(offset), Event::Act(NodeId(u as u32)));
        }

        // Per-epoch accounting for optional history recording. An event at
        // time `t` belongs to row `ceil(t / TICKS_PER_ROUND)` — round `r`
        // covers `((r-1)·TPR, r·TPR]`, matching
        // [`SimTime::round_equivalent`] — so a transfer landing exactly on
        // a round boundary counts toward the round that ends there, never
        // a dropped `rounds_executed + 1`.
        let mut epochs = EpochAccounting::default();

        let mut now = SimTime::ZERO;
        while let Some(ev) = heap.pop() {
            if ev.time.ticks() > max_time {
                now = SimTime(max_time);
                break;
            }
            now = ev.time;

            if let Some(history) = &mut result.rounds {
                // Flush rows strictly before this event's row, so its
                // counters accumulate into the right (still-open) row.
                let event_row = now.round_equivalent().max(1);
                epochs.flush_rows_below(history, event_row, complete_nodes, messages_held);
            }

            match ev.event {
                Event::Act(u) => {
                    let ui = u.index();
                    match matcher.state(u) {
                        PeerState::Connected => {
                            // Captured as a listener mid-connection: keep
                            // the act chain alive and re-decide later.
                            let delay = self.timing.refresh_interval(drift_factors[ui], &mut rng);
                            push(&mut heap, now.after(delay), Event::Act(u));
                        }
                        PeerState::Proposing => {
                            // A proposing node's chain is owned by its
                            // Attempt event, so rescheduling here would
                            // fork the chain; dropping the stale Act is
                            // the safe release-mode recovery (the Attempt
                            // always restarts the cycle), while debug
                            // builds flag the broken invariant loudly.
                            debug_assert!(false, "act event fired for a proposing node");
                        }
                        state => {
                            if state == PeerState::Listening {
                                matcher.cancel(u);
                            }
                            let epoch = now.epoch();
                            let own_ad = protocol.advertise(states.view(ui), epoch);
                            ads[ui] = own_ad;
                            let neighbors = topology.neighbors(u);
                            ad_scratch.clear();
                            ad_scratch.extend(neighbors.iter().map(|v| ads[v.index()]));
                            let ctx = NodeCtx {
                                id: u,
                                salt: epoch,
                                messages: states.view(ui),
                                own_ad,
                                neighbors,
                                neighbor_ads: &ad_scratch,
                            };
                            match protocol.decide(&ctx, &mut rng) {
                                Intent::Idle => {
                                    let delay =
                                        self.timing.refresh_interval(drift_factors[ui], &mut rng);
                                    push(&mut heap, now.after(delay), Event::Act(u));
                                }
                                Intent::Listen => {
                                    matcher.listen(u);
                                    let delay =
                                        self.timing.refresh_interval(drift_factors[ui], &mut rng);
                                    push(&mut heap, now.after(delay), Event::Act(u));
                                }
                                Intent::Propose(v) => {
                                    matcher.propose(u);
                                    let delay = self.timing.latency(&mut rng);
                                    push(
                                        &mut heap,
                                        now.after(delay),
                                        Event::Attempt { from: u, to: v },
                                    );
                                }
                            }
                        }
                    }
                }
                Event::Attempt { from, to } => {
                    // On a frozen graph a proposal across a non-edge can
                    // only be a protocol bug; the dynamic path has no such
                    // assert because there the edge may legitimately have
                    // vanished in flight.
                    debug_assert!(
                        topology.are_neighbors(from, to),
                        "protocol proposed {from} -> {to} across a non-edge"
                    );
                    if matcher.try_connect(topology, from, to) {
                        let delay = self.timing.latency(&mut rng);
                        push(
                            &mut heap,
                            now.after(delay),
                            Event::Finish {
                                initiator: from,
                                acceptor: to,
                            },
                        );
                    } else {
                        // Lost proposal: back to the act cycle; the retry
                        // happens naturally at the next refresh.
                        matcher.cancel(from);
                        let delay = self
                            .timing
                            .refresh_interval(drift_factors[from.index()], &mut rng);
                        push(&mut heap, now.after(delay), Event::Act(from));
                    }
                }
                Event::Finish {
                    initiator,
                    acceptor,
                } => {
                    let (i, j) = (initiator.index(), acceptor.index());
                    let before_i = states.is_full(i);
                    let before_j = states.is_full(j);
                    let moved = states.union_pair(i, j);
                    complete_nodes += (states.is_full(i) && !before_i) as usize;
                    complete_nodes += (states.is_full(j) && !before_j) as usize;
                    messages_held += moved;

                    result.total_connections += 1;
                    if moved > 0 {
                        result.productive_connections += 1;
                        epochs.productive += 1;
                    } else {
                        result.wasted_connections += 1;
                    }
                    epochs.connections += 1;

                    matcher.release(initiator, acceptor);
                    // The acceptor's act chain stayed alive while it was
                    // connected; only the initiator's needs restarting.
                    let delay = self
                        .timing
                        .refresh_interval(drift_factors[initiator.index()], &mut rng);
                    push(&mut heap, now.after(delay), Event::Act(initiator));

                    if complete_nodes == n {
                        result.completed = true;
                        result.virtual_time_to_completion = Some(now.ticks());
                        result.rounds_to_completion = Some(now.round_equivalent());
                        break;
                    }
                }
            }
        }

        result.complete_nodes = complete_nodes;
        result.virtual_time = now.ticks().min(max_time);
        result.rounds_executed = SimTime(result.virtual_time)
            .round_equivalent()
            .min(config.max_rounds);

        if let Some(history) = &mut result.rounds {
            // Flush remaining epochs (including the final partial one) so
            // the history covers exactly `rounds_executed` rows.
            epochs.flush_rows_below(
                history,
                result.rounds_executed + 1,
                complete_nodes,
                messages_held,
            );
        }
        result
    }

    /// The dynamic-topology variant of the serial event loop. The
    /// dynamics stream is interleaved *exactly*: a `Mutate` marker rides
    /// the event heap at the stream's next mutation time, so departures,
    /// rejoins, fades, and moves fire between act cycles at their true
    /// virtual times rather than at round boundaries. A departure severs
    /// any open connection of the dead node (counted in
    /// [`DynamicsStats::severed_connections`](crate::DynamicsStats));
    /// its queued events dissolve lazily via generation stamps. An edge
    /// that fades or moves away while a proposal is in flight simply
    /// fails the attempt at arrival — only death interrupts an already-
    /// formed connection.
    pub fn run_dynamic_serial(
        &self,
        topology: &Topology,
        dynamics: &dyn DynamicsModel,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
    ) -> SimResult {
        self.timing
            .validate()
            .unwrap_or_else(|e| panic!("invalid timing config: {e}"));
        let n = topology.num_nodes();
        let mut rng = Rng::new(seed);
        let (mut states, mut result) = init_run(topology, protocol, "async", sources, seed, config);
        let mut dynr = DynRun::new(topology, dynamics, seed, &states);
        if result.completed {
            result.dynamics = Some(dynr.finish(SimTime::ZERO));
            return result;
        }

        let max_time = (config.max_rounds as u64).saturating_mul(TICKS_PER_ROUND);
        let drift_factors: Vec<f64> = (0..n).map(|_| self.timing.drift_factor(&mut rng)).collect();
        let mut ads = vec![Advertisement::default(); n];
        protocol.advertise_rows(&states, 0, 0, &mut ads);
        let mut matcher = IncrementalMatcher::new(n);
        let mut ad_scratch: Vec<Advertisement> = Vec::new();
        // A node's incarnation number; death bumps it, orphaning every
        // event queued against the old incarnation.
        let mut gens: Vec<u64> = vec![0; n];
        // While `u` is connected: `(peer, u_initiated_the_connection)`.
        let mut partner: Vec<Option<(NodeId, bool)>> = vec![None; n];

        let mut heap: BinaryHeap<Scheduled<DynEvent>> = BinaryHeap::with_capacity(2 * n + 1);
        let mut seq: u64 = 0;
        let mut push =
            |heap: &mut BinaryHeap<Scheduled<DynEvent>>, time: SimTime, event: DynEvent| {
                heap.push(Scheduled {
                    time,
                    seq: {
                        seq += 1;
                        seq
                    },
                    event,
                });
            };

        for u in 0..n {
            let offset = rng.gen_range(TICKS_PER_ROUND as usize) as u64;
            push(
                &mut heap,
                SimTime(offset),
                DynEvent::Act(NodeId(u as u32), 0),
            );
        }
        // Exactly one Mutate marker rides the heap at a time, parked at
        // the stream's next mutation time.
        if let Some(t) = dynr.peek_time() {
            push(&mut heap, t, DynEvent::Mutate);
        }

        let mut epochs = EpochAccounting::default();
        let mut now = SimTime::ZERO;
        while let Some(ev) = heap.pop() {
            if ev.time.ticks() > max_time {
                now = SimTime(max_time);
                break;
            }
            now = ev.time;

            if let Some(history) = &mut result.rounds {
                let event_row = now.round_equivalent().max(1);
                epochs.flush_rows_below(
                    history,
                    event_row,
                    dynr.alive_informed,
                    dynr.alive_messages,
                );
            }

            match ev.event {
                DynEvent::Mutate => {
                    while dynr.peek_time().is_some_and(|t| t <= now) {
                        let mutation = dynr.pop().expect("peeked mutation must pop");
                        if let MutationKind::Depart(u) = mutation.kind {
                            if dynr.topo.is_alive(u) {
                                // Disentangle the node before it goes down.
                                match matcher.state(u) {
                                    PeerState::Free => {}
                                    PeerState::Listening | PeerState::Proposing => {
                                        matcher.cancel(u)
                                    }
                                    PeerState::Connected => {
                                        let (v, u_initiated) = partner[u.index()]
                                            .expect("connected node has a partner");
                                        matcher.release(u, v);
                                        partner[u.index()] = None;
                                        partner[v.index()] = None;
                                        dynr.stats.severed_connections += 1;
                                        if !u_initiated {
                                            // The survivor initiated: its
                                            // act chain was parked on the
                                            // Finish event dying with this
                                            // connection — restart it.
                                            let delay = self.timing.refresh_interval(
                                                drift_factors[v.index()],
                                                &mut rng,
                                            );
                                            push(
                                                &mut heap,
                                                now.after(delay),
                                                DynEvent::Act(v, gens[v.index()]),
                                            );
                                        }
                                    }
                                }
                                gens[u.index()] += 1;
                            }
                        }
                        let applied = dynr.apply(&mutation, &mut states, sources);
                        if applied {
                            if let MutationKind::Rejoin { node, .. } = mutation.kind {
                                // The revived node starts a fresh act chain.
                                let delay = self
                                    .timing
                                    .refresh_interval(drift_factors[node.index()], &mut rng);
                                push(
                                    &mut heap,
                                    now.after(delay),
                                    DynEvent::Act(node, gens[node.index()]),
                                );
                            }
                        }
                    }
                    dynr.topo.settle();
                    if let Some(t) = dynr.peek_time() {
                        push(&mut heap, t, DynEvent::Mutate);
                    }
                    if dynr.complete() {
                        result.completed = true;
                        result.virtual_time_to_completion = Some(now.ticks());
                        result.rounds_to_completion = Some(now.round_equivalent());
                        break;
                    }
                }
                DynEvent::Act(u, gen) => {
                    if gen != gens[u.index()] {
                        continue; // the node died since this was scheduled
                    }
                    let ui = u.index();
                    match matcher.state(u) {
                        PeerState::Connected => {
                            let delay = self.timing.refresh_interval(drift_factors[ui], &mut rng);
                            push(&mut heap, now.after(delay), DynEvent::Act(u, gen));
                        }
                        PeerState::Proposing => {
                            debug_assert!(false, "act event fired for a proposing node");
                        }
                        state => {
                            if state == PeerState::Listening {
                                matcher.cancel(u);
                            }
                            let epoch = now.epoch();
                            let own_ad = protocol.advertise(states.view(ui), epoch);
                            ads[ui] = own_ad;
                            let neighbors = dynr.topo.active_neighbors(u);
                            ad_scratch.clear();
                            ad_scratch.extend(neighbors.iter().map(|v| ads[v.index()]));
                            let ctx = NodeCtx {
                                id: u,
                                salt: epoch,
                                messages: states.view(ui),
                                own_ad,
                                neighbors,
                                neighbor_ads: &ad_scratch,
                            };
                            match protocol.decide(&ctx, &mut rng) {
                                Intent::Idle => {
                                    let delay =
                                        self.timing.refresh_interval(drift_factors[ui], &mut rng);
                                    push(&mut heap, now.after(delay), DynEvent::Act(u, gen));
                                }
                                Intent::Listen => {
                                    matcher.listen(u);
                                    let delay =
                                        self.timing.refresh_interval(drift_factors[ui], &mut rng);
                                    push(&mut heap, now.after(delay), DynEvent::Act(u, gen));
                                }
                                Intent::Propose(v) => {
                                    matcher.propose(u);
                                    let delay = self.timing.latency(&mut rng);
                                    push(
                                        &mut heap,
                                        now.after(delay),
                                        DynEvent::Attempt {
                                            from: u,
                                            to: v,
                                            gen,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
                DynEvent::Attempt { from, to, gen } => {
                    if gen != gens[from.index()] {
                        continue; // the proposer died mid-flight
                    }
                    // `try_connect` checks the *current* active graph: a
                    // target that died, an edge that faded, or a peer that
                    // moved away all fail the attempt naturally.
                    if matcher.try_connect(&dynr.topo, from, to) {
                        partner[from.index()] = Some((to, true));
                        partner[to.index()] = Some((from, false));
                        let delay = self.timing.latency(&mut rng);
                        push(
                            &mut heap,
                            now.after(delay),
                            DynEvent::Finish {
                                initiator: from,
                                acceptor: to,
                                gen_i: gens[from.index()],
                                gen_a: gens[to.index()],
                            },
                        );
                    } else {
                        matcher.cancel(from);
                        let delay = self
                            .timing
                            .refresh_interval(drift_factors[from.index()], &mut rng);
                        push(&mut heap, now.after(delay), DynEvent::Act(from, gen));
                    }
                }
                DynEvent::Finish {
                    initiator,
                    acceptor,
                    gen_i,
                    gen_a,
                } => {
                    if gen_i != gens[initiator.index()] || gen_a != gens[acceptor.index()] {
                        continue; // the connection was severed by a death
                    }
                    let (i, j) = (initiator.index(), acceptor.index());
                    let before_i = states.is_full(i);
                    let before_j = states.is_full(j);
                    let moved = states.union_pair(i, j);
                    // Both endpoints are alive: a death would have severed.
                    dynr.alive_informed += (states.is_full(i) && !before_i) as usize;
                    dynr.alive_informed += (states.is_full(j) && !before_j) as usize;
                    dynr.alive_messages += moved;

                    result.total_connections += 1;
                    if moved > 0 {
                        result.productive_connections += 1;
                        epochs.productive += 1;
                    } else {
                        result.wasted_connections += 1;
                    }
                    epochs.connections += 1;

                    matcher.release(initiator, acceptor);
                    partner[initiator.index()] = None;
                    partner[acceptor.index()] = None;
                    let delay = self
                        .timing
                        .refresh_interval(drift_factors[initiator.index()], &mut rng);
                    push(&mut heap, now.after(delay), DynEvent::Act(initiator, gen_i));
                    dynr.record(now);

                    if dynr.complete() {
                        result.completed = true;
                        result.virtual_time_to_completion = Some(now.ticks());
                        result.rounds_to_completion = Some(now.round_equivalent());
                        break;
                    }
                }
            }
        }

        result.complete_nodes = dynr.alive_informed;
        result.virtual_time = now.ticks().min(max_time);
        result.rounds_executed = SimTime(result.virtual_time)
            .round_equivalent()
            .min(config.max_rounds);

        if let Some(history) = &mut result.rounds {
            epochs.flush_rows_below(
                history,
                result.rounds_executed + 1,
                dynr.alive_informed,
                dynr.alive_messages,
            );
        }
        result.dynamics = Some(dynr.finish(SimTime(result.virtual_time)));
        result
    }
}

/// Accumulators for the optional per-epoch [`RoundStats`] history of an
/// asynchronous run: counters for the currently open row, plus the number
/// of rows already flushed.
#[derive(Default)]
pub(crate) struct EpochAccounting {
    /// Rows already flushed; the open row is number `flushed + 1`.
    pub(crate) flushed: usize,
    /// Connections completing transfers in the open row so far.
    pub(crate) connections: usize,
    /// Productive connections in the open row so far.
    pub(crate) productive: usize,
}

impl EpochAccounting {
    /// Close and record every row numbered strictly below `row`, leaving
    /// `row` as the open row accumulating subsequent counters. Rows stay
    /// dense and 1-based like synchronous rounds; both the in-loop flush
    /// (before each event) and the final drain route through here so the
    /// attribution rule cannot diverge between them.
    pub(crate) fn flush_rows_below(
        &mut self,
        history: &mut Vec<RoundStats>,
        row: usize,
        complete_nodes: usize,
        messages_held: usize,
    ) {
        while self.flushed + 1 < row {
            history.push(RoundStats {
                round: self.flushed + 1,
                connections: self.connections,
                productive: self.productive,
                complete_nodes,
                messages_held,
            });
            self.connections = 0;
            self.productive = 0;
            self.flushed += 1;
        }
    }
}
