//! Shared machinery for runs over a mutating network: mutation
//! application, churn-aware completion tracking, and the coverage
//! timeline. Both schedulers route their dynamics bookkeeping through
//! [`DynRun`] so the semantics — what a departure does to the completion
//! condition, what a rejoining source remembers — cannot diverge between
//! execution models.

use crate::metrics::{CoveragePoint, DynamicsStats};
use crate::scheduler::ms;

use gossip_core::time::TICKS_PER_ROUND;
use gossip_core::{DynamicTopology, MessageMatrix, NodeId, SimTime, Topology};
use gossip_dynamics::{dynamics_seed, DynamicsModel, Mutation, MutationKind, MutationStream};
use gossip_telemetry::{EventKind, Probe, TraceEvent};
use std::time::Instant;

/// The trace record of an applied mutation, stamped with the round (or
/// slice pass) whose window it lands in.
fn mutate_event(mutation: &Mutation, round: u64) -> TraceEvent {
    let t = mutation.time.ticks();
    let event = |kind, ids: &[u32]| TraceEvent::new(kind, t, round, ids);
    match &mutation.kind {
        MutationKind::Depart(u) => event(EventKind::Depart, &[u.0]),
        MutationKind::Rejoin { node, .. } => event(EventKind::Rejoin, &[node.0]),
        MutationKind::EdgeDown(a, b) => event(EventKind::EdgeDown, &[a.0, b.0]),
        MutationKind::EdgeUp(a, b) => event(EventKind::EdgeUp, &[a.0, b.0]),
        MutationKind::Rewire { node, .. } => event(EventKind::Rewire, &[node.0]),
    }
}

/// A run's completion counters: how many nodes hold the full message
/// universe and how many messages are held in total. Every engine loop
/// owns exactly one pair — over all nodes on a static run, over the
/// currently-alive ones under dynamics, where [`DynRun::apply`] moves a
/// departing or rejoining node's share out of and back into it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Coverage {
    pub informed: usize,
    pub held: usize,
}

impl Coverage {
    /// Gossip over `population` counted nodes is complete when all of
    /// them are informed — and there is at least one: an emptied network
    /// is not a covered one.
    pub fn complete(&self, population: usize) -> bool {
        population > 0 && self.informed == population
    }
}

/// Timeline points before thinning kicks in: beyond this, every other
/// point is dropped and the sampling stride doubles, so the timeline stays
/// bounded no matter how long the run or how hot the churn.
const TIMELINE_CAP: usize = 2048;

/// The dynamics-side state of one run: the mutating topology, the
/// mutation stream driving it, and accumulated [`DynamicsStats`]. The
/// completion counters it adjusts are the engine's [`Coverage`].
pub(crate) struct DynRun {
    pub topo: DynamicTopology,
    stream: Box<dyn MutationStream>,
    pub stats: DynamicsStats,
    /// Milliseconds inside `topo.settle()`, summed over the run's drains.
    pub settle_ms: f64,
    /// Rounds per coverage-timeline sample window (doubles on thinning).
    timeline_stride: u64,
    /// High-water mark over all `record` times. The sliced engine replays
    /// worker logs and boundary sweeps after applying slice-start
    /// mutations, so its record calls are not globally time-ordered;
    /// clamping here keeps the coverage timeline monotone. The sync
    /// engine records in time order, so the clamp is a no-op there.
    record_hwm: u64,
}

/// The network beneath any membership overlay, owned by the engine: the
/// frozen topology of a static run, or the [`DynRun`] a dynamic run
/// converted it into. Either way a run holds one adjacency.
pub(crate) enum Underlay {
    Frozen(Topology),
    Mutating(Box<DynRun>),
}

impl Underlay {
    /// Take `topology` over: frozen without `dynamics`, else converted.
    pub fn new(
        topology: Topology,
        dynamics: Option<Box<dyn DynamicsModel>>,
        seed: u64,
        cover: &Coverage,
    ) -> Self {
        match dynamics {
            Some(model) => Underlay::Mutating(Box::new(DynRun::new(topology, model, seed, cover))),
            None => Underlay::Frozen(topology),
        }
    }

    /// The dynamics-side state; `None` on a static run.
    pub fn dynr(&self) -> Option<&DynRun> {
        match self {
            Underlay::Mutating(d) => Some(d),
            Underlay::Frozen(_) => None,
        }
    }

    /// [`dynr`](Self::dynr), mutably.
    pub fn dynr_mut(&mut self) -> Option<&mut DynRun> {
        match self {
            Underlay::Mutating(d) => Some(d),
            Underlay::Frozen(_) => None,
        }
    }
}

impl DynRun {
    /// Instantiate `dynamics` over `topology` for a run whose initial
    /// coverage is `cover`: both schedulers derive the stream seed
    /// identically from the engine seed, so sync and async runs of one
    /// experiment face the same mutation sequence. The stream is built
    /// from the static graph first; then the graph itself becomes the
    /// mutating one, in place.
    pub fn new(
        topology: Topology,
        dynamics: Box<dyn DynamicsModel>,
        seed: u64,
        cover: &Coverage,
    ) -> Self {
        dynamics
            .validate()
            .unwrap_or_else(|e| panic!("invalid dynamics config: {e}"));
        let n = topology.num_nodes();
        let model = dynamics.name();
        let stream = dynamics.stream(&topology, dynamics_seed(seed));
        let mut run = DynRun {
            topo: DynamicTopology::from(topology),
            stream,
            stats: DynamicsStats {
                model,
                departures: 0,
                rejoins: 0,
                edge_downs: 0,
                edge_ups: 0,
                rewires: 0,
                severed_connections: 0,
                peak_alive: n,
                min_alive: n,
                final_alive: n,
                coverage_timeline: Vec::new(),
            },
            settle_ms: 0.0,
            timeline_stride: 1,
            record_hwm: 0,
        };
        run.record(SimTime::ZERO, cover);
        run
    }

    /// Virtual time of the next pending mutation, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.stream.peek_time()
    }

    /// Pop the next pending mutation if it is due at or before `through`,
    /// without applying it.
    fn next_through(&mut self, through: SimTime) -> Option<Mutation> {
        if self.stream.peek_time()? <= through {
            self.stream.next()
        } else {
            None
        }
    }

    /// Apply one mutation: the topology-side effect (one source of truth:
    /// [`MutationKind::apply_deferred`]) plus the gossip-side bookkeeping —
    /// message resets, the alive-only `cover`, stats, coverage timeline.
    /// Returns whether anything changed. Active views stay stale until
    /// `topo.settle()`, which [`drain_until`](Self::drain_until) runs once
    /// per batch.
    fn apply(
        &mut self,
        mutation: &Mutation,
        states: &mut MessageMatrix,
        sources: &[NodeId],
        cover: &mut Coverage,
    ) -> bool {
        if !mutation.kind.apply_deferred(&mut self.topo) {
            return false;
        }
        match &mutation.kind {
            MutationKind::Depart(u) => {
                self.stats.departures += 1;
                cover.informed -= states.is_full(u.index()) as usize;
                cover.held -= states.count(u.index());
                self.stats.min_alive = self.stats.min_alive.min(self.topo.alive_count());
            }
            MutationKind::Rejoin {
                node,
                reset_messages,
            } => {
                self.stats.rejoins += 1;
                if *reset_messages {
                    states.reset(node.index());
                    // A source re-learns the rumors it originated: the
                    // rumor is its own data, so it cannot go permanently
                    // extinct while its source churns.
                    for (m, src) in sources.iter().enumerate() {
                        if src == node {
                            states.insert(node.index(), m);
                        }
                    }
                }
                cover.informed += states.is_full(node.index()) as usize;
                cover.held += states.count(node.index());
                self.stats.peak_alive = self.stats.peak_alive.max(self.topo.alive_count());
            }
            MutationKind::EdgeDown(..) => self.stats.edge_downs += 1,
            MutationKind::EdgeUp(..) => self.stats.edge_ups += 1,
            MutationKind::Rewire { .. } => self.stats.rewires += 1,
        }
        self.record(mutation.time, cover);
        true
    }

    /// The one mutation drain of both engines, at a sync round's or an
    /// async slice's start: pop and apply every mutation due at or before
    /// `through`, then settle the active views. After each one that
    /// changed something, `applied` runs, then an enabled `probe` gets its
    /// `Mutate` record stamped `round(time)`; the pops and applies are the
    /// same either way. Returns the time of the last mutation popped.
    #[allow(clippy::too_many_arguments)] // the engines' one boundary, not an API
    pub fn drain_until(
        &mut self,
        through: SimTime,
        states: &mut MessageMatrix,
        sources: &[NodeId],
        cover: &mut Coverage,
        probe: &mut dyn Probe,
        round: impl Fn(SimTime) -> u64,
        mut applied: impl FnMut(&Mutation, &mut DynamicsStats, &mut dyn Probe),
    ) -> Option<SimTime> {
        let mut last = None;
        while let Some(mutation) = self.next_through(through) {
            if self.apply(&mutation, states, sources, cover) {
                applied(&mutation, &mut self.stats, probe);
                if probe.enabled() {
                    probe.record(&mutate_event(&mutation, round(mutation.time)));
                }
            }
            last = Some(mutation.time);
        }
        let settling = Instant::now();
        self.topo.settle();
        self.settle_ms += ms(settling.elapsed());
        last
    }

    /// Sample the coverage timeline at `time` if the alive/informed pair
    /// changed since the last sample. Within one stride window the latest
    /// sample wins, and when the timeline outgrows its cap it is thinned
    /// to every other point with a doubled stride — bounded memory at
    /// full fidelity for short runs, coarse fidelity for long ones.
    pub fn record(&mut self, time: SimTime, cover: &Coverage) {
        let alive = self.topo.alive_count();
        let informed_alive = cover.informed;
        self.record_hwm = self.record_hwm.max(time.ticks());
        let point = CoveragePoint {
            time: self.record_hwm,
            alive,
            informed_alive,
        };
        let timeline = &mut self.stats.coverage_timeline;
        if let Some(last) = timeline.last() {
            if last.alive == alive && last.informed_alive == informed_alive {
                return;
            }
        }
        let window = self.timeline_stride * TICKS_PER_ROUND;
        if timeline.len() > 1 {
            let last = timeline.last_mut().expect("len > 1");
            if last.time / window == point.time / window {
                *last = point;
                return;
            }
        }
        timeline.push(point);
        if timeline.len() >= TIMELINE_CAP {
            let mut i = 0usize;
            timeline.retain(|_| {
                let keep = i.is_multiple_of(2);
                i += 1;
                keep
            });
            self.timeline_stride *= 2;
        }
    }

    /// Finalize and hand over the stats.
    pub fn finish(mut self, end: SimTime, cover: &Coverage) -> DynamicsStats {
        self.record(end, cover);
        self.stats.final_alive = self.topo.alive_count();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_telemetry::MemoryProbe;

    /// A fixed mutation sequence.
    struct Script(Vec<Mutation>);

    impl DynamicsModel for Script {
        fn name(&self) -> String {
            "script".to_string()
        }
        fn validate(&self) -> Result<(), String> {
            Ok(())
        }
        fn stream(self: Box<Self>, _topology: &Topology, _seed: u64) -> Box<dyn MutationStream> {
            struct Scripted(std::vec::IntoIter<Mutation>);
            impl MutationStream for Scripted {
                fn peek_time(&self) -> Option<SimTime> {
                    self.0.as_slice().first().map(|m| m.time)
                }
                fn next(&mut self) -> Option<Mutation> {
                    self.0.next()
                }
            }
            Box::new(Scripted(self.0.into_iter()))
        }
    }

    fn setup(k: usize, sources: &[NodeId]) -> (DynRun, MessageMatrix, Coverage) {
        let topo = Topology::ring(4);
        let mut states = MessageMatrix::new(4, k);
        for (m, s) in sources.iter().enumerate() {
            states.insert(s.index(), m);
        }
        let cover = Coverage {
            informed: states.full_count(),
            held: states.total_messages(),
        };
        let run = DynRun::new(topo, Box::new(Script(Vec::new())), 1, &cover);
        (run, states, cover)
    }

    fn at(time: u64, kind: MutationKind) -> Mutation {
        Mutation {
            time: SimTime(time),
            kind,
        }
    }

    #[test]
    fn drain_hooks_and_traces_only_the_mutations_that_changed_something() {
        let script = Script(vec![
            at(5, MutationKind::Depart(NodeId(1))),
            at(6, MutationKind::Depart(NodeId(1))),
            at(8, MutationKind::EdgeUp(NodeId(0), NodeId(1))),
        ]);
        let topo = Topology::line(3);
        let sources = [NodeId(0)];
        let mut states = MessageMatrix::new(3, 1);
        states.insert(0, 0);
        let mut cover = Coverage {
            informed: 1,
            held: 1,
        };
        let mut run = DynRun::new(topo, Box::new(script), 1, &cover);
        let mut probe = MemoryProbe::default();
        let marker = |t| TraceEvent::new(EventKind::Round, t, 0, &[]);
        let mut hooked = Vec::new();
        let last = run.drain_until(
            SimTime(TICKS_PER_ROUND - 1),
            &mut states,
            &sources,
            &mut cover,
            &mut probe,
            |t| t.ticks() * 10,
            |mutation, _, probe| {
                hooked.push(mutation.time);
                probe.record(&marker(mutation.time.ticks()));
            },
        );
        assert_eq!(last, Some(SimTime(8)), "no-ops count as popped");
        assert_eq!(hooked, [SimTime(5)], "only the first departure applied");
        assert_eq!(
            probe.events,
            [marker(5), TraceEvent::new(EventKind::Depart, 5, 50, &[1])],
            "the hook runs before the mutation's record, stamped by `round`"
        );
        assert_eq!(run.topo.alive_count(), 2);
    }

    #[test]
    fn departure_updates_completion_counters() {
        let sources = [NodeId(0)];
        let (mut run, mut states, mut cover) = setup(1, &sources);
        assert_eq!(cover.informed, 1);
        assert!(
            !cover.complete(run.topo.alive_count()),
            "3 uninformed nodes remain"
        );

        // Killing the informed source leaves 3 alive, none informed.
        assert!(run.apply(
            &at(10, MutationKind::Depart(NodeId(0))),
            &mut states,
            &sources,
            &mut cover
        ));
        assert_eq!(cover.informed, 0);
        assert_eq!(cover.held, 0);
        assert_eq!(run.stats.departures, 1);
        assert_eq!(run.stats.min_alive, 3);

        // Killing the remaining uninformed nodes can never complete the
        // run: an empty network is not a covered one.
        for u in 1..4 {
            run.apply(
                &at(20, MutationKind::Depart(NodeId(u))),
                &mut states,
                &sources,
                &mut cover,
            );
        }
        assert_eq!(run.topo.alive_count(), 0);
        assert!(
            !cover.complete(run.topo.alive_count()),
            "empty networks never complete"
        );
        assert_eq!(run.stats.min_alive, 0);
    }

    #[test]
    fn killing_the_uninformed_tail_completes() {
        let sources = [NodeId(0)];
        let (mut run, mut states, mut cover) = setup(1, &sources);
        for u in 1..4 {
            run.apply(
                &at(5, MutationKind::Depart(NodeId(u))),
                &mut states,
                &sources,
                &mut cover,
            );
        }
        assert!(
            cover.complete(run.topo.alive_count()),
            "the lone survivor holds everything"
        );
    }

    #[test]
    fn rejoin_with_reset_relearns_only_owned_rumors() {
        let sources = [NodeId(0), NodeId(2)];
        let (mut run, mut states, mut cover) = setup(2, &sources);
        // Node 2 learns rumor 0 as well, then churns with the Lose policy.
        states.insert(2, 0);
        cover.held += 1;
        cover.informed += 1;

        run.apply(
            &at(5, MutationKind::Depart(NodeId(2))),
            &mut states,
            &sources,
            &mut cover,
        );
        assert_eq!(cover.informed, 0);
        assert!(run.apply(
            &at(
                9,
                MutationKind::Rejoin {
                    node: NodeId(2),
                    reset_messages: true
                }
            ),
            &mut states,
            &sources,
            &mut cover
        ));
        // The learned rumor 0 is gone; its own rumor 1 is re-learned.
        assert!(!states.contains(2, 0));
        assert!(states.contains(2, 1));
        assert_eq!(run.stats.rejoins, 1);
        assert_eq!(cover.informed, 0);
        assert_eq!(run.stats.peak_alive, 4);
    }

    #[test]
    fn rejoin_with_keep_preserves_the_set() {
        let sources = [NodeId(0)];
        let (mut run, mut states, mut cover) = setup(1, &sources);
        run.apply(
            &at(5, MutationKind::Depart(NodeId(0))),
            &mut states,
            &sources,
            &mut cover,
        );
        run.apply(
            &at(
                9,
                MutationKind::Rejoin {
                    node: NodeId(0),
                    reset_messages: false,
                },
            ),
            &mut states,
            &sources,
            &mut cover,
        );
        assert!(states.contains(0, 0));
        assert_eq!(cover.informed, 1);
    }

    #[test]
    fn duplicate_mutations_are_no_ops() {
        let sources = [NodeId(0)];
        let (mut run, mut states, mut cover) = setup(1, &sources);
        assert!(run.apply(
            &at(1, MutationKind::Depart(NodeId(1))),
            &mut states,
            &sources,
            &mut cover
        ));
        assert!(!run.apply(
            &at(2, MutationKind::Depart(NodeId(1))),
            &mut states,
            &sources,
            &mut cover
        ));
        assert_eq!(run.stats.departures, 1);
        assert!(!run.apply(
            &at(3, MutationKind::EdgeDown(NodeId(0), NodeId(2))),
            &mut states,
            &sources,
            &mut cover
        ));
        assert_eq!(run.stats.edge_downs, 0, "non-edges cannot fade");
    }

    #[test]
    fn timeline_records_changes_and_stays_bounded() {
        let sources = [NodeId(0)];
        let (mut run, mut states, mut cover) = setup(1, &sources);
        assert_eq!(
            run.stats.coverage_timeline,
            vec![CoveragePoint {
                time: 0,
                alive: 4,
                informed_alive: 1
            }],
            "the t=0 anchor is always present"
        );
        // Flapping a node across many rounds grows the timeline, but the
        // cap thins it instead of letting it grow without bound.
        for i in 0..200_000u64 {
            let kind = if i % 2 == 0 {
                MutationKind::Depart(NodeId(1))
            } else {
                MutationKind::Rejoin {
                    node: NodeId(1),
                    reset_messages: false,
                }
            };
            run.apply(
                &at(i * TICKS_PER_ROUND * 2, kind),
                &mut states,
                &sources,
                &mut cover,
            );
        }
        let timeline = &run.stats.coverage_timeline;
        assert!(timeline.len() < 4096, "timeline must stay bounded");
        assert!(timeline.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(timeline
            .iter()
            .all(|p| p.informed_alive <= p.alive && p.alive <= 4));
    }
}
