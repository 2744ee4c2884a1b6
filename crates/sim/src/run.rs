//! The run shell both engines share. A run over any inputs holds the
//! same things whatever its execution model: the accounting (the
//! [`SimResult`] it fills in, its [`Coverage`] and its history tally),
//! the [`Underlay`] and the optional [`Membership`] overlay. It takes the
//! same three steps through them: [`Run::open`], a [`Run::boundary`] at
//! each sync round's or async slice's start, and [`Run::finish`]. The
//! engines keep only their loop bodies and their own phase clocks.

use crate::dynamic::{mutate_event, Coverage, DynRun, Underlay};
use crate::metrics::{DynamicsStats, RoundStats};
use crate::scheduler::{ms, RunInputs};
use crate::SimResult;

use std::time::Instant;

use gossip_core::{GraphView, MessageMatrix, NodeId, SimTime, Topology, TransferStats};
use gossip_dynamics::Mutation;
use gossip_membership::Membership;
use gossip_protocols::Protocol;
use gossip_telemetry::Probe;

/// Milliseconds a run spent at its boundaries, summed over them. Each
/// engine files them under its own phase clocks.
#[derive(Clone, Copy, Default)]
pub(crate) struct BoundaryClocks {
    /// Mutation drains: stream pops, applies and the settle.
    pub drain: f64,
    /// The drains' `DynamicTopology::settle`, also counted in `drain`.
    pub settle: f64,
    /// `Membership::tick`.
    pub membership: f64,
}

/// What an event reads of the network right now.
#[derive(Clone, Copy)]
pub(crate) struct Graph<'a> {
    /// The graph gossip runs over: the membership overlay when one is on,
    /// else the active view of the mutating underlay, else the frozen
    /// topology itself.
    pub gossip: &'a (dyn GraphView + Sync),
    /// The frozen topology on a static run; `None` under dynamics. A
    /// proposal on a static underlay crosses one of its edges (an
    /// overlay's views are subgraphs of it).
    pub frozen: Option<&'a Topology>,
}

/// One run in progress: its constants, its accounting and its network.
pub(crate) struct Run<'a> {
    pub protocol: Protocol,
    pub seed: u64,
    pub max_rounds: usize,
    /// Message `m` starts at `sources[m]`; a rejoining source re-learns it.
    sources: &'a [NodeId],
    pub result: SimResult,
    cover: Coverage,
    /// History rows already closed; the open row is number `closed + 1`.
    closed: usize,
    /// Connections counted in the open row so far.
    connections: usize,
    /// Productive connections counted in the open row so far.
    productive: usize,
    pub under: Underlay,
    pub mem: Option<Membership>,
    pub clocks: BoundaryClocks,
}

impl<'a> Run<'a> {
    /// Open a run of `inputs` under the engine named `scheduler`: seed the
    /// message rows from the sources, count the initial coverage, build
    /// the result skeleton (complete at time zero on a single node, say),
    /// then take the topology over and start the overlay.
    pub fn open(inputs: RunInputs<'a>, scheduler: &str) -> (MessageMatrix, Self) {
        let (n, k) = (inputs.topology.num_nodes(), inputs.sources.len());
        assert!(n > 0, "cannot simulate an empty topology");
        assert!(k > 0, "gossip needs at least one message");

        let mut states = MessageMatrix::new(n, k);
        for (m, &node) in inputs.sources.iter().enumerate() {
            states.insert(node.index(), m);
        }
        let cover = Coverage {
            informed: states.full_count(),
            held: states.total_messages(),
        };
        let done = cover.informed == n;
        let result = SimResult {
            topology: inputs.topology.name().to_string(),
            protocol: inputs.protocol.name().to_string(),
            scheduler: scheduler.to_string(),
            nodes: n,
            messages: k,
            seed: inputs.seed,
            completed: done,
            rounds_to_completion: done.then_some(0),
            rounds_executed: 0,
            virtual_time: 0,
            virtual_time_to_completion: done.then_some(0),
            total_connections: 0,
            productive_connections: 0,
            wasted_connections: 0,
            complete_nodes: cover.informed,
            dropped_proposals: 0,
            dynamics: None,
            membership: None,
            rounds: inputs.config.record_rounds.then(Vec::new),
        };
        let (topology, seed) = (inputs.topology, inputs.seed);
        let run = Run {
            protocol: inputs.protocol,
            seed,
            max_rounds: inputs.config.max_rounds,
            sources: inputs.sources,
            result,
            cover,
            closed: 0,
            connections: 0,
            productive: 0,
            under: match inputs.dynamics {
                Some(model) => {
                    Underlay::Mutating(Box::new(DynRun::new(topology, model, seed, &cover)))
                }
                None => Underlay::Frozen(topology),
            },
            mem: inputs.membership.map(|cfg| Membership::new(n, *cfg)),
            clocks: BoundaryClocks::default(),
        };
        (states, run)
    }

    /// Cross the boundary numbered `round` (a sync round, an async slice
    /// pass): pop and apply every mutation due at or before `through`,
    /// then settle the active views. After each one that changed
    /// something, `applied` runs, then an enabled `probe` gets its
    /// `Mutate` record stamped `stamp(time)`. If those mutations alone
    /// completed gossip (the last uninformed node departed, or an
    /// informed one rejoined a covered network), returns the time of the
    /// last one popped; only a drained one can, as the last boundary
    /// found gossip incomplete and only applied mutations move the
    /// coverage. Otherwise the overlay ticks against the settled underlay.
    pub fn boundary(
        &mut self,
        through: SimTime,
        round: u64,
        stamp: impl Fn(SimTime) -> u64,
        states: &mut MessageMatrix,
        probe: &mut dyn Probe,
        mut applied: impl FnMut(&Mutation, &mut DynamicsStats, &mut dyn Probe),
    ) -> Option<SimTime> {
        if let Underlay::Mutating(d) = &mut self.under {
            let draining = Instant::now();
            let mut last = None;
            while let Some(mutation) = d.next_through(through) {
                if d.apply(&mutation, states, self.sources, &mut self.cover) {
                    applied(&mutation, &mut d.stats, probe);
                    if probe.enabled() {
                        probe.record(&mutate_event(&mutation, stamp(mutation.time)));
                    }
                }
                last = Some(mutation.time);
            }
            let settling = Instant::now();
            d.topo.settle();
            self.clocks.settle += ms(settling.elapsed());
            self.clocks.drain += ms(draining.elapsed());
            if last.is_some() && self.cover.complete(d.topo.alive_count()) {
                return last;
            }
        }
        if let Some(m) = &mut self.mem {
            let ticking = Instant::now();
            match &self.under {
                Underlay::Mutating(d) => {
                    m.tick(&d.topo, Some(d.topo.alive_mask()), self.seed, round, probe)
                }
                Underlay::Frozen(t) => m.tick(t, None, self.seed, round, probe),
            }
            self.clocks.membership += ms(ticking.elapsed());
        }
        None
    }

    /// The alive mask of a mutating underlay; `None` on a static run.
    pub fn alive(&self) -> Option<&[bool]> {
        self.under.dynr().map(|d| d.topo.alive_mask())
    }

    /// Virtual time of the next pending mutation, if any.
    pub fn next_mutation(&self) -> Option<SimTime> {
        self.under.dynr().and_then(|d| d.peek_time())
    }

    /// Whether the network emptied for good: no node is alive and no
    /// mutation is pending, so no later round can change anything.
    pub fn emptied(&self) -> bool {
        self.under
            .dynr()
            .is_some_and(|d| d.topo.alive_count() == 0 && d.peek_time().is_none())
    }

    /// The graphs an event reads, for the sliced engine's `dyn` dispatch.
    pub fn graph(&self) -> Graph<'_> {
        let (underlay, frozen): (&(dyn GraphView + Sync), _) = match &self.under {
            Underlay::Mutating(d) => (&d.topo, None),
            Underlay::Frozen(t) => (t, Some(t)),
        };
        let gossip = match &self.mem {
            Some(m) => m,
            None => underlay,
        };
        Graph { gossip, frozen }
    }

    /// Count `formed` connections whose transfers moved `transfer`.
    pub fn count(&mut self, formed: usize, transfer: TransferStats) {
        self.cover.informed += transfer.newly_full;
        self.cover.held += transfer.moved;
        self.result.total_connections += formed;
        self.result.productive_connections += transfer.productive;
        self.result.wasted_connections += formed - transfer.productive;
        self.connections += formed;
        self.productive += transfer.productive;
    }

    /// Close and record every history row below `row`, leaving `row`
    /// open; rows stay dense and 1-based. A connection at time `t`
    /// belongs to row `ceil(t / TICKS_PER_ROUND)`, as in
    /// [`SimTime::round_equivalent`]: the sync engine counts round `r`,
    /// then closes row `r`; the sliced engine closes the rows before an
    /// event's. A no-op when the run keeps no history.
    pub fn close_rows_below(&mut self, row: usize) {
        let Some(history) = &mut self.result.rounds else {
            return;
        };
        while self.closed + 1 < row {
            history.push(RoundStats {
                round: self.closed + 1,
                connections: self.connections,
                productive: self.productive,
                complete_nodes: self.cover.informed,
                messages_held: self.cover.held,
            });
            self.connections = 0;
            self.productive = 0;
            self.closed += 1;
        }
    }

    /// Sample the coverage timeline at `now` (under dynamics), and say
    /// whether gossip is complete over the nodes counted now.
    pub fn covered(&mut self, now: SimTime) -> bool {
        let population = match &mut self.under {
            Underlay::Mutating(d) => {
                d.record(now, &self.cover);
                d.topo.alive_count()
            }
            Underlay::Frozen(_) => self.result.nodes,
        };
        self.cover.complete(population)
    }

    /// Stamp completion at `round` (a round equivalent on async) and
    /// virtual time `time`.
    pub fn complete(&mut self, round: usize, time: u64) {
        self.result.completed = true;
        self.result.rounds_to_completion = Some(round);
        self.result.virtual_time_to_completion = Some(time);
    }

    /// Close the run once `result.virtual_time` and `rounds_executed` are
    /// final: the remaining history rows (the final partial epoch
    /// included, so the history holds exactly `rounds_executed` rows), the
    /// closing coverage and each optional layer's stats.
    pub fn finish(mut self) -> SimResult {
        self.close_rows_below(self.result.rounds_executed + 1);
        self.result.complete_nodes = self.cover.informed;
        self.result.membership = self.mem.as_ref().map(|m| m.finish(self.alive()));
        if let Underlay::Mutating(d) = self.under {
            let end = SimTime(self.result.virtual_time);
            self.result.dynamics = Some(d.finish(end, &self.cover));
        }
        self.result
    }
}
