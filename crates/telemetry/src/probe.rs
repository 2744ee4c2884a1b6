//! The observation interface: trace events, the probe trait, and the
//! JSONL trace writer.

use crate::json::json_str;
use std::io::{self, Write};

/// Version stamp of the trace stream format. Bumped whenever an event's
/// JSON shape changes; the golden-file test in `gossip-experiments` pins
/// the rendering of every variant at the current version.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// What kind of topology mutation a [`TraceEvent::Mutate`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutateKind {
    /// A node departed (powered off / walked away).
    Depart,
    /// A departed node returned.
    Rejoin,
    /// An edge faded out.
    EdgeDown,
    /// A faded edge recovered.
    EdgeUp,
    /// A node's neighborhood was replaced (mobility).
    Rewire,
}

impl MutateKind {
    /// Stable lowercase tag used in the JSON rendering.
    pub fn tag(self) -> &'static str {
        match self {
            MutateKind::Depart => "depart",
            MutateKind::Rejoin => "rejoin",
            MutateKind::EdgeDown => "edge_down",
            MutateKind::EdgeUp => "edge_up",
            MutateKind::Rewire => "rewire",
        }
    }
}

/// Which clock edge a [`TraceEvent::Boundary`] marks: the end of a
/// synchronous round, or the start of an asynchronous slice pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundaryScope {
    /// End of synchronous round `round`.
    Round,
    /// Start of time-slice pass `round` (the slice index).
    Slice,
}

impl BoundaryScope {
    /// Stable lowercase tag used in the JSON rendering.
    pub fn tag(self) -> &'static str {
        match self {
            BoundaryScope::Round => "round",
            BoundaryScope::Slice => "slice",
        }
    }
}

/// One semantic event of a run, as observed by a [`Probe`].
///
/// Every variant carries the virtual time `t` (ticks) and the round (or
/// round-equivalent) it belongs to. Node and message ids are raw `u32`s —
/// this crate deliberately does not know the engine's newtypes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// `from` committed to proposing a connection to `to`.
    Propose {
        t: u64,
        round: u64,
        from: u32,
        to: u32,
    },
    /// A connection formed: `initiator` proposed, `acceptor` accepted.
    Connect {
        t: u64,
        round: u64,
        initiator: u32,
        acceptor: u32,
    },
    /// `from`'s proposal to `to` failed to form a connection (the target
    /// was busy, not listening, or gone by arrival time).
    Reject {
        t: u64,
        round: u64,
        from: u32,
        to: u32,
    },
    /// `from`'s proposal targeted a non-neighbor and was dropped by the
    /// resolver (a protocol bug surfaced in release builds).
    Drop {
        t: u64,
        round: u64,
        from: u32,
        to: u32,
    },
    /// Message `msg` moved from `from` to `to` over a connection.
    Transfer {
        t: u64,
        round: u64,
        from: u32,
        to: u32,
        msg: u32,
    },
    /// An open connection between `a` and `b` was severed by a departure
    /// mid-transfer; nothing moved.
    Sever { t: u64, round: u64, a: u32, b: u32 },
    /// A topology mutation was applied. `peer` is the second endpoint for
    /// edge mutations, absent otherwise.
    Mutate {
        t: u64,
        round: u64,
        kind: MutateKind,
        node: u32,
        peer: Option<u32>,
    },
    /// A clock edge: the end of a synchronous round or the start of an
    /// asynchronous slice pass (see [`BoundaryScope`]).
    Boundary {
        t: u64,
        round: u64,
        scope: BoundaryScope,
    },
    /// Membership: `node` (re)joined the overlay by linking to `peer`.
    Join {
        t: u64,
        round: u64,
        node: u32,
        peer: u32,
    },
    /// Membership: a shuffle step added `peer` to `node`'s passive view.
    Shuffle {
        t: u64,
        round: u64,
        node: u32,
        peer: u32,
    },
    /// Membership: `node`'s probe of `peer` failed; `peer` is now
    /// suspected.
    Suspect {
        t: u64,
        round: u64,
        node: u32,
        peer: u32,
    },
    /// Membership: `node` evicted the unrefuted suspect `peer` from its
    /// active view.
    Evict {
        t: u64,
        round: u64,
        node: u32,
        peer: u32,
    },
}

impl TraceEvent {
    /// Render the event as its one-line JSON form (no trailing newline).
    /// This *is* the trace schema; the golden-file test pins it.
    pub fn to_json(&self) -> String {
        match *self {
            TraceEvent::Propose { t, round, from, to } => {
                format!("{{\"ev\":\"propose\",\"t\":{t},\"round\":{round},\"from\":{from},\"to\":{to}}}")
            }
            TraceEvent::Connect {
                t,
                round,
                initiator,
                acceptor,
            } => format!(
                "{{\"ev\":\"connect\",\"t\":{t},\"round\":{round},\"initiator\":{initiator},\"acceptor\":{acceptor}}}"
            ),
            TraceEvent::Reject { t, round, from, to } => {
                format!("{{\"ev\":\"reject\",\"t\":{t},\"round\":{round},\"from\":{from},\"to\":{to}}}")
            }
            TraceEvent::Drop { t, round, from, to } => {
                format!("{{\"ev\":\"drop\",\"t\":{t},\"round\":{round},\"from\":{from},\"to\":{to}}}")
            }
            TraceEvent::Transfer {
                t,
                round,
                from,
                to,
                msg,
            } => format!(
                "{{\"ev\":\"transfer\",\"t\":{t},\"round\":{round},\"from\":{from},\"to\":{to},\"msg\":{msg}}}"
            ),
            TraceEvent::Sever { t, round, a, b } => {
                format!("{{\"ev\":\"sever\",\"t\":{t},\"round\":{round},\"a\":{a},\"b\":{b}}}")
            }
            TraceEvent::Mutate {
                t,
                round,
                kind,
                node,
                peer,
            } => {
                let kind = kind.tag();
                match peer {
                    Some(p) => format!(
                        "{{\"ev\":\"mutate\",\"t\":{t},\"round\":{round},\"kind\":\"{kind}\",\"node\":{node},\"peer\":{p}}}"
                    ),
                    None => format!(
                        "{{\"ev\":\"mutate\",\"t\":{t},\"round\":{round},\"kind\":\"{kind}\",\"node\":{node}}}"
                    ),
                }
            }
            TraceEvent::Boundary { t, round, scope } => {
                let scope = scope.tag();
                format!("{{\"ev\":\"boundary\",\"t\":{t},\"round\":{round},\"scope\":\"{scope}\"}}")
            }
            TraceEvent::Join {
                t,
                round,
                node,
                peer,
            } => {
                format!("{{\"ev\":\"join\",\"t\":{t},\"round\":{round},\"node\":{node},\"peer\":{peer}}}")
            }
            TraceEvent::Shuffle {
                t,
                round,
                node,
                peer,
            } => {
                format!("{{\"ev\":\"shuffle\",\"t\":{t},\"round\":{round},\"node\":{node},\"peer\":{peer}}}")
            }
            TraceEvent::Suspect {
                t,
                round,
                node,
                peer,
            } => {
                format!("{{\"ev\":\"suspect\",\"t\":{t},\"round\":{round},\"node\":{node},\"peer\":{peer}}}")
            }
            TraceEvent::Evict {
                t,
                round,
                node,
                peer,
            } => {
                format!("{{\"ev\":\"evict\",\"t\":{t},\"round\":{round},\"node\":{node},\"peer\":{peer}}}")
            }
        }
    }
}

/// The observation interface the engines call at semantic points.
///
/// The default implementation is a no-op with `enabled() == false`, which
/// is what lets the engines skip event derivation entirely on the hot
/// path: every emission site is guarded by one `enabled()` check per round
/// or slice. An enabled probe is only ever called from serial engine
/// sections (or fed from deterministically merged per-region logs) and
/// never consumes engine randomness, so enabling one cannot perturb the
/// simulation.
pub trait Probe {
    /// Should the engine derive and deliver events at all?
    fn enabled(&self) -> bool {
        false
    }

    /// Observe one event. Called in deterministic order; must not fail.
    fn record(&mut self, event: &TraceEvent) {
        let _ = event;
    }

    /// A new run's events follow: the sweep loop calls this before each
    /// run, so a probe that spans runs can mark where one begins.
    fn begin_run(&mut self, scenario_id: &str, nodes: usize, messages: usize, seed: u64) {
        let _ = (scenario_id, nodes, messages, seed);
    }
}

/// The disabled probe: engines run exactly their untraced hot path.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

/// A probe that buffers every event in memory — the determinism tests'
/// instrument of choice (two runs trace identically iff the vectors are
/// equal).
#[derive(Clone, Debug, Default)]
pub struct MemoryProbe {
    /// Every recorded event, in delivery order.
    pub events: Vec<TraceEvent>,
}

impl Probe for MemoryProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }
}

/// A probe that renders events as a JSONL stream.
///
/// Engines cannot fail, so `record` never surfaces I/O errors; the first
/// error is latched, further writes are suppressed, and the caller
/// retrieves it via [`finish`](Self::finish) once the run ends. Wrap the
/// inner writer in a `BufWriter` — one syscall per event would dominate
/// small runs.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    events: u64,
    error: Option<io::Error>,
}

impl<W: Write> TraceWriter<W> {
    /// A writer emitting to `out`. No header is written until
    /// [`begin_run`](Self::begin_run).
    pub fn new(out: W) -> Self {
        TraceWriter {
            out,
            events: 0,
            error: None,
        }
    }

    /// Write the header line opening one run's event stream. A file may
    /// hold several runs (a seed sweep traces each seed in sequence); each
    /// starts with its own header.
    pub fn begin_run(&mut self, scenario_id: &str, nodes: usize, messages: usize, seed: u64) {
        let line = format!(
            "{{\"trace_schema\":{TRACE_SCHEMA_VERSION},\"scenario_id\":{},\"nodes\":{nodes},\"messages\":{messages},\"seed\":{seed}}}\n",
            json_str(scenario_id)
        );
        self.write(line.as_bytes());
    }

    /// Events recorded so far (suppressed post-error writes included).
    pub fn events(&self) -> u64 {
        self.events
    }

    fn write(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(bytes) {
            self.error = Some(e);
        }
    }

    /// Flush the stream and surface the first error encountered anywhere
    /// in the run — the clean-CLI-error half of the infallible-engine
    /// contract.
    pub fn finish(mut self) -> io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }

    /// [`finish`](Self::finish), but hand back the inner writer — the
    /// golden-file tests trace into a `Vec<u8>` and read it back.
    pub fn into_inner(mut self) -> io::Result<W> {
        match self.error.take() {
            Some(e) => Err(e),
            None => {
                self.out.flush()?;
                Ok(self.out)
            }
        }
    }
}

impl<W: Write> Probe for TraceWriter<W> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        self.events += 1;
        let mut line = event.to_json();
        line.push('\n');
        self.write(line.as_bytes());
    }

    fn begin_run(&mut self, scenario_id: &str, nodes: usize, messages: usize, seed: u64) {
        TraceWriter::begin_run(self, scenario_id, nodes, messages, seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_renders_its_pinned_shape() {
        let cases = [
            (
                TraceEvent::Propose {
                    t: 5,
                    round: 1,
                    from: 2,
                    to: 3,
                },
                r#"{"ev":"propose","t":5,"round":1,"from":2,"to":3}"#,
            ),
            (
                TraceEvent::Connect {
                    t: 6,
                    round: 1,
                    initiator: 2,
                    acceptor: 3,
                },
                r#"{"ev":"connect","t":6,"round":1,"initiator":2,"acceptor":3}"#,
            ),
            (
                TraceEvent::Reject {
                    t: 7,
                    round: 1,
                    from: 4,
                    to: 5,
                },
                r#"{"ev":"reject","t":7,"round":1,"from":4,"to":5}"#,
            ),
            (
                TraceEvent::Drop {
                    t: 8,
                    round: 1,
                    from: 4,
                    to: 9,
                },
                r#"{"ev":"drop","t":8,"round":1,"from":4,"to":9}"#,
            ),
            (
                TraceEvent::Transfer {
                    t: 9,
                    round: 1,
                    from: 2,
                    to: 3,
                    msg: 0,
                },
                r#"{"ev":"transfer","t":9,"round":1,"from":2,"to":3,"msg":0}"#,
            ),
            (
                TraceEvent::Sever {
                    t: 10,
                    round: 1,
                    a: 1,
                    b: 2,
                },
                r#"{"ev":"sever","t":10,"round":1,"a":1,"b":2}"#,
            ),
            (
                TraceEvent::Mutate {
                    t: 11,
                    round: 1,
                    kind: MutateKind::Depart,
                    node: 7,
                    peer: None,
                },
                r#"{"ev":"mutate","t":11,"round":1,"kind":"depart","node":7}"#,
            ),
            (
                TraceEvent::Mutate {
                    t: 12,
                    round: 1,
                    kind: MutateKind::EdgeDown,
                    node: 7,
                    peer: Some(8),
                },
                r#"{"ev":"mutate","t":12,"round":1,"kind":"edge_down","node":7,"peer":8}"#,
            ),
            (
                TraceEvent::Boundary {
                    t: 1024,
                    round: 1,
                    scope: BoundaryScope::Round,
                },
                r#"{"ev":"boundary","t":1024,"round":1,"scope":"round"}"#,
            ),
            (
                TraceEvent::Join {
                    t: 1024,
                    round: 1,
                    node: 4,
                    peer: 5,
                },
                r#"{"ev":"join","t":1024,"round":1,"node":4,"peer":5}"#,
            ),
            (
                TraceEvent::Shuffle {
                    t: 2048,
                    round: 2,
                    node: 4,
                    peer: 6,
                },
                r#"{"ev":"shuffle","t":2048,"round":2,"node":4,"peer":6}"#,
            ),
            (
                TraceEvent::Suspect {
                    t: 3072,
                    round: 3,
                    node: 4,
                    peer: 5,
                },
                r#"{"ev":"suspect","t":3072,"round":3,"node":4,"peer":5}"#,
            ),
            (
                TraceEvent::Evict {
                    t: 5120,
                    round: 5,
                    node: 4,
                    peer: 5,
                },
                r#"{"ev":"evict","t":5120,"round":5,"node":4,"peer":5}"#,
            ),
        ];
        for (ev, want) in cases {
            assert_eq!(ev.to_json(), want);
        }
    }

    #[test]
    fn trace_writer_latches_the_first_io_error() {
        struct Failing(usize);
        impl Write for Failing {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "closed"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = TraceWriter::new(Failing(1));
        w.begin_run("x", 2, 1, 0);
        w.record(&TraceEvent::Boundary {
            t: 0,
            round: 0,
            scope: BoundaryScope::Round,
        });
        w.record(&TraceEvent::Boundary {
            t: 1,
            round: 0,
            scope: BoundaryScope::Round,
        });
        assert_eq!(w.events(), 2, "records still counted after the error");
        let err = w.finish().expect_err("the latched error must surface");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn memory_probe_buffers_in_order() {
        let mut p = MemoryProbe::default();
        assert!(p.enabled());
        let a = TraceEvent::Propose {
            t: 1,
            round: 1,
            from: 0,
            to: 1,
        };
        let b = TraceEvent::Reject {
            t: 2,
            round: 1,
            from: 0,
            to: 1,
        };
        p.record(&a);
        p.record(&b);
        assert_eq!(p.events, vec![a, b]);
    }
}
