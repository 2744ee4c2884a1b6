//! The observation interface: trace events, the probe trait, and the
//! JSONL trace writer.

use crate::json::{json_str, Value};
use std::io::{self, Write};

/// Version stamp of the trace stream format. Bumped whenever an event's
/// JSON shape changes; the golden-file test in `gossip-experiments` pins
/// the rendering of every kind at the current version.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// What a [`TraceEvent`] records — one variant per row of `SCHEMA`, in
/// row order. The ids named below are the event's `ids`, in that order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// `from` committed to proposing a connection to `to`.
    Propose,
    /// A connection formed: `initiator` proposed, `acceptor` accepted.
    Connect,
    /// `from`'s proposal to `to` failed to form a connection (the target
    /// was busy, not listening, or gone by arrival time).
    Reject,
    /// `from`'s proposal to the non-neighbor `to` was dropped. No shipped
    /// engine emits it (a non-edge proposal panics); the kind stays so
    /// traces and `analyze` keep their rows.
    Drop,
    /// Message `msg` moved from `from` to `to` over a connection.
    Transfer,
    /// An open connection between `a` and `b` was severed by a departure
    /// mid-transfer; nothing moved.
    Sever,
    /// Mutation: `node` departed (powered off / walked away).
    Depart,
    /// Mutation: the departed `node` returned.
    Rejoin,
    /// Mutation: the edge `node`–`peer` faded out.
    EdgeDown,
    /// Mutation: the faded edge `node`–`peer` recovered.
    EdgeUp,
    /// Mutation: `node`'s neighborhood was replaced (mobility).
    Rewire,
    /// Clock edge: the end of synchronous round `round`. No ids.
    Round,
    /// Clock edge: the start of time-slice pass `round` (the slice
    /// index). No ids.
    Slice,
    /// Membership: `node` (re)joined the overlay by linking to `peer`.
    Join,
    /// Membership: a shuffle step added `peer` to `node`'s passive view.
    Shuffle,
    /// Membership: `node`'s probe of `peer` failed; `peer` is now
    /// suspected.
    Suspect,
    /// Membership: `node` evicted the unrefuted suspect `peer` from its
    /// active view.
    Evict,
}

/// One kind's line: `{"ev":<ev>,"t":…,"round":…[,<member>],<id>:…}`.
struct Row {
    kind: EventKind,
    ev: &'static str,
    /// The constant `(key, value)` member that tells apart the kinds
    /// sharing an `ev` tag.
    member: Option<(&'static str, &'static str)>,
    /// The key of each id, in order.
    ids: &'static [&'static str],
}

const fn row(
    kind: EventKind,
    ev: &'static str,
    member: Option<(&'static str, &'static str)>,
    ids: &'static [&'static str],
) -> Row {
    Row {
        kind,
        ev,
        member,
        ids,
    }
}

/// The trace schema: [`TraceEvent::to_json`] writes a row front to back,
/// [`TraceEvent::from_json`] reads it the same way, and nothing else in
/// the workspace spells a trace key.
const SCHEMA: [Row; EventKind::COUNT] = {
    use EventKind::*;
    [
        row(Propose, "propose", None, &["from", "to"]),
        row(Connect, "connect", None, &["initiator", "acceptor"]),
        row(Reject, "reject", None, &["from", "to"]),
        row(Drop, "drop", None, &["from", "to"]),
        row(Transfer, "transfer", None, &["from", "to", "msg"]),
        row(Sever, "sever", None, &["a", "b"]),
        row(Depart, "mutate", Some(("kind", "depart")), &["node"]),
        row(Rejoin, "mutate", Some(("kind", "rejoin")), &["node"]),
        row(
            EdgeDown,
            "mutate",
            Some(("kind", "edge_down")),
            &["node", "peer"],
        ),
        row(
            EdgeUp,
            "mutate",
            Some(("kind", "edge_up")),
            &["node", "peer"],
        ),
        row(Rewire, "mutate", Some(("kind", "rewire")), &["node"]),
        row(Round, "boundary", Some(("scope", "round")), &[]),
        row(Slice, "boundary", Some(("scope", "slice")), &[]),
        row(Join, "join", None, &["node", "peer"]),
        row(Shuffle, "shuffle", None, &["node", "peer"]),
        row(Suspect, "suspect", None, &["node", "peer"]),
        row(Evict, "evict", None, &["node", "peer"]),
    ]
};

// A kind's row sits at the kind's discriminant.
const _: () = {
    let mut i = 0;
    while i < SCHEMA.len() {
        assert!(SCHEMA[i].kind as usize == i);
        i += 1;
    }
};

impl EventKind {
    /// How many kinds there are; `kind as usize` is below it.
    pub const COUNT: usize = EventKind::Evict as usize + 1;

    /// Every kind, in declaration order.
    pub fn all() -> impl Iterator<Item = EventKind> {
        SCHEMA.iter().map(|row| row.kind)
    }

    /// The `ev` tag of the kind's trace line. The five mutations share
    /// one, as do the two clock edges.
    pub fn tag(self) -> &'static str {
        self.row().ev
    }

    fn row(self) -> &'static Row {
        &SCHEMA[self as usize]
    }
}

/// One semantic event of a run, as observed by a [`Probe`]: the virtual
/// time `t` (ticks) and the round (or round-equivalent) it belongs to,
/// what happened, and the node and message ids its [`EventKind`] names.
/// Ids are raw `u32`s — this crate deliberately does not know the engine's
/// newtypes — and the slots a kind does not use are zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub t: u64,
    pub round: u64,
    pub kind: EventKind,
    pub ids: [u32; 3],
}

/// Append `,"key":value` to a trace line. By hand because `to_json` runs
/// once per traced event and spends more in `fmt` than on the digits.
fn push_member(line: &mut String, key: &str, value: u64) {
    line.extend([",\"", key, "\":"]);
    let mut digits = [b'0'; 20];
    let (mut at, mut rest) = (digits.len(), value);
    loop {
        at -= 1;
        digits[at] += (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    line.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

impl TraceEvent {
    /// The event of `kind` at tick `t` of `round`, over the ids the kind
    /// names, in its order.
    pub fn new(kind: EventKind, t: u64, round: u64, ids: &[u32]) -> Self {
        assert_eq!(ids.len(), kind.row().ids.len(), "ids of a {kind:?}");
        let mut padded = [0; 3];
        padded[..ids.len()].copy_from_slice(ids);
        TraceEvent {
            t,
            round,
            kind,
            ids: padded,
        }
    }

    /// Render the event as its one-line JSON form (no trailing newline).
    /// This *is* the trace schema; the golden-file test pins it.
    pub fn to_json(&self) -> String {
        let row = self.kind.row();
        let mut line = String::with_capacity(96);
        line.extend(["{\"ev\":\"", row.ev, "\""]);
        push_member(&mut line, "t", self.t);
        push_member(&mut line, "round", self.round);
        if let Some((key, value)) = row.member {
            line.extend([",\"", key, "\":\"", value, "\""]);
        }
        for (key, id) in row.ids.iter().zip(self.ids) {
            push_member(&mut line, key, id.into());
        }
        line.push('}');
        line
    }

    /// Read a parsed trace line back: [`to_json`](Self::to_json) in
    /// reverse. `None` for an `ev` (or constant member) no row has and for
    /// a missing or ill-typed time, round or id; members no row names are
    /// ignored.
    pub fn from_json(v: &Value) -> Option<TraceEvent> {
        let ev = v.get("ev")?.as_str()?;
        let row = SCHEMA.iter().find(|row| {
            row.ev == ev
                && row
                    .member
                    .is_none_or(|(key, value)| v.get(key).and_then(Value::as_str) == Some(value))
        })?;
        let mut ids = [0; 3];
        for (id, key) in ids.iter_mut().zip(row.ids) {
            *id = u32::try_from(v.get(key)?.as_u64()?).ok()?;
        }
        Some(TraceEvent {
            t: v.get("t")?.as_u64()?,
            round: v.get("round")?.as_u64()?,
            kind: row.kind,
            ids,
        })
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
    use crate::json::parse;
    use EventKind::*;

    #[test]
    fn every_variant_renders_its_pinned_shape() {
        let cases = [
            (
                TraceEvent::new(Propose, 5, 1, &[2, 3]),
                r#"{"ev":"propose","t":5,"round":1,"from":2,"to":3}"#,
            ),
            (
                TraceEvent::new(Connect, 6, 1, &[2, 3]),
                r#"{"ev":"connect","t":6,"round":1,"initiator":2,"acceptor":3}"#,
            ),
            (
                TraceEvent::new(Reject, 7, 1, &[4, 5]),
                r#"{"ev":"reject","t":7,"round":1,"from":4,"to":5}"#,
            ),
            (
                TraceEvent::new(Drop, 8, 1, &[4, 9]),
                r#"{"ev":"drop","t":8,"round":1,"from":4,"to":9}"#,
            ),
            (
                TraceEvent::new(Transfer, 9, 1, &[2, 3, 0]),
                r#"{"ev":"transfer","t":9,"round":1,"from":2,"to":3,"msg":0}"#,
            ),
            (
                TraceEvent::new(Sever, 10, 1, &[1, 2]),
                r#"{"ev":"sever","t":10,"round":1,"a":1,"b":2}"#,
            ),
            (
                TraceEvent::new(Depart, 11, 1, &[7]),
                r#"{"ev":"mutate","t":11,"round":1,"kind":"depart","node":7}"#,
            ),
            (
                TraceEvent::new(EdgeDown, 12, 1, &[7, 8]),
                r#"{"ev":"mutate","t":12,"round":1,"kind":"edge_down","node":7,"peer":8}"#,
            ),
            (
                TraceEvent::new(Round, 1024, 1, &[]),
                r#"{"ev":"boundary","t":1024,"round":1,"scope":"round"}"#,
            ),
            (
                TraceEvent::new(Join, 1024, 1, &[4, 5]),
                r#"{"ev":"join","t":1024,"round":1,"node":4,"peer":5}"#,
            ),
            (
                TraceEvent::new(Shuffle, 2048, 2, &[4, 6]),
                r#"{"ev":"shuffle","t":2048,"round":2,"node":4,"peer":6}"#,
            ),
            (
                TraceEvent::new(Suspect, 3072, 3, &[4, 5]),
                r#"{"ev":"suspect","t":3072,"round":3,"node":4,"peer":5}"#,
            ),
            (
                TraceEvent::new(Evict, 5120, 5, &[4, 5]),
                r#"{"ev":"evict","t":5120,"round":5,"node":4,"peer":5}"#,
            ),
        ];
        for (ev, want) in cases {
            assert_eq!(ev.to_json(), want);
        }
    }

    /// An event of `kind` whose every field differs from the others'.
    fn sample(kind: EventKind) -> TraceEvent {
        let ids = [u32::MAX, 7, 129];
        let n = kind.row().ids.len();
        TraceEvent::new(kind, u64::MAX - kind as u64, 3 + kind as u64, &ids[..n])
    }

    #[test]
    fn every_row_reads_back_what_it_wrote() {
        assert_eq!(EventKind::all().count(), EventKind::COUNT);
        for kind in EventKind::all() {
            let e = sample(kind);
            let line = e.to_json();
            assert_eq!(
                TraceEvent::from_json(&parse(&line).unwrap()),
                Some(e),
                "{line}"
            );
        }
        // Both mutate shapes and both boundary scopes are rows of their own.
        let read = |line: &str| TraceEvent::from_json(&parse(line).unwrap());
        assert_eq!(
            read(r#"{"ev":"mutate","t":1,"round":0,"kind":"rewire","node":4}"#),
            Some(TraceEvent::new(Rewire, 1, 0, &[4]))
        );
        assert_eq!(
            read(r#"{"ev":"mutate","t":1,"round":0,"kind":"edge_up","node":4,"peer":5}"#),
            Some(TraceEvent::new(EdgeUp, 1, 0, &[4, 5]))
        );
        assert_eq!(
            read(r#"{"ev":"boundary","t":2048,"round":2,"scope":"slice"}"#),
            Some(TraceEvent::new(Slice, 2048, 2, &[]))
        );
    }

    #[test]
    fn lines_no_row_describes_read_as_none() {
        for kind in EventKind::all() {
            let line = sample(kind).to_json();
            let row = kind.row();
            // Each id in turn missing, a string, negative, fractional and
            // past `u32`; then the same for the clock fields.
            for key in row.ids.iter().chain(&["t", "round"]) {
                let member = format!("\"{key}\":");
                let at = line.find(&member).unwrap() + member.len();
                let end = at + line[at..].find([',', '}']).unwrap();
                for bad in ["\"x\"", "-1", "1.5", "4294967296", "null"] {
                    if bad == "4294967296" && ["t", "round"].contains(key) {
                        continue; // a fine tick
                    }
                    let broken = format!("{}{bad}{}", &line[..at], &line[end..]);
                    assert_eq!(
                        TraceEvent::from_json(&parse(&broken).unwrap()),
                        None,
                        "{broken}"
                    );
                }
                let renamed = line.replace(&member, "\"gone\":");
                assert_eq!(
                    TraceEvent::from_json(&parse(&renamed).unwrap()),
                    None,
                    "{renamed}"
                );
            }
            if let Some((key, value)) = row.member {
                let member = format!("\"{key}\":\"{value}\"");
                for bad in [
                    format!("\"{key}\":\"other\""),
                    format!("\"{key}\":3"),
                    format!("\"gone\":\"{value}\""),
                ] {
                    let broken = line.replace(&member, &bad);
                    assert_eq!(
                        TraceEvent::from_json(&parse(&broken).unwrap()),
                        None,
                        "{broken}"
                    );
                }
            }
        }
        for line in [
            r#"{"ev":"teleport","t":1,"round":1,"from":2,"to":3}"#,
            r#"{"ev":7,"t":1,"round":1}"#,
            r#"{"t":1,"round":1,"from":2,"to":3}"#,
            r#"[1,2]"#,
        ] {
            assert_eq!(TraceEvent::from_json(&parse(line).unwrap()), None, "{line}");
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
        w.record(&TraceEvent::new(Round, 0, 0, &[]));
        w.record(&TraceEvent::new(Round, 1, 0, &[]));
        assert_eq!(w.events(), 2, "records still counted after the error");
        let err = w.finish().expect_err("the latched error must surface");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn memory_probe_buffers_in_order() {
        let mut p = MemoryProbe::default();
        assert!(p.enabled());
        let a = TraceEvent::new(Propose, 1, 1, &[0, 1]);
        let b = TraceEvent::new(Reject, 2, 1, &[0, 1]);
        p.record(&a);
        p.record(&b);
        assert_eq!(p.events, vec![a, b]);
    }
}
