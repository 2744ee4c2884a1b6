//! In-memory spans for the traced pass: name, start, end, parent. Kept
//! in a `Vec` while the pass runs and written as JSONL when it ends, so
//! recording costs two clock reads and a push per span.
//!
//! A span's layer is the part of its name before the first `.`
//! (`core.topology.build` → `core`). A layer's self time is its spans'
//! durations minus the part of each interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// True when the interval was not clocked around a call but placed
    /// inside its parent from a duration the callee reported (engine
    /// phase sums) or that was measured by replaying the same work
    /// outside it. The span file says which spans these are.
    pub synthetic: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records spans against one monotonic origin. `enter`/`exit` must nest.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            synthetic: false,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (which must be the innermost open one) and return
    /// its duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns() as f64 / 1e9
    }

    /// Place synthetic children back to back from the start of the
    /// closed span `parent`, in the order given. Durations that would
    /// run past the parent's end are clipped to it, so a child never
    /// outlives its parent.
    pub fn place_children(&mut self, parent: usize, children: &[(&str, f64)]) {
        let (mut cursor, end) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        for (name, secs) in children {
            let stop = (cursor + (secs.max(0.0) * 1e9) as u64).min(end);
            self.spans.push(Span {
                parent: Some(parent),
                name: name.to_string(),
                start_ns: cursor,
                end_ns: stop,
                synthetic: true,
            });
            cursor = stop;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A header object carrying `stamp` (what the pass ran on), then one
    /// JSON object per span, in creation order (parents first).
    pub fn write_jsonl<W: Write>(&self, stamp: &str, mut out: W) -> io::Result<()> {
        let stamp: String = stamp
            .chars()
            .filter(|c| !matches!(c, '"' | '\\') && !c.is_control())
            .collect();
        writeln!(out, "{{\"stamp\":\"{stamp}\"}}")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            // Span names are ASCII identifiers chosen by this benchmark,
            // so they need no JSON escaping.
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"synthetic\":{}}}",
                span.name,
                span.layer(),
                span.start_ns,
                span.end_ns,
                self_time_ns(&self.spans, id),
                span.synthetic
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of span `id`'s interval covered by its direct children
/// (their union, clipped to the span: adjacent children add up,
/// overlapping ones are not counted twice).
pub fn covered_ns(spans: &[Span], id: usize) -> u64 {
    let (start, end) = (spans[id].start_ns, spans[id].end_ns);
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.clamp(start, end), s.end_ns.clamp(start, end)))
        .collect();
    kids.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for (s, e) in kids {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    covered
}

/// A span's duration minus the part its children cover.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    spans[id].duration_ns() - covered_ns(spans, id)
}

/// Self time per layer over the subtree rooted at `root` (the root's own
/// self time included, under its own layer).
pub fn self_time_by_layer(spans: &[Span], root: usize) -> BTreeMap<String, u64> {
    let mut inside = vec![false; spans.len()];
    let mut by_layer = BTreeMap::new();
    for id in 0..spans.len() {
        // Parents precede children, so one forward pass marks the subtree.
        inside[id] = id == root || spans[id].parent.is_some_and(|p| inside[p]);
        if inside[id] {
            *by_layer.entry(spans[id].layer().to_string()).or_insert(0) += self_time_ns(spans, id);
        }
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            synthetic: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(None, "root", 0, 100),
            span(Some(0), "core.a", 10, 40), // adjacent to the next one
            span(Some(0), "sim.b", 40, 70),
            span(Some(2), "core.c", 45, 55), // nested: counts against b only
        ];
        assert_eq!(self_time_ns(&spans, 0), 40);
        assert_eq!(self_time_ns(&spans, 1), 30);
        assert_eq!(self_time_ns(&spans, 2), 20);
        assert_eq!(self_time_ns(&spans, 3), 10);
        let by_layer = self_time_by_layer(&spans, 0);
        assert_eq!(by_layer["core"], 40);
        assert_eq!(by_layer["sim"], 20);
        assert_eq!(by_layer["root"], 40);
        // Self times partition the root's duration exactly.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
        // A subtree only counts what is under it.
        assert_eq!(self_time_by_layer(&spans, 2).values().sum::<u64>(), 30);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span(None, "root", 100, 200),
            span(Some(0), "x.a", 110, 150),
            span(Some(0), "x.b", 140, 170), // overlaps a by 10
            span(Some(0), "x.c", 190, 230), // overhangs the parent by 30
        ];
        assert_eq!(covered_ns(&spans, 0), 40 + 20 + 10);
        assert_eq!(self_time_ns(&spans, 0), 30);
    }

    #[test]
    fn recorder_nests_and_places_synthetic_children_inside_the_parent() {
        let mut rec = Recorder::new();
        let root = rec.enter("root");
        let child = rec.enter("sim.bench");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.exit(child);
        rec.exit(root);
        let bench_ns = rec.spans()[child].duration_ns();
        rec.place_children(child, &[("core.x", 0.0005), ("protocols.y", 10.0)]);
        let spans = rec.spans();
        assert_eq!(spans[child].parent, Some(root));
        assert_eq!(spans[2].start_ns, spans[child].start_ns);
        assert_eq!(spans[2].duration_ns(), 500_000);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        assert_eq!(
            spans[3].end_ns, spans[child].end_ns,
            "clipped to the parent"
        );
        assert!(spans[2].synthetic && spans[3].synthetic && !spans[child].synthetic);
        assert_eq!(self_time_ns(spans, child), 0);
        assert_eq!(covered_ns(spans, child), bench_ns);

        let mut out = Vec::new();
        rec.write_jsonl("2 cores, \"quoted\"", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert_eq!(text.lines().next(), Some("{\"stamp\":\"2 cores, quoted\"}"));
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("{\"id\":0,\"parent\":null,\"name\":\"root\""));
        assert!(text.contains("\"layer\":\"protocols\""));
    }
}
