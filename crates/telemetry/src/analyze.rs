//! The offline `analyze` stage: turn emitted run/sweep JSONL lines and
//! trace files into summary statistics — rounds-to-completion
//! distributions with percentiles, advert-vs-uniform speedup tables,
//! dissemination-depth stats from the infection DAG, and per-region
//! balance summaries.
//!
//! Input is line-oriented and self-describing: a line with `"metrics"`
//! (or, from older builds, `"bench"`) is a bench line, a timing line
//! (counted, and kept out of the run tables: a bench run stops at its
//! round budget, so it would read as a failed run), any
//! other with `"schema"` and `"scenario_id"` is a run line, one
//! with `"trace_schema"` opens a trace stream, one with `"ev"` is a trace
//! event of the currently open stream, read through
//! [`TraceEvent::from_json`] — the one reader of the trace format. Anything
//! else (CSV headers, other JSON, an event line no schema row describes)
//! is counted and skipped, so `analyze` accepts whole output directories
//! without ceremony.

use crate::json::{parse, Value};
use crate::metrics::{LoadSummary, RegionLoad};
use crate::{EventKind, TraceEvent, TRACE_SCHEMA_VERSION};
use gossip_core::{Partition, MATCH_REGIONS};
use std::collections::HashMap;

/// One run line's distilled facts.
#[derive(Clone, Debug)]
struct RunRow {
    /// `scenario_id` with the seed suffix stripped — the sweep group.
    group: String,
    protocol: String,
    rounds: Option<u64>,
    /// Membership-overlay counters, present exactly when the line carries
    /// a `membership` object.
    membership: Option<MemRow>,
    /// `dynamics.departures`, when the line carries a dynamics object —
    /// the churn denominator the eviction false-positive rate is read
    /// against.
    departures: Option<u64>,
}

/// The membership counters of one run line.
#[derive(Clone, Copy, Debug)]
struct MemRow {
    suspicions: u64,
    evictions: u64,
    false_positives: u64,
    isolated: u64,
}

/// Accumulator for the trace stream currently being read.
#[derive(Debug)]
struct TraceAccum {
    scenario_id: String,
    /// `Some` when the header's `trace_schema` is not
    /// [`TRACE_SCHEMA_VERSION`]: what it says instead, and how many event
    /// lines of the stream were therefore left unread.
    unread: Option<(String, u64)>,
    nodes: usize,
    messages: usize,
    /// The engines' regions of `nodes`, for the balance tallies.
    part: Partition,
    /// Infection depth of every `(message, node)` pair reached so far.
    /// The first node seen *sending* a message is its source (depth 0).
    /// Keyed, not laid out as `messages × nodes`: the header is input from
    /// outside and must not choose an allocation.
    depth: HashMap<(u32, u32), u32>,
    /// Events seen, indexed by `EventKind as usize`.
    counts: [u64; EventKind::COUNT],
    connects: RegionLoad,
    transfers: RegionLoad,
}

/// One finished trace stream's summary.
#[derive(Debug)]
struct TraceStats {
    scenario_id: String,
    /// As [`TraceAccum::unread`].
    unread: Option<(String, u64)>,
    counts: [u64; EventKind::COUNT],
    /// `(message, node)` pairs reached (sources included) out of
    /// `messages × nodes`.
    reached: usize,
    universe: usize,
    depth_max: u32,
    /// Mean infection depth over reached non-source pairs.
    depth_mean: f64,
    connects: LoadSummary,
    transfers: LoadSummary,
}

/// The total and the `"propose 3, connect 2, …"` listing of `counts` over
/// the kinds `keep` admits, by `ev` tag: kinds sharing a tag (the five
/// mutations, the two clock edges) are adjacent and sum into one item.
fn tally(counts: &[u64; EventKind::COUNT], keep: impl Fn(EventKind) -> bool) -> (u64, String) {
    let mut items: Vec<(&str, u64)> = Vec::new();
    for kind in EventKind::all().filter(|&k| keep(k)) {
        match items.last_mut() {
            Some((tag, n)) if *tag == kind.tag() => *n += counts[kind as usize],
            _ => items.push((kind.tag(), counts[kind as usize])),
        }
    }
    let listing: Vec<String> = items.iter().map(|(tag, n)| format!("{tag} {n}")).collect();
    (items.iter().map(|(_, n)| n).sum(), listing.join(", "))
}

/// Streaming consumer of analyze input; feed lines, then render the
/// report with [`report`](Self::report).
#[derive(Debug, Default)]
pub struct Analyzer {
    runs: Vec<RunRow>,
    traces: Vec<TraceStats>,
    current: Option<TraceAccum>,
    /// Lines left out, by why: bench lines (recognised, but not runs),
    /// JSON of no known shape, and not JSON at all.
    timing_lines: u64,
    unrecognised: u64,
    unparsable: u64,
}

/// Strip the trailing `-s<seed>` component a sweep appends to each cell's
/// `scenario_id`, yielding the sweep-group key.
fn strip_seed(scenario_id: &str) -> String {
    if let Some(idx) = scenario_id.rfind("-s") {
        let tail = &scenario_id[idx + 2..];
        if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) {
            return scenario_id[..idx].to_string();
        }
    }
    scenario_id.to_string()
}

/// Nearest-rank percentile of an ascending-sorted slice; an empty one
/// panics in the `clamp` (its bounds cross).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl Analyzer {
    /// [`add_line`](Self::add_line) for a line read as raw bytes: one that
    /// is not UTF-8 is unparsable, like any other line that is not JSON.
    pub fn add_bytes(&mut self, line: &[u8]) {
        match std::str::from_utf8(line) {
            Ok(line) => self.add_line(line),
            Err(_) => self.unparsable += 1,
        }
    }

    /// Consume one input line, classifying it by shape.
    pub fn add_line(&mut self, line: &str) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        let Ok(v) = parse(line) else {
            self.unparsable += 1;
            return;
        };
        if let Some(schema) = v.get("trace_schema") {
            self.finish_trace();
            let size = |key, default| v.get(key).and_then(Value::as_u64).unwrap_or(default);
            let version = schema.as_u64();
            self.current = Some(TraceAccum {
                scenario_id: v
                    .get("scenario_id")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                unread: (version != Some(TRACE_SCHEMA_VERSION.into()))
                    .then(|| (version.map_or("?".to_string(), |v| v.to_string()), 0)),
                nodes: size("nodes", 0) as usize,
                messages: size("messages", 1) as usize,
                part: Partition::of(size("nodes", 0) as usize),
                depth: HashMap::new(),
                counts: [0; EventKind::COUNT],
                connects: RegionLoad::default(),
                transfers: RegionLoad::default(),
            });
            return;
        }
        if v.get("ev").is_some() {
            match self.current.as_mut() {
                None => self.unrecognised += 1, // event before any header
                Some(TraceAccum {
                    unread: Some((_, lines)),
                    ..
                }) => *lines += 1,
                Some(accum) => match TraceEvent::from_json(&v) {
                    Some(event) => accum.observe(&event),
                    None => self.unrecognised += 1, // no schema row describes it
                },
            }
            return;
        }
        if v.get("metrics").is_some() || v.get("bench").is_some() {
            self.timing_lines += 1;
            return;
        }
        if v.get("schema").is_some() && v.get("scenario_id").is_some() {
            let scenario_id = v
                .get("scenario_id")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            let membership = v.get("membership").map(|m| {
                let count = |key: &str| m.get(key).and_then(Value::as_u64).unwrap_or(0);
                MemRow {
                    suspicions: count("suspicions"),
                    evictions: count("evictions"),
                    false_positives: count("false_positive_evictions"),
                    isolated: count("isolated_nodes"),
                }
            });
            self.runs.push(RunRow {
                group: strip_seed(&scenario_id),
                protocol: v
                    .get("protocol")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                rounds: v.get("rounds_to_completion").and_then(Value::as_u64),
                membership,
                departures: v
                    .get("dynamics")
                    .and_then(|d| d.get("departures"))
                    .and_then(Value::as_u64),
            });
            return;
        }
        self.unrecognised += 1;
    }

    fn finish_trace(&mut self) {
        if let Some(accum) = self.current.take() {
            self.traces.push(accum.finish());
        }
    }

    /// Render the full report. Sections appear only when their inputs do.
    pub fn report(mut self) -> String {
        self.finish_trace();
        let mut out = String::new();

        // Rounds-to-completion distributions, one row per sweep group.
        let mut groups: Vec<String> = self.runs.iter().map(|r| r.group.clone()).collect();
        groups.sort();
        groups.dedup();
        if !groups.is_empty() {
            let width = groups.iter().map(|g| g.len()).max().unwrap().max(8);
            out.push_str("rounds to completion\n");
            out.push_str(&format!(
                "  {:width$}  {:>5} {:>5} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9}\n",
                "scenario", "runs", "done", "min", "p50", "p90", "p99", "max", "mean"
            ));
            for group in &groups {
                let rows: Vec<&RunRow> = self.runs.iter().filter(|r| &r.group == group).collect();
                let mut done: Vec<u64> = rows.iter().filter_map(|r| r.rounds).collect();
                done.sort_unstable();
                if done.is_empty() {
                    out.push_str(&format!(
                        "  {:width$}  {:>5} {:>5}  (no completed runs)\n",
                        group,
                        rows.len(),
                        0
                    ));
                    continue;
                }
                let mean = done.iter().sum::<u64>() as f64 / done.len() as f64;
                out.push_str(&format!(
                    "  {:width$}  {:>5} {:>5} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9.1}\n",
                    group,
                    rows.len(),
                    done.len(),
                    done[0],
                    percentile(&done, 0.5),
                    percentile(&done, 0.9),
                    percentile(&done, 0.99),
                    done[done.len() - 1],
                    mean,
                ));
            }
        }

        // Advert-vs-uniform speedups: pair groups identical but for the
        // protocol token.
        let mut pairs: Vec<(String, Vec<u64>, Vec<u64>)> = Vec::new();
        for group in &groups {
            let rows: Vec<&RunRow> = self.runs.iter().filter(|r| &r.group == group).collect();
            let protocol = rows.first().map(|r| r.protocol.clone()).unwrap_or_default();
            if protocol != "advert" {
                continue;
            }
            let key = group.replacen("-advert-", "-*-", 1);
            let mut advert: Vec<u64> = rows.iter().filter_map(|r| r.rounds).collect();
            let mut uniform: Vec<u64> = self
                .runs
                .iter()
                .filter(|r| {
                    r.protocol == "uniform" && r.group.replacen("-uniform-", "-*-", 1) == key
                })
                .filter_map(|r| r.rounds)
                .collect();
            advert.sort_unstable();
            uniform.sort_unstable();
            if !advert.is_empty() && !uniform.is_empty() {
                pairs.push((key, advert, uniform));
            }
        }
        if !pairs.is_empty() {
            let width = pairs.iter().map(|(k, ..)| k.len()).max().unwrap().max(8);
            out.push_str("\nadvert vs uniform speedup (completed rounds)\n");
            out.push_str(&format!(
                "  {:width$}  {:>10} {:>11} {:>11} {:>12}\n",
                "scenario", "advert_p50", "uniform_p50", "speedup_p50", "speedup_mean"
            ));
            for (key, advert, uniform) in &pairs {
                let (ap50, up50) = (percentile(advert, 0.5), percentile(uniform, 0.5));
                let amean = advert.iter().sum::<u64>() as f64 / advert.len() as f64;
                let umean = uniform.iter().sum::<u64>() as f64 / uniform.len() as f64;
                out.push_str(&format!(
                    "  {:width$}  {:>10} {:>11} {:>10.2}x {:>11.2}x\n",
                    key,
                    ap50,
                    up50,
                    up50 as f64 / ap50 as f64,
                    umean / amean,
                ));
            }
        }

        // Membership-overlay section: one row per sweep group whose lines
        // carry a `membership` object; groups without it never appear, so
        // full-view reports are unchanged.
        let mem_groups: Vec<&String> = groups
            .iter()
            .filter(|g| {
                self.runs
                    .iter()
                    .any(|r| &r.group == *g && r.membership.is_some())
            })
            .collect();
        if !mem_groups.is_empty() {
            let width = mem_groups.iter().map(|g| g.len()).max().unwrap().max(8);
            out.push_str("\nmembership overlay (totals across runs)\n");
            out.push_str(&format!(
                "  {:width$}  {:>5} {:>10} {:>9} {:>9} {:>10} {:>8} {:>8}\n",
                "scenario",
                "runs",
                "suspicions",
                "evictions",
                "false_ev",
                "departures",
                "fp_rate",
                "isolated"
            ));
            for group in mem_groups {
                let rows: Vec<&RunRow> = self
                    .runs
                    .iter()
                    .filter(|r| &r.group == group && r.membership.is_some())
                    .collect();
                let sum = |f: fn(&MemRow) -> u64| -> u64 {
                    rows.iter()
                        .filter_map(|r| r.membership.map(|m| f(&m)))
                        .sum()
                };
                let (suspicions, evictions) = (sum(|m| m.suspicions), sum(|m| m.evictions));
                let false_ev = sum(|m| m.false_positives);
                let departures: u64 = rows.iter().filter_map(|r| r.departures).sum();
                let fp_rate = if evictions == 0 {
                    "-".to_string()
                } else {
                    format!("{:.3}", false_ev as f64 / evictions as f64)
                };
                out.push_str(&format!(
                    "  {:width$}  {:>5} {:>10} {:>9} {:>9} {:>10} {:>8} {:>8}\n",
                    group,
                    rows.len(),
                    suspicions,
                    evictions,
                    false_ev,
                    departures,
                    fp_rate,
                    sum(|m| m.isolated),
                ));
            }
        }

        // Per-trace sections.
        for t in &self.traces {
            out.push_str(&format!("\ntrace {}\n", t.scenario_id));
            if let Some((schema, lines)) = &t.unread {
                out.push_str(&format!(
                    "  unread: trace_schema {schema} is not the version this build reads ({TRACE_SCHEMA_VERSION}); {lines} event lines skipped\n"
                ));
                continue;
            }
            // The overlay's events get a line of their own, and only on
            // traces that have any: full-view reports never show it.
            let (engine, engine_items) = tally(&t.counts, |k| k < EventKind::Join);
            let (overlay, overlay_items) = tally(&t.counts, |k| k >= EventKind::Join);
            out.push_str(&format!("  events {} ({engine_items})\n", engine + overlay));
            if overlay > 0 {
                out.push_str(&format!("  membership events: {overlay_items}\n"));
            }
            out.push_str(&format!(
                "  dissemination depth: reached {}/{} node-messages, max depth {}, mean depth {:.1}\n",
                t.reached, t.universe, t.depth_max, t.depth_mean
            ));
            let (cn, tr) = (&t.connects, &t.transfers);
            out.push_str(&format!(
                "  region balance ({} regions): connects min {} mean {:.1} max {} imbalance {:.2}; transfers min {} mean {:.1} max {} imbalance {:.2}\n",
                cn.regions, cn.min, cn.mean, cn.max, cn.imbalance, tr.min, tr.mean, tr.max, tr.imbalance
            ));
        }

        for (count, what) in [
            (self.timing_lines, "bench lines (timings, not runs)"),
            (self.unrecognised, "unrecognised lines"),
            (self.unparsable, "unparsable lines"),
        ] {
            if count > 0 {
                out.push_str(&format!("\nskipped {count} {what}\n"));
            }
        }
        if out.is_empty() {
            out.push_str("no run lines or trace streams found in input\n");
        }
        out
    }
}

impl TraceAccum {
    fn observe(&mut self, event: &TraceEvent) {
        self.counts[event.kind as usize] += 1;
        let [from, to, msg] = event.ids;
        // An id past the header's `nodes` (a header is input from outside)
        // counts in the last region.
        let part = self.part;
        let region = |id: u32| part.region_of(id as usize).min(MATCH_REGIONS - 1);
        match event.kind {
            // `ids[0]` of a connect is its initiator.
            EventKind::Connect => self.connects.add(region(from), 1),
            EventKind::Transfer => {
                self.transfers.add(region(from), 1);
                let inside = |id: u32, bound: usize| (id as usize) < bound;
                if inside(from, self.nodes) && inside(to, self.nodes) && inside(msg, self.messages)
                {
                    // First sighting of a sender for this message: that
                    // is the message's source (or the frontier of a
                    // stream that started mid-run) — depth 0.
                    let sender = *self.depth.entry((msg, from)).or_insert(0);
                    self.depth.entry((msg, to)).or_insert(sender + 1);
                }
            }
            _ => {}
        }
    }

    fn finish(self) -> TraceStats {
        let mut depth_max = 0u32;
        let mut depth_sum = 0u64;
        let mut depth_n = 0u64;
        // Sums and maxima only: the map's iteration order cannot show.
        for &d in self.depth.values() {
            depth_max = depth_max.max(d);
            if d > 0 {
                depth_sum += d as u64;
                depth_n += 1;
            }
        }
        let regions = self.part.regions;
        TraceStats {
            scenario_id: self.scenario_id,
            unread: self.unread,
            counts: self.counts,
            reached: self.depth.len(),
            universe: self.nodes.saturating_mul(self.messages),
            depth_max,
            depth_mean: if depth_n == 0 {
                0.0
            } else {
                depth_sum as f64 / depth_n as f64
            },
            connects: self.connects.summary(regions),
            transfers: self.transfers.summary(regions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(group: &str, protocol: &str, seed: u64, rounds: Option<u64>) -> String {
        let rounds = rounds.map_or("null".to_string(), |r| r.to_string());
        format!(
            "{{\"schema\":1,\"scenario_id\":\"{group}-s{seed}\",\"protocol\":\"{protocol}\",\"completed\":true,\"rounds_to_completion\":{rounds}}}"
        )
    }

    #[test]
    fn seed_suffix_stripping_is_conservative() {
        assert_eq!(
            strip_seed("ring-advert-sync-n1000-k1-s42"),
            "ring-advert-sync-n1000-k1"
        );
        assert_eq!(strip_seed("ring-advert-sync"), "ring-advert-sync");
        assert_eq!(strip_seed("grid-s12abc"), "grid-s12abc");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.9), 9);
        assert_eq!(percentile(&v, 0.99), 10);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn report_groups_runs_and_computes_speedup() {
        let mut a = Analyzer::default();
        for (seed, rounds) in [(1, 500), (2, 520), (3, 480)] {
            a.add_line(&run_line(
                "ring-advert-sync-n1000-k1",
                "advert",
                seed,
                Some(rounds),
            ));
        }
        for (seed, rounds) in [(1, 1600), (2, 1700), (3, 1500)] {
            a.add_line(&run_line(
                "ring-uniform-sync-n1000-k1",
                "uniform",
                seed,
                Some(rounds),
            ));
        }
        a.add_line("not json at all");
        a.add_bytes(b"{\"schema\":1,\"scenario_id\":\"\xff\"}");
        let report = a.report();
        assert!(report.contains("rounds to completion"), "{report}");
        assert!(report.contains("ring-advert-sync-n1000-k1"), "{report}");
        assert!(report.contains("p50"), "{report}");
        assert!(report.contains("advert vs uniform speedup"), "{report}");
        // p50: advert 500, uniform 1600 → 3.20x.
        assert!(report.contains("3.20x"), "{report}");
        assert!(report.contains("skipped 2 unparsable lines"), "{report}");
    }

    #[test]
    fn trace_depth_follows_the_infection_dag() {
        let mut a = Analyzer::default();
        a.add_line(r#"{"trace_schema":1,"scenario_id":"tiny","nodes":4,"messages":1,"seed":0}"#);
        // 0 -> 1 -> 2, and 1 -> 3: depths 0,1,2,2.
        a.add_line(r#"{"ev":"connect","t":1,"round":1,"initiator":0,"acceptor":1}"#);
        a.add_line(r#"{"ev":"transfer","t":1,"round":1,"from":0,"to":1,"msg":0}"#);
        a.add_line(r#"{"ev":"transfer","t":2,"round":1,"from":1,"to":2,"msg":0}"#);
        a.add_line(r#"{"ev":"transfer","t":3,"round":1,"from":1,"to":3,"msg":0}"#);
        let report = a.report();
        assert!(
            report.contains("reached 4/4 node-messages, max depth 2"),
            "{report}"
        );
        // Mean over non-source reached pairs: (1 + 2 + 2) / 3.
        assert!(report.contains("mean depth 1.7"), "{report}");
        assert!(report.contains("region balance"), "{report}");
    }

    #[test]
    fn membership_lines_get_their_own_section_and_plain_lines_do_not() {
        let mut a = Analyzer::default();
        // One plain line: no membership section may appear for it.
        a.add_line(&run_line(
            "ring-uniform-sync-n50-k1",
            "uniform",
            1,
            Some(90),
        ));
        // Two membership + churn lines in one sweep group.
        for seed in [1u64, 2] {
            a.add_line(&format!(
                "{{\"schema\":1,\"scenario_id\":\"rgg-advert-sync-n50-k1-churn0.01:keep-mem@a5p30sh1pr1-s{seed}\",\
                 \"protocol\":\"advert\",\"completed\":true,\"rounds_to_completion\":70,\
                 \"dynamics\":{{\"model\":\"churn\",\"departures\":4}},\
                 \"membership\":{{\"active_min\":1,\"active_mean\":4.2,\"active_max\":5,\
                 \"isolated_nodes\":0,\"joins\":50,\"shuffles\":100,\"probes\":100,\
                 \"suspicions\":6,\"evictions\":5,\"false_positive_evictions\":1}}}}"
            ));
        }
        let report = a.report();
        assert!(report.contains("membership overlay"), "{report}");
        // Totals over the two runs: 12 suspicions, 10 evictions, 2 false,
        // 8 departures, fp rate 2/10.
        assert!(report.contains("12"), "{report}");
        assert!(report.contains("0.200"), "{report}");
        // The full-view group is absent from the membership table.
        let section = report.split("membership overlay").nth(1).unwrap();
        assert!(!section.contains("ring-uniform"), "{report}");

        // A report with no membership lines has no such section at all.
        let mut plain = Analyzer::default();
        plain.add_line(&run_line(
            "ring-uniform-sync-n50-k1",
            "uniform",
            1,
            Some(90),
        ));
        assert!(!plain.report().contains("membership overlay"));
    }

    #[test]
    fn membership_trace_events_are_tallied() {
        let mut a = Analyzer::default();
        a.add_line(r#"{"trace_schema":1,"scenario_id":"tiny","nodes":4,"messages":1,"seed":0}"#);
        a.add_line(r#"{"ev":"join","t":0,"round":0,"node":0,"peer":1}"#);
        a.add_line(r#"{"ev":"shuffle","t":0,"round":0,"node":1,"peer":2}"#);
        a.add_line(r#"{"ev":"suspect","t":1024,"round":1,"node":1,"peer":3}"#);
        a.add_line(r#"{"ev":"evict","t":2048,"round":2,"node":1,"peer":3}"#);
        let report = a.report();
        assert!(
            report.contains("membership events: join 1, shuffle 1, suspect 1, evict 1"),
            "{report}"
        );

        // Traces without membership events keep their report unchanged.
        let mut plain = Analyzer::default();
        plain.add_line(r#"{"trace_schema":1,"scenario_id":"t2","nodes":4,"messages":1,"seed":0}"#);
        plain.add_line(r#"{"ev":"connect","t":1,"round":1,"initiator":0,"acceptor":1}"#);
        assert!(!plain.report().contains("membership events"));
    }

    #[test]
    fn a_header_sizes_nothing() {
        // Either depth table, laid out as `messages × nodes`, would not fit.
        for (nodes, messages) in [(100_000_000_000u64, 100_000_000_000u64), (3_000_000_000, 4)] {
            let mut a = Analyzer::default();
            a.add_line(&format!(
                "{{\"trace_schema\":1,\"scenario_id\":\"x\",\"nodes\":{nodes},\"messages\":{messages},\"seed\":1}}"
            ));
            a.add_line(r#"{"ev":"transfer","t":1,"round":1,"from":4000000000,"to":2,"msg":3}"#);
            let report = a.report();
            assert!(report.contains("trace x\n  events 1 ("), "{report}");
            if messages == 4 {
                // Node 4·10⁹ is past this header's 3·10⁹: tallied, not placed.
                assert!(report.contains("reached 0/12000000000"), "{report}");
            } else {
                assert!(report.contains("reached 2/"), "{report}");
            }
        }
    }

    #[test]
    fn what_could_not_be_read_is_named() {
        let mut a = Analyzer::default();
        a.add_line(r#"{"trace_schema":99,"scenario_id":"future","nodes":4,"messages":1,"seed":0}"#);
        a.add_line(r#"{"ev":"connect","t":1,"round":1,"initiator":0,"acceptor":1}"#);
        a.add_line(r#"{"ev":"warp","t":1,"round":1}"#);
        a.add_line(r#"{"trace_schema":1,"scenario_id":"now","nodes":4,"messages":1,"seed":0}"#);
        a.add_line(r#"{"ev":"connect","t":1,"round":1,"initiator":0,"acceptor":1}"#);
        // An unknown tag, an ill-typed id and a missing one: none is a
        // connect, all three are lines left out.
        a.add_line(r#"{"ev":"warp","t":1,"round":1}"#);
        a.add_line(r#"{"ev":"connect","t":1,"round":1,"initiator":"x","acceptor":1}"#);
        a.add_line(r#"{"ev":"connect","t":1,"round":1,"initiator":0}"#);
        let report = a.report();
        assert!(
            report.contains(
                "trace future\n  unread: trace_schema 99 is not the version this build reads (1); 2 event lines skipped\n"
            ),
            "{report}"
        );
        assert!(
            report.contains(
                "trace now\n  events 1 (propose 0, connect 1, reject 0, drop 0, transfer 0, sever 0, mutate 0, boundary 0)\n"
            ),
            "{report}"
        );
        assert!(report.contains("skipped 3 unrecognised lines"), "{report}");
    }

    #[test]
    fn incomplete_groups_render_without_percentiles() {
        let mut a = Analyzer::default();
        a.add_line(&run_line("line-advert-sync-n9-k1", "advert", 1, None));
        let report = a.report();
        assert!(report.contains("(no completed runs)"), "{report}");
    }

    #[test]
    fn bench_lines_are_recognised_and_kept_out_of_the_run_tables() {
        let mut a = Analyzer::default();
        a.add_line(&run_line(
            "ring-advert-sync-n2000-k1",
            "advert",
            1,
            Some(90),
        ));
        // A bench line is a run line with `metrics`, capped short of
        // completion: read as a run it is a phantom failure. So is the
        // schema-5 bench line older builds printed.
        a.add_line(
            r#"{"schema":1,"scenario_id":"ring-advert-sync-n2000-k1-cap8-s1","protocol":"advert","completed":false,"rounds_to_completion":null,"metrics":{"build_ms":1.25}}"#,
        );
        a.add_line(
            r#"{"schema":5,"bench":"sync_round_loop","scenario_id":"ring-advert-sync-n2000-k1-s1","round_budget":8,"rounds_executed":8,"completed":false}"#,
        );
        // A retired `soak` verdict line has no `schema`: unrecognised, so
        // old output directories analyse without phantom failed runs.
        a.add_line(
            r#"{"soak":1,"scenario_id":"ring-advert-sync-n2000-k1-s1","metric":"node_events_per_sec","regressed":false}"#,
        );
        a.add_line(r#"{"some":"other json"}"#);
        let report = a.report();
        assert!(!report.contains("(no completed runs)"), "{report}");
        let row = report.lines().find(|l| l.contains("n2000")).unwrap();
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(
            cells[..3],
            ["ring-advert-sync-n2000-k1", "1", "1"],
            "{report}"
        );
        assert!(report.contains("skipped 2 bench lines"), "{report}");
        assert!(report.contains("skipped 2 unrecognised lines"), "{report}");
        assert!(!report.contains("unparsable"), "{report}");
    }

    #[test]
    fn empty_input_says_so() {
        assert!(Analyzer::default().report().contains("no run lines"));
    }
}
