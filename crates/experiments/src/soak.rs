//! The `soak` regression harness: re-run committed bench baselines and
//! fail when throughput regresses.
//!
//! The repo pins engine throughput in `BENCH_*.json` trajectory files —
//! one JSON line per captured bench run. Those numbers rot silently: a
//! perf regression that slips into the round loop shows up in nobody's
//! unit test. `soak` closes the loop deterministically on the *scenario*
//! side (what runs is rebuilt from the baseline line's own `spec` field;
//! a self-check compares scenario ids) and statistically on the *timing*
//! side (N iterations, mean/min/stddev, a relative tolerance absorbing
//! machine noise).
//!
//! The metric compared is the one the baseline's engine family headlines:
//! `events_per_sec` for the sliced async event loop, `node_events_per_sec`
//! for the sync round loop. A baseline regresses when the **mean** of the
//! re-measured samples falls below `baseline × (1 − tolerance)` — the mean
//! rather than the min, so one descheduled iteration does not fail CI, and
//! the min is still reported for eyeballing variance.

use crate::bench::{run_bench, BenchScenario, EnginePhases};
use crate::spec::{join_errors, Scenario};
use crate::specfile::parse_spec;
use gossip_telemetry::json::{self, fmt_f64};

/// Version of the emitted soak line format.
pub const SOAK_SCHEMA_VERSION: u64 = 1;

/// One baseline to re-measure: the reconstructed bench invocation, the
/// identity it must reproduce, and the recorded throughput to compare
/// against.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    pub bench: BenchScenario,
    /// The `scenario_id` stamped on the baseline line (and re-derived from
    /// the reconstruction as a self-check).
    pub scenario_id: String,
    /// Which throughput field this baseline pins.
    pub metric: &'static str,
    /// The recorded value of that field.
    pub value: f64,
}

/// Knobs of one soak invocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoakConfig {
    /// Re-measurement iterations per baseline.
    pub iterations: usize,
    /// Relative slack: regressed iff `mean < baseline × (1 − tolerance)`.
    pub tolerance: f64,
}

/// What re-measuring one baseline found.
#[derive(Clone, Debug, PartialEq)]
pub struct SoakOutcome {
    pub scenario_id: String,
    pub metric: &'static str,
    /// The committed value.
    pub baseline: f64,
    /// Mean / min / stddev of the re-measured samples.
    pub mean: f64,
    pub min: f64,
    pub stddev: f64,
    /// Did the mean fall below the tolerated floor?
    pub regressed: bool,
}

/// Reduce re-measured samples against a baseline. Pure, so the regression
/// rule is unit-testable without timing anything.
pub fn summarize(
    scenario_id: &str,
    metric: &'static str,
    baseline: f64,
    samples: &[f64],
    tolerance: f64,
) -> SoakOutcome {
    assert!(!samples.is_empty(), "a soak measures at least one sample");
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let variance = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
    SoakOutcome {
        scenario_id: scenario_id.to_string(),
        metric,
        baseline,
        mean,
        min,
        stddev: variance.sqrt(),
        regressed: mean < baseline * (1.0 - tolerance),
    }
}

/// Serialize one soak outcome as a JSON line (no trailing newline).
pub fn soak_line_json(outcome: &SoakOutcome, config: &SoakConfig) -> String {
    json::Obj::default()
        .raw("soak", SOAK_SCHEMA_VERSION)
        .str("scenario_id", &outcome.scenario_id)
        .str("metric", outcome.metric)
        .raw("baseline", fmt_f64(outcome.baseline))
        .raw("mean", fmt_f64(outcome.mean))
        .raw("min", fmt_f64(outcome.min))
        .raw("stddev", fmt_f64(outcome.stddev))
        .raw("iterations", config.iterations)
        .raw("tolerance", fmt_f64(config.tolerance))
        .raw("regressed", outcome.regressed)
        .finish()
}

/// Re-measure one baseline: `iterations` fresh bench runs, reduced by
/// [`summarize`].
pub fn soak_one(baseline: &Baseline, config: &SoakConfig) -> SoakOutcome {
    let samples: Vec<f64> = (0..config.iterations.max(1))
        .map(|_| {
            let report = run_bench(&baseline.bench);
            match &report.phases {
                EnginePhases::Async(s) => s.events_per_sec,
                EnginePhases::Sync(_) => report.node_events_per_sec,
            }
        })
        .collect();
    summarize(
        &baseline.scenario_id,
        baseline.metric,
        baseline.value,
        &samples,
        config.tolerance,
    )
}

/// Rebuild the bench invocation a baseline line describes: the scenario
/// from the line's own `spec` (what [`Scenario::to_spec`] wrote when the
/// line was captured, read by the spec parser like any spec file), the
/// round budget from `round_budget`. The rebuilt scenario must re-derive
/// the recorded `scenario_id` — a line whose two halves disagree would
/// gate a different benchmark than the one it names.
pub fn parse_baseline_line(line: &str) -> Result<Baseline, String> {
    let value = json::parse(line).map_err(|e| format!("not a JSON bench line: {e}"))?;
    let field = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    };
    let str_field = |key: &str| -> Result<&str, String> {
        field(key)?
            .as_str()
            .ok_or_else(|| format!("field '{key}' is not a string"))
    };

    let scenario_id = str_field("scenario_id")?.to_string();
    let metric = match str_field("bench")? {
        "async_event_loop" => "events_per_sec",
        "sync_round_loop" => "node_events_per_sec",
        other => return Err(format!("unknown bench kind '{other}'")),
    };
    let value_recorded = field(metric)?
        .as_f64()
        .ok_or_else(|| format!("field '{metric}' is not a number"))?;
    let rounds = field("round_budget")?
        .as_u64()
        .ok_or("field 'round_budget' is not an integer")? as usize;

    let cells = parse_spec(str_field("spec")?)
        .map_err(|e| join_errors(&e))?
        .expand()
        .map_err(|e| e.to_string())?;
    let [scenario] = <[Scenario; 1]>::try_from(cells)
        .map_err(|cells| format!("field 'spec' expands to {} scenarios", cells.len()))?;

    let derived = scenario.scenario_id();
    if derived != scenario_id {
        return Err(format!(
            "cannot reconstruct this baseline: its scenario_id is '{scenario_id}' \
             but its spec rebuilds '{derived}'"
        ));
    }

    Ok(Baseline {
        bench: BenchScenario { scenario, rounds },
        scenario_id,
        metric,
        value: value_recorded,
    })
}

/// Parse a `BENCH_*.json` trajectory file into soak-able baselines, plus
/// warnings for duplicate scenario ids (the **last** line wins — a
/// trajectory file appends newest-last, and the newest capture reflects
/// the current code). Blank lines are skipped; anything else malformed is
/// an error naming its line. A file with no baseline line at all is an
/// error too: an empty gate would pass whatever the code does.
pub fn parse_baselines(text: &str) -> Result<(Vec<Baseline>, Vec<String>), String> {
    let mut baselines: Vec<Baseline> = Vec::new();
    let mut warnings = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let baseline = parse_baseline_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        if let Some(existing) = baselines
            .iter_mut()
            .find(|b| b.scenario_id == baseline.scenario_id)
        {
            warnings.push(format!(
                "duplicate baseline for '{}' (line {}); keeping the newest",
                baseline.scenario_id,
                idx + 1
            ));
            *existing = baseline;
        } else {
            baselines.push(baseline);
        }
    }
    if baselines.is_empty() {
        // A truncated file must not read as "nothing regressed".
        return Err("holds no baseline".to_string());
    }
    Ok((baselines, warnings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::bench_to_json;
    use crate::spec::{MembershipSpec, ProtocolSpec, SchedulerSpec, TopologySpec};
    use gossip_dynamics::RejoinPolicy;

    #[test]
    fn summarize_applies_the_tolerance_to_the_mean() {
        let ok = summarize("id", "events_per_sec", 100.0, &[95.0, 85.0], 0.2);
        assert_eq!(ok.mean, 90.0);
        assert_eq!(ok.min, 85.0);
        assert_eq!(ok.stddev, 5.0);
        assert!(!ok.regressed, "mean 90 >= floor 80");

        let bad = summarize("id", "events_per_sec", 100.0, &[79.0, 79.0], 0.2);
        assert!(bad.regressed, "mean 79 < floor 80");

        // Zero tolerance is an exact floor.
        assert!(summarize("id", "m", 100.0, &[99.9], 0.0).regressed);
        assert!(!summarize("id", "m", 100.0, &[100.0], 0.0).regressed);
    }

    #[test]
    fn soak_lines_carry_the_verdict() {
        let outcome = summarize(
            "ring-uniform-sync-n8-k1-s1",
            "node_events_per_sec",
            10.0,
            &[9.0],
            0.05,
        );
        let line = soak_line_json(
            &outcome,
            &SoakConfig {
                iterations: 1,
                tolerance: 0.05,
            },
        );
        assert!(line.starts_with("{\"soak\":1,\"scenario_id\":\"ring-uniform-sync-n8-k1-s1\""));
        assert!(
            line.contains("\"metric\":\"node_events_per_sec\""),
            "{line}"
        );
        assert!(line.contains("\"baseline\":10"), "{line}");
        assert!(line.contains("\"regressed\":true"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn baselines_round_trip_through_real_bench_lines() {
        // Capture a real (tiny) bench line for each engine family and
        // reconstruct it; the reconstruction must rebuild the same
        // scenario, not merely parse.
        let sync = BenchScenario {
            scenario: Scenario::builder()
                .nodes(64)
                .protocol(ProtocolSpec::Advert)
                .seed(7)
                .finish()
                .unwrap(),
            rounds: 8,
        };
        let line = bench_to_json(&run_bench(&sync));
        let baseline = parse_baseline_line(&line).unwrap();
        assert_eq!(baseline.bench, sync);
        assert_eq!(baseline.metric, "node_events_per_sec");
        assert!(baseline.value > 0.0);

        let timing = gossip_core::TimingConfig {
            drift: 0.1,
            refresh_jitter: 0.25,
            min_latency: 32,
            max_latency: 256,
        };
        let async_bench = BenchScenario {
            scenario: Scenario::builder()
                .nodes(64)
                .async_scheduler(timing)
                .seed(7)
                .finish()
                .unwrap(),
            rounds: 8,
        };
        let line = bench_to_json(&run_bench(&async_bench));
        let baseline = parse_baseline_line(&line).unwrap();
        assert_eq!(baseline.bench, async_bench);
        assert_eq!(baseline.metric, "events_per_sec");
        let SchedulerSpec::Async { timing: t, .. } = baseline.bench.scenario.scheduler else {
            panic!("async baseline must reconstruct an async scheduler");
        };
        assert_eq!(t, timing);
    }

    #[test]
    fn any_scenario_a_bench_line_names_is_a_baseline() {
        // Everything the structured fields of a bench line never carried:
        // churn, a round cap, a fixed rgg radius, the membership overlay,
        // a thread count past the machine's clamp.
        let bench = BenchScenario {
            scenario: Scenario::builder()
                .topology(TopologySpec::Rgg { radius: Some(0.3) })
                .nodes(48)
                .protocol(ProtocolSpec::Advert)
                .sync_scheduler(4096)
                .churn(0.05, RejoinPolicy::Lose)
                .membership(MembershipSpec::HyParView {
                    active: 4,
                    passive: 12,
                    shuffle_period: 2,
                    probe_period: 3,
                })
                .max_rounds(6)
                .seed(11)
                .finish()
                .unwrap(),
            rounds: 6,
        };
        let line = bench_to_json(&run_bench(&bench));
        let baseline = parse_baseline_line(&line).unwrap();
        assert_eq!(baseline.bench, bench);
        assert_eq!(
            baseline.scenario_id,
            "rgg@r0.3-advert-sync-n48-k1-cap6-churn0.05:lose-mem@a4p12sh2pr3-s11"
        );

        // The id self-check still holds: a spec edited away from the id
        // it sits next to is refused.
        for lying in [
            line.replace("seed = 11", "seed = 12"),
            line.replace("rejoin = lose", "rejoin = keep"),
        ] {
            let err = parse_baseline_line(&lying).unwrap_err();
            assert!(err.contains("cannot reconstruct"), "{err}");
        }
        // A spec is read by the spec parser, with its errors.
        let err = parse_baseline_line(&line.replace("nodes = 48", "nodes = 0")).unwrap_err();
        assert!(err.contains("nodes: must be at least 1"), "{err}");
        let gridded = line.replace("[output]", "[axis]\\nseed = 1, 2\\n[output]");
        let err = parse_baseline_line(&gridded).unwrap_err();
        assert!(err.contains("expands to 2 scenarios"), "{err}");
        // No fallback for a pre-schema-5 line.
        let bare = line.replacen("\"spec\":", "\"was_spec\":", 1);
        assert_eq!(
            parse_baseline_line(&bare).unwrap_err(),
            "missing field 'spec'"
        );
    }

    #[test]
    fn duplicate_scenario_ids_warn_and_keep_the_newest() {
        let bench = BenchScenario {
            scenario: Scenario::builder().nodes(32).seed(3).finish().unwrap(),
            rounds: 4,
        };
        let line = bench_to_json(&run_bench(&bench));
        // The same id twice with different recorded values: last wins.
        let newer = {
            // Rewrite the recorded metric so the two lines differ.
            let report = run_bench(&bench);
            let mut outcome = bench_to_json(&report);
            let needle = "\"node_events_per_sec\":";
            let at = outcome.find(needle).unwrap() + needle.len();
            let end = outcome[at..].find([',', '}']).unwrap() + at;
            outcome.replace_range(at..end, "123456.0");
            outcome
        };
        let text = format!("{line}\n{newer}\n");
        let (baselines, warnings) = parse_baselines(&text).unwrap();
        assert_eq!(baselines.len(), 1);
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].contains("duplicate baseline"),
            "{}",
            warnings[0]
        );
        assert_eq!(baselines[0].value, 123456.0);
    }

    #[test]
    fn malformed_baselines_name_their_line() {
        let err = parse_baselines("\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // An empty (truncated) file gates nothing: an error, not a pass.
        for empty in ["", "\n  \n"] {
            assert_eq!(parse_baselines(empty).unwrap_err(), "holds no baseline");
        }
        // A bench line whose spec does not rebuild its id is refused.
        let bench = BenchScenario {
            scenario: Scenario::builder().nodes(32).seed(3).finish().unwrap(),
            rounds: 4,
        };
        let line = bench_to_json(&run_bench(&bench));
        let lying = line.replace("-s3", "-s4");
        let err = parse_baseline_line(&lying).unwrap_err();
        assert!(err.contains("cannot reconstruct"), "{err}");
    }

    #[test]
    fn soak_one_measures_and_compares() {
        let bench = BenchScenario {
            scenario: Scenario::builder().nodes(64).seed(1).finish().unwrap(),
            rounds: 4,
        };
        let baseline = Baseline {
            bench,
            scenario_id: "ring-uniform-sync-n64-k1-s1".to_string(),
            metric: "node_events_per_sec",
            value: 1.0, // any real machine beats 1 node-event/sec
        };
        let outcome = soak_one(
            &baseline,
            &SoakConfig {
                iterations: 2,
                tolerance: 0.5,
            },
        );
        assert!(!outcome.regressed, "mean {} vs floor 0.5", outcome.mean);
        assert!(outcome.min <= outcome.mean);
        assert!(outcome.stddev >= 0.0);
    }
}
