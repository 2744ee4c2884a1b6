//! Property test: every flag combination the CLI accepts builds a typed
//! [`Scenario`] that round-trips through the spec-file parser unchanged —
//! `flags -> Scenario -> to_spec() -> parse_spec() -> expand()` is the
//! identity. This pins the whole chain: the flag table, the builder, the
//! spec serializer, and the spec parser can only drift together (i.e. not
//! at all).

use gossip_cli::{parse_args, Command};
use gossip_core::Rng;
use gossip_experiments::{parse_spec, Scenario, ASSIGNMENTS};

fn parse_run(args: &[String]) -> Scenario {
    match parse_args(args) {
        Ok(Command::Run { scenario, .. }) => scenario,
        other => panic!("expected Run for {args:?}, got {other:?}"),
    }
}

fn assert_round_trips(args: &[String]) {
    let scenario = parse_run(args);
    let spec = scenario.to_spec();
    let grid =
        parse_spec(&spec).unwrap_or_else(|e| panic!("emitted spec failed to parse: {e:?}\n{spec}"));
    let cells = grid
        .expand()
        .unwrap_or_else(|e| panic!("emitted spec failed to expand: {e}\n{spec}"));
    assert_eq!(
        cells,
        vec![scenario.clone()],
        "round trip changed the scenario\nflags: {args:?}\nspec:\n{spec}"
    );
    // And the id is stable across the trip (it only reads scenario
    // fields, but pin it explicitly: ids are what grid outputs key on).
    assert_eq!(cells[0].scenario_id(), scenario.scenario_id());
}

/// A random valid flag combination. Fractions are drawn in hundredths so
/// their `Display` form round-trips exactly.
fn random_flags(rng: &mut Rng) -> Vec<String> {
    let mut args: Vec<String> = Vec::new();
    let mut push = |flag: &str, value: String| {
        args.push(flag.to_string());
        if !value.is_empty() {
            args.push(value);
        }
    };
    let pct = |rng: &mut Rng, lo: usize, hi: usize| -> String {
        let v = lo + rng.gen_range(hi - lo);
        format!("0.{v:02}")
    };

    let topologies = [
        "line",
        "ring",
        "grid",
        "complete",
        "rgg",
        "random_geometric",
    ];
    let topology = topologies[rng.gen_range(topologies.len())];
    let is_rgg = topology == "rgg" || topology == "random_geometric";
    push("--topology", topology.to_string());
    push("--nodes", (2 + rng.gen_range(120)).to_string());
    if rng.gen_bool() {
        push(
            "--protocol",
            ["uniform", "advert"][rng.gen_range(2)].to_string(),
        );
    }
    if rng.gen_bool() {
        push("--seed", rng.gen_range(10_000).to_string());
    }
    if rng.gen_bool() {
        push("--seeds", (1 + rng.gen_range(8)).to_string());
    }
    if rng.gen_bool() {
        push("--messages", (1 + rng.gen_range(5)).to_string());
    }
    if rng.gen_bool() {
        push("--max-rounds", (100 + rng.gen_range(10_000)).to_string());
    }
    if is_rgg && rng.gen_bool() {
        push("--radius", pct(rng, 10, 90));
    }

    let async_scheduler = rng.gen_bool();
    if async_scheduler {
        push("--scheduler", "async".to_string());
        if rng.gen_bool() {
            push("--drift", pct(rng, 1, 90));
        }
        if rng.gen_bool() {
            push("--refresh-jitter", pct(rng, 1, 90));
        }
        if rng.gen_bool() {
            let min = 1 + rng.gen_range(100) as u64;
            let max = min + rng.gen_range(400) as u64;
            push("--min-latency", min.to_string());
            push("--max-latency", max.to_string());
        }
    }
    // Both schedulers shard over worker threads now.
    if rng.gen_bool() {
        push("--threads", (1 + rng.gen_range(8)).to_string());
    }

    let mobility = is_rgg && rng.gen_bool();
    if mobility {
        push("--mobility", String::new());
    }
    if rng.gen_bool() {
        push("--churn-rate", pct(rng, 1, 90));
        if rng.gen_bool() {
            push(
                "--rejoin",
                ["keep", "lose", "none"][rng.gen_range(3)].to_string(),
            );
        }
    }
    if !mobility && rng.gen_bool() {
        push("--fade-prob", pct(rng, 1, 90));
    }

    if rng.gen_bool() {
        push("--membership", "hyparview".to_string());
        for knob in [
            "--active-view",
            "--passive-view",
            "--shuffle-period",
            "--probe-period",
        ] {
            if rng.gen_bool() {
                push(knob, (1 + rng.gen_range(12)).to_string());
            }
        }
    } else if rng.gen_bool() {
        push("--membership", "full".to_string());
    }

    let history = rng.gen_bool();
    if history {
        push("--history", String::new());
    } else if rng.gen_bool() {
        push("--format", "csv".to_string());
    }
    args
}

#[test]
fn every_accepted_flag_combination_round_trips_through_spec_files() {
    let mut rng = Rng::new(0x5bec);
    let mut drawn = std::collections::BTreeSet::new();
    for _ in 0..400 {
        let args = random_flags(&mut rng);
        assert_round_trips(&args);
        drawn.extend(args.into_iter().filter(|arg| arg.starts_with("--")));
    }
    // The property covers the whole vocabulary: a new run row must join
    // the generator.
    for def in ASSIGNMENTS.iter().filter(|def| def.run) {
        assert!(
            drawn.contains(&format!("--{}", def.key)),
            "random_flags never draws --{}",
            def.key
        );
    }
}

#[test]
fn the_exhaustive_small_grid_of_flag_combinations_round_trips() {
    for topology in ["line", "ring", "grid", "complete", "rgg"] {
        for protocol in ["uniform", "advert"] {
            for scheduler in ["sync", "async"] {
                let args: Vec<String> = [
                    "--topology",
                    topology,
                    "--protocol",
                    protocol,
                    "--scheduler",
                    scheduler,
                    "--nodes",
                    "48",
                    "--seed",
                    "11",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect();
                assert_round_trips(&args);
            }
        }
    }
}

#[test]
fn defaults_round_trip() {
    assert_round_trips(&[]);
}
