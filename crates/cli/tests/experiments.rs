//! End-to-end tests over the exact code path the `gossip-sim` binary runs:
//! parse args, build typed scenarios, execute, serialize.

use gossip_cli::{parse_args, Command};
use gossip_experiments::{csv_header, run_line_csv, sweep_runs, to_json, RunMeta, Scenario};
use gossip_telemetry::NoopProbe;

mod common;
use common::{gossip_sim, strip};

fn parse_run(args: &[&str]) -> Scenario {
    match parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()) {
        Ok(Command::Run { scenario, .. }) => scenario,
        other => panic!("expected a Run command, got {other:?}"),
    }
}

#[test]
fn acceptance_invocation_produces_json_metrics() {
    // Mirrors: gossip-sim --topology ring --nodes 1000 --protocol advert --seed 42
    let scenario = parse_run(&[
        "--topology",
        "ring",
        "--nodes",
        "1000",
        "--protocol",
        "advert",
        "--seed",
        "42",
    ]);
    let result = scenario.run();
    assert!(result.completed, "1000-node ring should complete");

    let json = to_json(&result);
    for key in [
        "\"rounds_to_completion\":",
        "\"topology\":\"ring\"",
        "\"protocol\":\"advert\"",
        "\"nodes\":1000",
        "\"seed\":42",
        "\"total_connections\":",
        "\"wasted_connections\":",
    ] {
        assert!(json.contains(key), "JSON missing {key}: {json}");
    }
    assert!(!json.contains("\"rounds\":["), "history off by default");
}

#[test]
fn advert_beats_uniform_on_the_acceptance_ring() {
    let advert = parse_run(&[
        "--topology",
        "ring",
        "--nodes",
        "1000",
        "--protocol",
        "advert",
        "--seed",
        "42",
    ])
    .run();
    let uniform = parse_run(&[
        "--topology",
        "ring",
        "--nodes",
        "1000",
        "--protocol",
        "uniform",
        "--seed",
        "42",
    ])
    .run();
    assert!(advert.completed && uniform.completed);
    assert!(
        advert.rounds_to_completion < uniform.rounds_to_completion,
        "advert {:?} should beat uniform {:?}",
        advert.rounds_to_completion,
        uniform.rounds_to_completion
    );
}

#[test]
fn history_flag_records_per_round_stats() {
    let scenario = parse_run(&[
        "--topology",
        "complete",
        "--nodes",
        "32",
        "--history",
        "--seed",
        "3",
    ]);
    let result = scenario.run();
    assert!(result.completed);
    let history = result.rounds.as_ref().expect("--history populates rounds");
    assert_eq!(history.len(), result.rounds_executed);
    let json = to_json(&result);
    assert!(json.contains("\"rounds\":[{\"round\":1,"));

    // The schema is a function of the flag, not the outcome: a run that is
    // complete before round 1 still carries an (empty) rounds array.
    let scenario = parse_run(&["--nodes", "1", "--topology", "complete", "--history"]);
    let result = scenario.run();
    assert_eq!(result.rounds_to_completion, Some(0));
    assert!(to_json(&result).contains("\"rounds\":[]"));
}

#[test]
fn every_topology_runs_end_to_end() {
    for topology in [
        "line",
        "ring",
        "grid",
        "complete",
        "rgg",
        "random_geometric",
    ] {
        for protocol in ["uniform", "advert"] {
            let scenario = parse_run(&[
                "--topology",
                topology,
                "--nodes",
                "40",
                "--protocol",
                protocol,
                "--seed",
                "9",
                "--messages",
                "2",
            ]);
            let result = scenario.run();
            assert!(
                result.completed,
                "{protocol} on {topology} failed to complete"
            );
        }
    }
}

#[test]
fn the_rgg_alias_is_normalized_to_one_canonical_name() {
    // `random_geometric` and `rgg` are the same typed spec, and the name
    // the result (and therefore every emitted line) echoes is the
    // canonical one — so output always round-trips back into the CLI.
    let canonical = parse_run(&["--topology", "rgg", "--nodes", "50", "--seed", "4"]);
    let aliased = parse_run(&[
        "--topology",
        "random_geometric",
        "--nodes",
        "50",
        "--seed",
        "4",
    ]);
    assert_eq!(canonical, aliased);
    let result = aliased.run();
    assert_eq!(result.topology, "rgg");
    assert!(to_json(&result).contains("\"topology\":\"rgg\""));
    // And the canonical name re-parses.
    let reparsed = parse_run(&["--topology", &result.topology]);
    assert_eq!(reparsed.topology.name(), "rgg");
}

#[test]
fn experiments_are_reproducible() {
    let scenario = parse_run(&["--topology", "rgg", "--nodes", "60", "--seed", "11"]);
    assert_eq!(to_json(&scenario.run()), to_json(&scenario.run()));
}

#[test]
fn an_explicit_radius_changes_the_graph_deterministically() {
    let adaptive = parse_run(&["--topology", "rgg", "--nodes", "60", "--seed", "11"]);
    let fixed = parse_run(&[
        "--topology",
        "rgg",
        "--nodes",
        "60",
        "--seed",
        "11",
        "--radius",
        "0.5",
    ]);
    // A generous radius yields a denser graph: same seed, fewer rounds
    // than the threshold-radius build (or at least a different, still
    // reproducible run).
    let a = fixed.run();
    let b = fixed.run();
    assert_eq!(to_json(&a), to_json(&b), "fixed-radius runs reproduce");
    assert!(a.completed);
    assert_ne!(
        to_json(&a),
        to_json(&adaptive.run()),
        "the radius knob actually reaches the topology builder"
    );
}

#[test]
fn async_scheduler_runs_end_to_end() {
    let scenario = parse_run(&[
        "--topology",
        "ring",
        "--nodes",
        "200",
        "--protocol",
        "advert",
        "--scheduler",
        "async",
        "--seed",
        "42",
        "--drift",
        "0.2",
        "--min-latency",
        "16",
        "--max-latency",
        "128",
    ]);
    let result = scenario.run();
    assert!(result.completed, "async 200-node ring should complete");
    let json = to_json(&result);
    assert!(json.contains("\"scheduler\":\"async\""), "{json}");
    assert!(json.contains("\"virtual_time\":"), "{json}");
    assert!(json.contains("\"virtual_time_to_completion\":"), "{json}");
    assert!(
        !json.contains("\"virtual_time_to_completion\":null"),
        "{json}"
    );

    // The async path is reproducible end to end, like the sync one.
    assert_eq!(to_json(&scenario.run()), json);
}

#[test]
fn sync_results_report_virtual_time_alongside_rounds() {
    let result = parse_run(&["--nodes", "64"]).run();
    assert!(result.completed);
    let json = to_json(&result);
    assert!(json.contains("\"scheduler\":\"sync\""), "{json}");
    // 1024 ticks per round: virtual time mirrors the round count.
    let rounds = result.rounds_to_completion.unwrap() as u64;
    assert!(
        json.contains(&format!("\"virtual_time_to_completion\":{}", rounds * 1024)),
        "{json}"
    );
}

#[test]
fn seed_sweep_emits_one_result_per_distinct_seed() {
    let scenario = parse_run(&[
        "--topology",
        "ring",
        "--nodes",
        "40",
        "--seeds",
        "5",
        "--seed",
        "100",
    ]);
    let results: Vec<_> = scenario.sweep().map(|s| s.run()).collect();
    assert_eq!(results.len(), 5, "one result per swept seed");
    let seeds: Vec<u64> = results.iter().map(|r| r.seed).collect();
    assert_eq!(
        seeds,
        vec![100, 101, 102, 103, 104],
        "consecutive distinct seeds"
    );
    // One self-contained JSON line per seed, echoing that seed.
    for result in &results {
        let json = to_json(result);
        assert!(!json.contains('\n'), "sweep output must be line-oriented");
        assert!(
            json.contains(&format!("\"seed\":{}", result.seed)),
            "{json}"
        );
    }
    // Sweeps cover genuinely different executions.
    let distinct_rounds: std::collections::HashSet<_> =
        results.iter().map(|r| r.rounds_to_completion).collect();
    assert!(
        distinct_rounds.len() > 1,
        "5 seeds on a 40-ring should not all finish in identical rounds"
    );
}

#[test]
fn default_sweep_width_is_a_single_seed() {
    let scenario = parse_run(&["--nodes", "30"]);
    assert_eq!(scenario.seeds, 1);
    assert_eq!(scenario.sweep().count(), 1);
}

/// The dynamics-disabled fast path must stay bit-for-bit what the engine
/// produced before the dynamics subsystem existed. These literals were
/// captured from the pre-dynamics build; any drift in RNG consumption,
/// round accounting, or serialization shows up here as a diff.
#[test]
fn static_acceptance_output_is_pinned_byte_for_byte() {
    let sync = parse_run(&[
        "--topology",
        "ring",
        "--nodes",
        "1000",
        "--protocol",
        "advert",
        "--seed",
        "42",
        "--scheduler",
        "sync",
    ])
    .run();
    assert_eq!(
        to_json(&sync),
        "{\"topology\":\"ring\",\"protocol\":\"advert\",\"scheduler\":\"sync\",\
         \"nodes\":1000,\"messages\":1,\"seed\":42,\"completed\":true,\
         \"rounds_to_completion\":500,\"rounds_executed\":500,\
         \"virtual_time\":512000,\"virtual_time_to_completion\":512000,\
         \"total_connections\":999,\"productive_connections\":999,\
         \"wasted_connections\":0,\"complete_nodes\":1000}"
    );
    let async_ = parse_run(&[
        "--topology",
        "ring",
        "--nodes",
        "1000",
        "--protocol",
        "advert",
        "--seed",
        "42",
        "--scheduler",
        "async",
    ])
    .run();
    // The async pin was re-captured when the time-sliced engine became
    // the default execution path (its deterministic schedule interleaves
    // regions, not global time, and it counts dropped proposals). The
    // pre-sliced single-heap loop (890 rounds here) was deleted in PR 16.
    assert_eq!(
        to_json(&async_),
        "{\"topology\":\"ring\",\"protocol\":\"advert\",\"scheduler\":\"async\",\
         \"nodes\":1000,\"messages\":1,\"seed\":42,\"completed\":true,\
         \"rounds_to_completion\":935,\"rounds_executed\":935,\
         \"virtual_time\":956925,\"virtual_time_to_completion\":956925,\
         \"total_connections\":999,\"productive_connections\":999,\
         \"wasted_connections\":0,\"complete_nodes\":1000,\
         \"dropped_proposals\":1002}"
    );
}

#[test]
fn churn_experiments_reproduce_and_report_dynamics() {
    for scheduler in ["sync", "async"] {
        let scenario = parse_run(&[
            "--topology",
            "ring",
            "--nodes",
            "200",
            "--protocol",
            "advert",
            "--scheduler",
            scheduler,
            "--churn-rate",
            "0.1",
            "--rejoin",
            "keep",
            "--seed",
            "42",
        ]);
        let result = scenario.run();
        assert!(
            result.completed,
            "{scheduler}: churned ring should complete"
        );
        let json = to_json(&result);
        for key in [
            "\"dynamics\":{\"model\":\"churn\"",
            "\"departures\":",
            "\"rejoins\":",
            "\"severed_connections\":",
            "\"peak_alive\":",
            "\"min_alive\":",
            "\"final_alive\":",
            "\"coverage_timeline\":[{\"time\":0,\"alive\":200,",
        ] {
            assert!(json.contains(key), "{scheduler}: JSON missing {key}");
        }
        // Same seed + config reproduces the whole result, timeline and all.
        assert_eq!(to_json(&scenario.run()), json, "{scheduler}");
    }
}

#[test]
fn static_json_carries_no_dynamics_key() {
    let result = parse_run(&["--nodes", "40"]).run();
    assert!(result.dynamics.is_none());
    assert!(!to_json(&result).contains("\"dynamics\""));
}

#[test]
fn fading_and_mobility_run_end_to_end() {
    let fading = parse_run(&[
        "--topology",
        "complete",
        "--nodes",
        "40",
        "--fade-prob",
        "0.2",
        "--seed",
        "5",
    ])
    .run();
    assert!(fading.completed);
    let stats = fading.dynamics.as_ref().expect("fading stats");
    assert_eq!(stats.model, "fading");
    assert!(stats.edge_downs > 0);

    let mobile = parse_run(&[
        "--topology",
        "rgg",
        "--nodes",
        "50",
        "--mobility",
        "--protocol",
        "advert",
        "--seed",
        "5",
    ])
    .run();
    assert!(mobile.completed);
    let stats = mobile.dynamics.as_ref().expect("mobility stats");
    assert_eq!(stats.model, "waypoint");

    let combined = parse_run(&[
        "--topology",
        "ring",
        "--nodes",
        "40",
        "--churn-rate",
        "0.05",
        "--fade-prob",
        "0.05",
        "--seed",
        "5",
    ])
    .run();
    let stats = combined.dynamics.as_ref().expect("composite stats");
    assert_eq!(stats.model, "churn+fading");
    assert!(stats.departures > 0 && stats.edge_downs > 0);
}

#[test]
fn threads_flag_does_not_change_results_end_to_end() {
    // The engine is thread-count deterministic; the CLI path (including
    // the available-parallelism clamp) must preserve that.
    for topology in ["ring", "rgg"] {
        for protocol in ["uniform", "advert"] {
            let serial = parse_run(&[
                "--topology",
                topology,
                "--nodes",
                "80",
                "--protocol",
                protocol,
                "--seed",
                "7",
            ])
            .run();
            for threads in ["2", "8"] {
                let sharded = parse_run(&[
                    "--topology",
                    topology,
                    "--nodes",
                    "80",
                    "--protocol",
                    protocol,
                    "--seed",
                    "7",
                    "--threads",
                    threads,
                ])
                .run();
                assert_eq!(
                    serial, sharded,
                    "{protocol} on {topology} diverged at --threads {threads}"
                );
            }
        }
    }
}

#[test]
fn timed_sweep_surfaces_threads_and_wall_time() {
    let scenario = parse_run(&["--nodes", "30", "--seeds", "2", "--threads", "1"]);
    let records: Vec<_> = sweep_runs(&scenario, &mut NoopProbe, false).collect();
    assert_eq!(records.len(), 2);
    for run in &records {
        assert_eq!(run.meta.threads, 1);
        assert!(run.result.completed);
    }
    // The result half matches the untimed sweep exactly.
    let untimed: Vec<_> = scenario.sweep().map(|s| s.run()).collect();
    let timed_results: Vec<_> = records.into_iter().map(|run| run.result).collect();
    assert_eq!(untimed, timed_results);
}

/// The members a bench line differs from its run line in.
const BENCH_ONLY: &[&str] = &["threads", "wall_ms", "metrics"];

#[test]
fn bench_runs_over_the_same_specs_as_run() {
    let ring = ["--nodes", "2000", "--protocol", "advert", "--seed", "5"];
    let capped = [&ring[..], &["--max-rounds", "32"]].concat();
    let mobile = [
        "--topology",
        "rgg",
        "--nodes",
        "2000",
        "--protocol",
        "advert",
        "--churn-rate",
        "0.05",
        "--rejoin",
        "keep",
        "--mobility",
        "--membership",
        "hyparview",
        "--max-rounds",
        "8",
    ];
    for flags in [
        capped.clone(),
        [&capped[..], &["--scheduler", "async"]].concat(),
        mobile.to_vec(),
        [&mobile[..], &["--scheduler", "async"]].concat(),
    ] {
        let (code, run, _) = gossip_sim(&flags, None);
        assert_eq!(code, Some(0), "{flags:?}");
        let mut lines = Vec::new();
        for threads in ["1", "2"] {
            let args = [&["bench"][..], &flags, &["--threads", threads]].concat();
            let (code, bench, stderr) = gossip_sim(&args, None);
            assert_eq!(code, Some(0), "{args:?}: {stderr}");
            assert!(bench.contains(",\"metrics\":{\"build_ms\":"), "{bench}");
            assert!(bench.ends_with("\"}}\n"), "{bench}");
            lines.push(bench);
        }
        // The bench line is the run line, at any thread count.
        let run = strip(run.trim_end(), BENCH_ONLY);
        for line in &lines {
            assert_eq!(strip(line.trim_end(), BENCH_ONLY), run, "{flags:?}");
        }
    }
}

#[test]
fn bench_lines_are_json_only() {
    let (code, stdout, stderr) = gossip_sim(&["bench", "--nodes", "50", "--format", "csv"], None);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("JSON-only"), "{stderr}");
}

#[test]
fn the_rounds_key_is_unknown_to_bench_run_and_spec_files() {
    for args in [&["bench", "--rounds", "8"][..], &["--rounds", "8"]] {
        let (code, _, stderr) = gossip_sim(args, None);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(
            stderr.contains("unknown argument '--rounds'"),
            "{args:?}: {stderr}"
        );
    }
    let spec = std::env::temp_dir().join(format!("rounds-{}.spec", std::process::id()));
    std::fs::write(&spec, "[scenario]\nnodes = 50\nrounds = 8\n").unwrap();
    let (code, _, stderr) = gossip_sim(&["grid", "--spec", spec.to_str().unwrap()], None);
    std::fs::remove_file(&spec).unwrap();
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown key 'rounds'"), "{stderr}");
}

#[test]
fn analyze_counts_bench_lines_old_and_new_as_timing_lines() {
    let (_, runs, _) = gossip_sim(
        &["--nodes", "200", "--protocol", "advert", "--seeds", "3"],
        None,
    );
    let (_, bench, _) = gossip_sim(&["bench", "--nodes", "200", "--max-rounds", "2"], None);
    let legacy = r#"{"schema":5,"bench":"sync_round_loop","scenario_id":"ring-advert-sync-n200-k1-s1","completed":false}"#;
    let input = format!("{runs}{bench}{legacy}\n");

    let (code, report, _) = gossip_sim(&["analyze"], Some(input.as_bytes()));
    assert_eq!(code, Some(0), "{report}");
    let row = report.lines().find(|l| l.contains("n200")).unwrap();
    let cells: Vec<&str> = row.split_whitespace().collect();
    assert_eq!(cells[1..3], ["3", "3"], "{report}");
    assert!(!report.contains("no completed runs"), "{report}");
    assert!(report.contains("skipped 2 bench lines"), "{report}");
    assert!(!report.contains("unrecognised"), "{report}");
}

#[test]
fn csv_sweeps_emit_one_well_formed_row_per_seed() {
    let scenario = parse_run(&[
        "--nodes",
        "30",
        "--seeds",
        "4",
        "--format",
        "csv",
        "--churn-rate",
        "0.1",
        "--seed",
        "9",
    ]);
    let results: Vec<_> = scenario.sweep().map(|s| s.run()).collect();
    assert_eq!(results.len(), 4);
    let columns = csv_header().split(',').count();
    let meta = RunMeta {
        threads: 1,
        wall_ms: 0,
    };
    for (i, result) in results.iter().enumerate() {
        let id = scenario.with_seed(result.seed).scenario_id();
        let row = run_line_csv(&id, result, &meta);
        assert_eq!(row.split(',').count(), columns, "row {i}: {row}");
        assert!(row.starts_with(&format!("1,{id},ring,uniform,sync,30,1,")));
        assert!(row.contains(&format!(",{},", 9 + i as u64)), "seed echoed");
        assert!(row.contains(",churn,"), "dynamics columns filled");
    }
}

#[test]
fn csv_columns_are_pinned_byte_for_byte() {
    assert_eq!(
        csv_header(),
        "schema,scenario_id,topology,protocol,scheduler,nodes,messages,seed,\
         completed,rounds_to_completion,rounds_executed,virtual_time,\
         virtual_time_to_completion,total_connections,productive_connections,\
         wasted_connections,complete_nodes,dropped_proposals,dynamics_model,\
         departures,rejoins,edge_downs,edge_ups,rewires,severed_connections,\
         peak_alive,min_alive,final_alive,mem_active_min,mem_active_mean,\
         mem_active_max,mem_isolated_nodes,mem_joins,mem_shuffles,mem_probes,\
         mem_suspicions,mem_evictions,mem_false_positive_evictions,threads,\
         wall_ms"
    );
}

#[test]
fn a_churned_overlay_run_renders_what_the_hand_written_serializers_did() {
    // Both strings were captured from the commit before the field
    // tables: every layer on, an unfinished run (null / empty
    // completion cells), history in JSON only.
    let flags = [
        "--topology",
        "rgg",
        "--nodes",
        "24",
        "--protocol",
        "advert",
        "--churn-rate",
        "0.1",
        "--rejoin",
        "keep",
        "--membership",
        "hyparview",
        "--max-rounds",
        "4",
        "--seed",
        "42",
    ];
    let plain = parse_run(&flags);
    let with_history = parse_run(&[&flags[..], &["--history"]].concat());
    assert_eq!(
        to_json(&with_history.run()),
        concat!(
            r#"{"topology":"rgg","protocol":"advert","scheduler":"sync","nodes":24,"messages":1,"seed":42,"#,
            r#""completed":false,"rounds_to_completion":null,"rounds_executed":4,"virtual_time":4096,"#,
            r#""virtual_time_to_completion":null,"total_connections":10,"productive_connections":10,"#,
            r#""wasted_connections":0,"complete_nodes":10,"#,
            r#""dynamics":{"model":"churn","departures":3,"rejoins":0,"edge_downs":0,"edge_ups":0,"#,
            r#""rewires":0,"severed_connections":0,"peak_alive":24,"min_alive":21,"final_alive":21,"#,
            r#""coverage_timeline":[{"time":0,"alive":24,"informed_alive":1},"#,
            r#"{"time":430,"alive":23,"informed_alive":1},{"time":1024,"alive":23,"informed_alive":2},"#,
            r#"{"time":2377,"alive":22,"informed_alive":3},{"time":3779,"alive":21,"informed_alive":6},"#,
            r#"{"time":4096,"alive":21,"informed_alive":10}]},"#,
            r#""membership":{"active_min":2,"active_mean":4.238095238095238,"active_max":5,"#,
            r#""isolated_nodes":0,"joins":14,"shuffles":89,"probes":89,"suspicions":3,"evictions":0,"#,
            r#""false_positive_evictions":0},"#,
            r#""rounds":[{"round":1,"connections":1,"productive":1,"complete_nodes":2,"messages_held":2},"#,
            r#"{"round":2,"connections":2,"productive":2,"complete_nodes":4,"messages_held":4},"#,
            r#"{"round":3,"connections":3,"productive":3,"complete_nodes":6,"messages_held":6},"#,
            r#"{"round":4,"connections":4,"productive":4,"complete_nodes":10,"messages_held":10}]}"#,
        )
    );
    let meta = RunMeta {
        threads: 1,
        wall_ms: 0,
    };
    assert_eq!(
        run_line_csv(&plain.scenario_id(), &plain.run(), &meta),
        "1,rgg-advert-sync-n24-k1-cap4-churn0.1:keep-mem@a5p30sh1pr1-s42,rgg,advert,sync,24,1,42,\
         false,,4,4096,,10,10,0,10,0,churn,3,0,0,0,0,0,24,21,21,2,4.238095238095238,5,0,14,89,89,\
         3,0,0,1,0"
    );
}

#[test]
fn a_retired_subcommand_exits_as_a_usage_error() {
    let (code, _, stderr) = gossip_sim(&["soak", "X"], None);
    assert_eq!(code, Some(2), "{stderr}");
}

#[test]
fn oversize_membership_views_exit_2_naming_the_keys() {
    // Views are allocated at capacity: 100 000 × (5 + 3 000) slots is past
    // the scenario budget and must be refused before anything is sized.
    let (code, _, err) = gossip_sim(
        &[
            "--membership",
            "hyparview",
            "--nodes",
            "100000",
            "--passive-view",
            "3000",
        ],
        None,
    );
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("active-view/passive-view"), "{err}");
    assert!(err.contains("300500000 view slots"), "{err}");
}

#[test]
fn analyze_skips_a_line_that_is_not_utf8() {
    let (code, runs, stderr) = gossip_sim(&["--nodes", "50", "--seeds", "2"], None);
    assert_eq!(code, Some(0), "{stderr}");
    let mut input = runs.into_bytes();
    input.extend_from_slice(b"\xff\xfe\n");

    let (code, report, stderr) = gossip_sim(&["analyze"], Some(&input));
    assert_eq!(code, Some(0), "{stderr}");
    assert!(report.contains("rounds to completion"), "{report}");
    assert!(report.contains("skipped 1 unparsable lines"), "{report}");
}

/// Run `gossip-sim grid` on a six-cell grid with `extra` flags; return
/// stdout with `wall_ms` stripped, and stderr.
fn small_grid(extra: &[&str]) -> (String, String) {
    let args = [
        &["grid", "--nodes", "16", "--axis", "seed=1,2,3,4,5,6"][..],
        extra,
    ]
    .concat();
    let (code, stdout, stderr) = gossip_sim(&args, None);
    assert_eq!(code, Some(0), "{stderr}");
    let stripped = stdout
        .lines()
        .map(|line| strip(line, &["wall_ms"]))
        .collect::<Vec<_>>()
        .join("\n");
    (stripped, stderr)
}
#[test]
fn grid_cores_beyond_the_machine_are_clamped_with_one_warning() {
    let (serial, _) = small_grid(&["--cores", "1"]);
    let (clamped, stderr) = small_grid(&["--cores", "100000"]);
    assert_eq!(clamped, serial);
    assert_eq!(serial.lines().count(), 6);
    let warnings: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("warning:"))
        .collect();
    assert_eq!(warnings.len(), 1, "{stderr}");
    assert!(warnings[0].contains("--cores 100000"), "{stderr}");
}

#[test]
fn grid_progress_heartbeats_once_per_cell_on_stderr_only() {
    let (plain, _) = small_grid(&["--cores", "2"]);
    let (with_progress, stderr) = small_grid(&["--cores", "2", "--progress"]);
    assert_eq!(with_progress, plain);
    for cell in 1..=6 {
        let done = format!("progress: cell {cell}/6 done ");
        let count = stderr.lines().filter(|l| l.starts_with(&done)).count();
        assert_eq!(count, 1, "{stderr}");
    }
    assert_eq!(stderr.matches("progress:").count(), 6, "{stderr}");
    assert!(!stderr.contains("stole"), "{stderr}");
}
