//! The seven workloads. Names are the contract with `BENCHMARK.json`;
//! sizes are written in the shared `key = value` vocabulary of
//! `gossip-sim` (a flag `--key value`, a spec-file line, and a
//! `ScenarioBuilder::set(key, value)` call all mean the same thing), so
//! the black-box pass and the in-process traced pass cannot drift apart.
//!
//! Every capped workload pins `max-rounds` below the round at which any
//! seed completes: rounds-to-completion moves by ±10–20 % from seed to
//! seed, and the benchmark has to read the same on every seed.

/// How big to make each workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size: one pipeline takes 0.5–1 s on a 2-core box.
    Bench,
    /// Every workload well under a second; for the harness's own tests.
    Smoke,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Bench => "bench",
            Size::Smoke => "smoke",
        }
    }
}

/// The shape of a workload's process pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `gossip-sim <flags>`: one process, one run line per seed.
    Run,
    /// `gossip-sim grid --spec F --cores T`: one CSV row per cell.
    Grid,
    /// `gossip-sim <flags> --trace F > R`, then `gossip-sim analyze R F`.
    TraceAnalyze,
}

type Assignments = &'static [(&'static str, &'static str)];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, i.e. run and policed by the driver.
    /// The driver's time cap buys 92 runs of 30 s or 158 runs of 18 s,
    /// and on a shared host only the longer window repeats (README.md,
    /// "About the bounds"), so four of the seven are listed; the other
    /// three run everywhere else: by name, in the full report, in the
    /// traced pass and in `--selfcheck`.
    pub driver: bool,
    pub kind: Kind,
    bench: Assignments,
    smoke: Assignments,
    /// Does a full (non-set-up) run reach every node?
    pub expect_completed: bool,
}

/// Axes of the `grid-pool` spec besides the seed axis: 16 configurations.
pub const GRID_AXES: &[(&str, &str)] = &[
    ("topology", "ring, grid, rgg, complete"),
    ("protocol", "uniform, advert"),
    ("scheduler", "sync, async"),
];
const GRID_CONFIGS: usize = 16;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sync-ring-uniform",
        why: "degree-2 ring of 131072 nodes, ~40k connections per round: the sharded matcher dominates (core::matching); dynamics, membership, telemetry and the pool do nothing",
        driver: true,
        kind: Kind::Run,
        bench: &[("topology", "ring"), ("nodes", "131072"), ("protocol", "uniform"), ("max-rounds", "80")],
        smoke: &[("topology", "ring"), ("nodes", "20000"), ("protocol", "uniform"), ("max-rounds", "16")],
        expect_completed: false,
    },
    Workload {
        name: "sync-rgg-advert",
        why: "mean degree ~60: advertisement scan/decide dominates the engine, the adaptive-radius RGG build dominates set-up and RSS (protocols, core::topology); matching and transfer are small",
        driver: false,
        kind: Kind::Run,
        bench: &[("topology", "rgg"), ("nodes", "60000"), ("protocol", "advert"), ("max-rounds", "40")],
        smoke: &[("topology", "rgg"), ("nodes", "2000"), ("protocol", "advert"), ("max-rounds", "8")],
        expect_completed: false,
    },
    Workload {
        name: "sync-grid-alltoall",
        why: "k = n all-to-all gossip, the paper's problem: 77-word rows make fingerprints and unions the cost (core::message); same sync and protocol layers as the k = 1 workloads",
        driver: true,
        kind: Kind::Run,
        bench: &[("topology", "grid"), ("nodes", "4900"), ("messages", "4900"), ("protocol", "advert")],
        smoke: &[("topology", "grid"), ("nodes", "256"), ("messages", "256"), ("protocol", "advert")],
        expect_completed: true,
    },
    Workload {
        name: "async-grid-uniform",
        why: "the sliced event engine under real handshake traffic: attempt/finish events, boundary sweep, log merge (sim::sliced); the sync round loop does nothing",
        driver: true,
        kind: Kind::Run,
        bench: &[("topology", "grid"), ("nodes", "14400"), ("protocol", "uniform"), ("scheduler", "async"), ("max-rounds", "300")],
        smoke: &[("topology", "grid"), ("nodes", "400"), ("protocol", "uniform"), ("scheduler", "async"), ("max-rounds", "40")],
        expect_completed: false,
    },
    Workload {
        name: "dyn-rgg-mobile",
        why: "churn + waypoint mobility + HyParView views: serial mutation drain, DynamicTopology rewires and Membership::tick dominate (dynamics, membership, core::dynamic); bench cannot see them",
        driver: true,
        kind: Kind::Run,
        bench: &[("topology", "rgg"), ("nodes", "20000"), ("protocol", "advert"), ("churn-rate", "0.05"), ("rejoin", "keep"), ("mobility", "true"), ("membership", "hyparview"), ("max-rounds", "12")],
        smoke: &[("topology", "rgg"), ("nodes", "1000"), ("protocol", "advert"), ("churn-rate", "0.05"), ("rejoin", "keep"), ("mobility", "true"), ("membership", "hyparview"), ("max-rounds", "6")],
        expect_completed: false,
    },
    Workload {
        name: "grid-pool",
        why: "thousands of sub-millisecond 64-node cells: spec parse, grid expansion, work stealing, the sequencer and CSV emit become visible (experiments); each engine run does little",
        driver: false,
        kind: Kind::Grid,
        // `seeds` here is the length of the seed axis, not a sweep width.
        bench: &[("nodes", "64"), ("seeds", "96")],
        smoke: &[("nodes", "64"), ("seeds", "4")],
        expect_completed: true,
    },
    Workload {
        name: "trace-analyze",
        why: "write and read path of one JSONL trace: --trace multiplies the cost of a run that is cheap untraced, and analyze costs as much again (telemetry)",
        driver: false,
        kind: Kind::TraceAnalyze,
        bench: &[("topology", "grid"), ("nodes", "10000"), ("protocol", "uniform"), ("seeds", "2"), ("max-rounds", "50")],
        smoke: &[("topology", "grid"), ("nodes", "400"), ("protocol", "uniform"), ("seeds", "2"), ("max-rounds", "20")],
        expect_completed: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    fn sized(&self, size: Size) -> Assignments {
        match size {
            Size::Bench => self.bench,
            Size::Smoke => self.smoke,
        }
    }

    fn value(&self, size: Size, key: &str) -> Option<&'static str> {
        self.sized(size)
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    fn seeds(&self, size: Size) -> usize {
        self.value(size, "seeds")
            .map_or(1, |v| v.parse().expect("numeric seeds"))
    }

    /// Run lines one pipeline must emit — the operations it attempts.
    pub fn expected_lines(&self, size: Size) -> usize {
        match self.kind {
            Kind::Grid => GRID_CONFIGS * self.seeds(size),
            Kind::Run | Kind::TraceAnalyze => self.seeds(size),
        }
    }

    /// The round count every line must report: 0 for a set-up run, the
    /// cap for a capped workload, unconstrained when run to completion.
    pub fn expected_rounds(&self, size: Size, setup: bool) -> Option<u64> {
        if setup {
            return Some(0);
        }
        self.value(size, "max-rounds")
            .map(|v| v.parse().expect("numeric cap"))
    }

    /// The scenario of a `Run`/`TraceAnalyze` workload as ordered
    /// `key = value` assignments. `setup` replaces the round cap by 0:
    /// the same pipeline doing everything except simulate.
    pub fn assignments(
        &self,
        size: Size,
        seed: u64,
        threads: usize,
        setup: bool,
    ) -> Vec<(String, String)> {
        assert_ne!(
            self.kind,
            Kind::Grid,
            "grid workloads are described by spec_text"
        );
        let mut out: Vec<(String, String)> = self
            .sized(size)
            .iter()
            .filter(|(k, _)| !(setup && *k == "max-rounds"))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if setup {
            out.push(("max-rounds".to_string(), "0".to_string()));
        }
        out.push(("seed".to_string(), seed.to_string()));
        out.push(("threads".to_string(), threads.to_string()));
        out
    }

    /// The spec file of the `Grid` workload: 16 configurations × a seed
    /// axis starting at the workload seed, CSV output.
    pub fn spec_text(&self, size: Size, seed: u64, setup: bool) -> String {
        assert_eq!(self.kind, Kind::Grid);
        let mut text = format!(
            "[scenario]\nnodes = {}\n",
            self.value(size, "nodes").expect("grid has nodes")
        );
        if setup {
            text.push_str("max-rounds = 0\n");
        }
        text.push_str("\n[axis]\n");
        for (key, values) in GRID_AXES {
            text.push_str(&format!("{key} = {values}\n"));
        }
        let seeds: Vec<String> = (0..self.seeds(size) as u64)
            .map(|i| (seed + i).to_string())
            .collect();
        text.push_str(&format!(
            "seed = {}\n\n[output]\nformat = csv\n",
            seeds.join(", ")
        ));
        text
    }
}

/// Assignments as `gossip-sim` flags: `--key value`, with boolean keys
/// as bare switches.
pub fn flags(assignments: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    for (key, value) in assignments {
        out.push(format!("--{key}"));
        if value != "true" {
            out.push(value.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(find(w.name).is_some());
        }
        assert_eq!(WORKLOADS.len(), 7);
        let listed = WORKLOADS.iter().filter(|w| w.driver).count();
        assert!((2..=8).contains(&listed), "the contract wants 2 to 8");
    }

    #[test]
    fn setup_swaps_the_cap_for_zero_and_flags_render_switches_bare() {
        let dyn_w = find("dyn-rgg-mobile").unwrap();
        let full = flags(&dyn_w.assignments(Size::Bench, 9, 2, false));
        assert!(full.windows(2).any(|w| w == ["--max-rounds", "12"]));
        assert!(
            full.windows(2).any(|w| w == ["--mobility", "--membership"]),
            "{full:?}"
        );
        assert!(full.ends_with(&["--seed".into(), "9".into(), "--threads".into(), "2".into()]));
        let setup = flags(&dyn_w.assignments(Size::Bench, 9, 2, true));
        assert!(setup.windows(2).any(|w| w == ["--max-rounds", "0"]));
        assert!(!setup.windows(2).any(|w| w == ["--max-rounds", "12"]));
        assert_eq!(dyn_w.expected_rounds(Size::Bench, false), Some(12));
        assert_eq!(dyn_w.expected_rounds(Size::Bench, true), Some(0));
        assert_eq!(
            find("sync-grid-alltoall")
                .unwrap()
                .expected_rounds(Size::Bench, false),
            None
        );
    }

    #[test]
    fn grid_spec_lists_consecutive_seeds_from_the_workload_seed() {
        let pool = find("grid-pool").unwrap();
        assert_eq!(pool.expected_lines(Size::Smoke), 64);
        assert_eq!(pool.expected_lines(Size::Bench), 1536);
        let spec = pool.spec_text(Size::Smoke, 42, true);
        assert!(spec.contains("seed = 42, 43, 44, 45\n"));
        assert!(spec.contains("max-rounds = 0\n"));
        assert!(spec.contains("format = csv"));
        assert!(!pool
            .spec_text(Size::Smoke, 42, false)
            .contains("max-rounds"));
        assert_eq!(
            find("trace-analyze").unwrap().expected_lines(Size::Bench),
            2
        );
    }
}
