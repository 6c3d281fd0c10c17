//! `tiering-mini`: the three default tiering policies (static, hot-promote,
//! periodic-rebalance) at the 50/50 configuration for the six workloads,
//! through `sweep_tiering_matrix`.
//!
//! One round is one sweep per workload: eighteen policy cells, each a full
//! re-simulation priced by a Monte Carlo interference campaign.

use crate::common::{self, digest_of, json_of, panic_text, run_rounds, Checks, Outcome};
use crate::host::{median, SchedStat, Stopwatch};
use crate::inputs::{build_inputs, machine, Profile};
use crate::trace::{span, take_layers, TracedWorkload};
use dismem_profiler::{pooled_config, run_workload, RunOptions};
use dismem_sched::{default_specs, sweep_tiering_matrix, CampaignConfig, WorkloadTieringStudy};
use dismem_sim::{Machine, MachineConfig, TieringSpec};
use dismem_trace::PAGE_SIZE;
use dismem_workloads::Workload;
use std::panic::AssertUnwindSafe;

/// Monte Carlo trials pricing each policy cell.
const CAMPAIGN_RUNS: usize = 30;

/// Monte Carlo seed of the pricing campaigns, as in
/// `examples/tiering_study.rs`. A method parameter, not an input.
const CAMPAIGN_SEED: u64 = 7;

/// The swept local fraction.
const FRACTIONS: [f64; 1] = [0.5];

/// Policy specs scaled to one workload, as in `examples/tiering_study.rs`:
/// an epoch is an eighth of a full-footprint sweep.
fn specs_for(workload: &dyn Workload) -> Vec<TieringSpec> {
    let footprint_lines = workload.expected_footprint_bytes() / 64;
    default_specs((footprint_lines / 8).max(2_048), 16.0)
}

struct Setup {
    workloads: Vec<(Box<dyn Workload>, Vec<TieringSpec>)>,
    campaign: CampaignConfig,
    base: MachineConfig,
}

fn make_setup(profile: Profile, seed: u64, traced: bool) -> (Setup, f64) {
    let (inputs, graph_gen_s) = build_inputs(profile, seed);
    let workloads = inputs
        .into_iter()
        .map(|workload| {
            let specs = specs_for(workload.as_ref());
            let workload: Box<dyn Workload> = if traced {
                Box::new(TracedWorkload { inner: workload })
            } else {
                workload
            };
            (workload, specs)
        })
        .collect();
    let campaign = CampaignConfig {
        runs: CAMPAIGN_RUNS,
        epochs_per_run: 8,
        seed: CAMPAIGN_SEED,
    };
    let setup = Setup {
        workloads,
        campaign,
        base: machine(profile),
    };
    (setup, graph_gen_s)
}

struct Round {
    studies: Vec<WorkloadTieringStudy>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    sched: SchedStat,
}

impl common::Round for Round {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }

    fn sched(&self) -> SchedStat {
        self.sched
    }

    fn digest(&self) -> u64 {
        digest_of(&self.studies)
    }

    fn ops(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }
}

fn round(setup: &Setup, traced: bool) -> Round {
    let mut out = Round {
        studies: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
        sched: SchedStat::default(),
    };
    let sched = SchedStat::now();
    let clock = Stopwatch::start();
    for (workload, specs) in &setup.workloads {
        out.attempted += specs.len() as u64;
        let sweep = || {
            sweep_tiering_matrix(
                workload.as_ref(),
                &setup.base,
                &FRACTIONS,
                specs,
                &setup.campaign,
            )
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if traced {
                span("sched.tiering_sweep", sweep)
            } else {
                sweep()
            }
        }));
        match result {
            Ok(study) => {
                for cell in &study.cells {
                    for failure in &cell.sweep.failed_policies {
                        eprintln!("{} {}: {}", study.workload, failure.policy, failure.error);
                    }
                    out.failed += cell.sweep.failed_policies.len() as u64;
                }
                out.studies.push(study);
            }
            Err(payload) => {
                eprintln!(
                    "tiering sweep of {} failed: {}",
                    workload.name(),
                    panic_text(payload)
                );
                out.failed += specs.len() as u64;
            }
        }
    }
    out.wall_s = clock.secs();
    out.sched = SchedStat::now().since(&sched);
    out
}

/// Checks one workload against runs made apart from the sweep, and returns
/// its demand lines and the replay counters (windows, passes, stride
/// elements) summed over the policies, which are only counted (by re-running
/// every policy on a `Machine`) when `count_replay` is set.
fn check_workload(
    workload: &dyn Workload,
    base: &MachineConfig,
    study: Option<&WorkloadTieringStudy>,
    count_replay: bool,
    checks: &mut Checks,
) -> (u64, [u64; 3]) {
    let name = workload.name();
    let config = pooled_config(base, workload, FRACTIONS[0]);
    let untiered = run_workload(workload, &RunOptions::new(config.clone()));
    let mut replay = [0u64; 3];
    let specs = specs_for(workload);
    let probed = specs
        .iter()
        .filter(|spec| count_replay || matches!(spec, TieringSpec::Static));
    for spec in probed {
        let mut machine = Machine::new(config.clone());
        machine.set_tiering_spec(spec);
        workload.run(&mut machine);
        replay[0] += machine.replay_windows();
        replay[1] += machine.replay_passes();
        replay[2] += machine.replay_stride_elements();
        let report = machine.finish();
        if matches!(spec, TieringSpec::Static) {
            checks.check(json_of(&report) == json_of(&untiered), || {
                format!("{name}: the static policy differs from an untiered run")
            });
        }
    }
    checks.check(study.is_some(), || format!("{name}: no tiering study"));
    let outcomes = study
        .iter()
        .flat_map(|s| &s.cells)
        .flat_map(|c| &c.sweep.outcomes);
    for outcome in outcomes {
        let t = &outcome.tiering;
        checks.check(t.migrated_bytes == t.migrated_pages * PAGE_SIZE, || {
            format!(
                "{name} {}: {} migrated bytes for {} pages",
                outcome.policy, t.migrated_bytes, t.migrated_pages
            )
        });
        if outcome.policy == "static" {
            checks.check(
                outcome.runtime_s == untiered.total_runtime_s
                    && outcome.remote_access_ratio == untiered.remote_access_ratio()
                    && outcome.link_raw_bytes == untiered.total.link_raw_bytes
                    && t.migrated_pages == 0,
                || format!("{name}: the static outcome differs from an untiered run"),
            );
        }
    }
    (untiered.total.demand_lines(), replay)
}

/// Runs the workload for `seconds` (timed) or traced, and checks it.
pub fn run(
    profile: Profile,
    seed: u64,
    seconds: f64,
    traced: bool,
    checks: &mut Checks,
) -> Outcome {
    let mut out = Outcome::default();
    let (rounds, graph_gen_s) = run_rounds(
        "tiering",
        seconds,
        traced,
        |traced| make_setup(profile, seed, traced),
        round,
        &mut out,
        checks,
    );
    let first = &rounds[0];

    let base = machine(profile);
    let (inputs, _) = build_inputs(profile, seed);
    let mut lines_per_round = 0u64;
    let mut replay = [0u64; 3];
    for input in &inputs {
        let workload = input.as_ref();
        let study = first.studies.iter().find(|s| s.workload == workload.name());
        let (lines, counts) = check_workload(workload, &base, study, traced, checks);
        lines_per_round += specs_for(workload).len() as u64 * lines;
        for (total, count) in replay.iter_mut().zip(counts) {
            *total += count;
        }
    }

    let wall_s = median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    if traced {
        let layers = take_layers();
        let n = rounds.len() as f64;
        let per_round = |layer: &str| layers.get(layer).map_or(0.0, |l| l.total_s) / n;
        let outcomes = || {
            first
                .studies
                .iter()
                .flat_map(|s| &s.cells)
                .flat_map(|c| &c.sweep.outcomes)
        };
        let epochs: u64 = outcomes().map(|o| o.tiering.epochs).sum();
        let migrated: u64 = outcomes().map(|o| o.tiering.migrated_pages).sum();
        let sim_runs = layers.get("sim.run").map_or(0, |l| l.calls) / rounds.len() as u64;
        out.push("workloads.graph_gen_s", graph_gen_s, "s");
        out.push("sim.runs", sim_runs as f64, "count");
        out.push("sim.run_s", per_round("sim.run"), "s");
        out.push(
            "sim.ns_per_line",
            per_round("sim.run") * 1e9 / lines_per_round as f64,
            "ns",
        );
        out.push("sim.replay_windows", replay[0] as f64, "count");
        out.push("sim.replay_passes", replay[1] as f64, "count");
        out.push("sim.replay_stride_elements", replay[2] as f64, "count");
        out.push("sim.epochs", epochs as f64, "count");
        out.push("sim.migrated_pages", migrated as f64, "count");
        let trials = outcomes().count() * CAMPAIGN_RUNS;
        out.push("sched.trials", trials as f64, "count");
        out.layers = Some((layers, rounds.len()));
    } else {
        let cpus: Vec<f64> = rounds.iter().map(|r| r.sched.cpu_s).collect();
        out.push("wall_s", wall_s, "s");
        out.push("cpu_s", median(&cpus), "s");
        out.push("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
        out.push(
            "mlines_per_s",
            lines_per_round as f64 / wall_s / 1e6,
            "Mlines/s",
        );
        out.push("cells_per_s", first.attempted as f64 / wall_s, "1/s");
        let workloads: Vec<&dyn Workload> = inputs.iter().map(|w| w.as_ref()).collect();
        let [fig08, fig10, fig11, fig13] = crate::study::fidelity(&workloads, &base);
        out.push("fig08_err", fig08, "abs");
        out.push("fig10_err", fig10, "abs");
        out.push("fig11_err", fig11, "abs");
        out.push("fig13_err", fig13, "pct-pt");
    }
    out
}
