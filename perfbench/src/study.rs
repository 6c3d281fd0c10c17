//! `study-mini`: the paper's three-level study of the six workloads plus the
//! Fig. 13 scheduling comparison on each 50/50 pooled run.
//!
//! One round is, for every workload, `QuantitativeStudy::full_study` at the
//! three local fractions and `compare_policies` on `pooled_run(0.5)`: twelve
//! operations and 72 requested simulations, of which 30 are distinct.

use crate::common::{self, digest_of, json_of, panic_text, run_rounds, Checks, Outcome};
use crate::host::{median, SchedStat, Stopwatch};
use crate::inputs::{build_inputs, machine, Profile, LOCAL_FRACTIONS};
use crate::trace::{span, take_layers, TracedWorkload};
use dismem_bench::paper::{FIG10_SENSITIVITY_50_50, FIG11_IC, FIG13_SPEEDUP, FIG8_PREFETCH};
use dismem_core::{derive_guidance, QuantitativeStudy, StudyReport};
use dismem_lbench::{app_interference_coefficient, LBenchModel};
use dismem_profiler::level1::{level1_profile, Level1Report, PrefetchMetrics};
use dismem_profiler::level2::level2_from_report;
use dismem_profiler::level3::{level3_from_report, Level3Report, PAPER_LOI_LEVELS};
use dismem_profiler::{pooled_config, run_workload, RunOptions};
use dismem_sched::campaign::compare_policies;
use dismem_sched::{compare_policies_checked, CampaignConfig, PolicyComparison};
use dismem_sim::{InterferenceProfile, Machine, MachineConfig, RunReport};
use dismem_workloads::Workload;
use std::panic::AssertUnwindSafe;

/// Index of the 50/50 configuration in [`LOCAL_FRACTIONS`].
const HALF: usize = 1;
/// Index of the most pool-heavy configuration (guidance is derived there).
const TIGHTEST: usize = 2;
/// Simulations one round requests per workload.
const SIMS_PER_WORKLOAD: u64 = 12;

/// Everything a round produces, per workload in presentation order.
struct Round {
    reports: Vec<StudyReport>,
    comparisons: Vec<PolicyComparison>,
    /// The pooled 50/50 run behind each comparison.
    pooled_half: Vec<RunReport>,
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
        digest_of(&(&self.reports, &self.comparisons))
    }

    fn ops(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }
}

struct Setup {
    studies: Vec<QuantitativeStudy>,
}

fn make_setup(profile: Profile, seed: u64, traced: bool) -> (Setup, f64) {
    let (inputs, graph_gen_s) = build_inputs(profile, seed);
    let config = machine(profile);
    let studies = inputs
        .into_iter()
        .map(|workload| {
            let workload: Box<dyn Workload> = if traced {
                Box::new(TracedWorkload { inner: workload })
            } else {
                workload
            };
            QuantitativeStudy::new(workload, config.clone())
        })
        .collect();
    (Setup { studies }, graph_gen_s)
}

/// `full_study` as the traced run composes it: the same level calls in the
/// same order, each in its own span.
fn traced_full_study(study: &QuantitativeStudy) -> StudyReport {
    let level1 = span("profiler.level1", || study.level1());
    let level2: Vec<_> = LOCAL_FRACTIONS
        .iter()
        .map(|&f| span("profiler.level2", || study.level2(f)))
        .collect();
    let level3: Vec<_> = LOCAL_FRACTIONS
        .iter()
        .map(|&f| span("profiler.level3", || study.level3(f, &PAPER_LOI_LEVELS)))
        .collect();
    let interference_coefficient = LOCAL_FRACTIONS
        .iter()
        .map(|&f| span("lbench.ic", || study.interference_coefficient(f)))
        .collect();
    let guidance = derive_guidance(&level2[TIGHTEST], &level3[TIGHTEST]);
    StudyReport {
        workload: study.workload_name().to_string(),
        level1,
        level2,
        level3,
        interference_coefficient,
        guidance,
    }
}

fn round(setup: &Setup, traced: bool) -> Round {
    let mut out = Round {
        reports: Vec::new(),
        comparisons: Vec::new(),
        pooled_half: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
        sched: SchedStat::default(),
    };
    let sched = SchedStat::now();
    let clock = Stopwatch::start();
    for study in &setup.studies {
        out.attempted += 2;
        let name = study.workload_name();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let report = if traced {
                traced_full_study(study)
            } else {
                study.full_study(&LOCAL_FRACTIONS)
            };
            (report, study.pooled_run(LOCAL_FRACTIONS[HALF]))
        }));
        let (report, pooled) = match result {
            Ok(done) => done,
            Err(payload) => {
                eprintln!("study of {name} failed: {}", panic_text(payload));
                out.failed += 2;
                continue;
            }
        };
        let campaign = study_campaign();
        let comparison = if traced {
            span("sched.compare", || {
                compare_policies_checked(name, &pooled, &campaign)
            })
        } else {
            compare_policies_checked(name, &pooled, &campaign)
        };
        match comparison {
            Ok(c) => {
                out.comparisons.push(c);
                out.pooled_half.push(pooled);
            }
            Err(e) => {
                eprintln!("policy comparison of {name} failed: {e}");
                out.failed += 1;
            }
        }
        out.reports.push(report);
    }
    out.wall_s = clock.secs();
    out.sched = SchedStat::now().since(&sched);
    out
}

/// Mean absolute difference over paired values.
fn mean_abs(pairs: &[(f64, f64)]) -> f64 {
    pairs.iter().map(|(a, b)| (a - b).abs()).sum::<f64>() / pairs.len().max(1) as f64
}

/// What the paper-fidelity errors read of one workload's study.
pub struct FidelityRow {
    workload: String,
    prefetch: PrefetchMetrics,
    /// Compute-phase relative performance at LoI 50 on the 50/50 split.
    fig10: f64,
    /// Interference coefficient on the 50/50 split.
    fig11: f64,
    /// Mean speedup and p75 reduction of interference-aware scheduling, %.
    fig13: (f64, f64),
}

impl FidelityRow {
    fn new(
        level1: &Level1Report,
        level3_half: &Level3Report,
        ic_half: f64,
        c: &PolicyComparison,
    ) -> Self {
        let fig10 = level3_half
            .compute_phase_sensitivity
            .iter()
            .find(|p| p.loi_percent == 50.0)
            .map_or(f64::NAN, |p| p.relative_performance);
        FidelityRow {
            workload: level1.workload.clone(),
            prefetch: level1.prefetch,
            fig10,
            fig11: ic_half,
            fig13: (c.mean_speedup_percent(), c.p75_reduction_percent()),
        }
    }
}

/// Mean absolute errors against `dismem_bench::paper` of Fig. 8 (four
/// prefetch metrics), Fig. 10 (compute-phase relative performance at LoI 50,
/// 50/50), Fig. 11 (IC at 50 %) and Fig. 13 (mean speedup and p75
/// reduction, percentage points).
pub fn figure_errors(rows: &[FidelityRow]) -> [f64; 4] {
    let row = |name: &str| rows.iter().find(|r| r.workload == name);
    let mut fig08 = Vec::new();
    for (name, accuracy, coverage, excess, gain) in FIG8_PREFETCH {
        if let Some(r) = row(name) {
            let p = &r.prefetch;
            fig08.extend([
                (p.accuracy, accuracy),
                (p.coverage, coverage),
                (p.excess_traffic, excess),
                (p.performance_gain, gain),
            ]);
        }
    }
    let fig10: Vec<_> = FIG10_SENSITIVITY_50_50
        .iter()
        .filter_map(|&(name, paper)| row(name).map(|r| (r.fig10, paper)))
        .collect();
    let fig11: Vec<_> = FIG11_IC
        .iter()
        .filter_map(|&(name, paper)| row(name).map(|r| (r.fig11, paper)))
        .collect();
    let mut fig13 = Vec::new();
    for (name, speedup, p75) in FIG13_SPEEDUP {
        if let Some(r) = row(name) {
            fig13.extend([(r.fig13.0, speedup), (r.fig13.1, p75)]);
        }
    }
    [
        mean_abs(&fig08),
        mean_abs(&fig10),
        mean_abs(&fig11),
        mean_abs(&fig13),
    ]
}

/// The Fig. 13 campaign: the paper's 100 runs of 8 epochs, with the
/// repository's default Monte Carlo seed. The seed is a parameter of the
/// method, not an input: drawing it from `--seed` would make `fig13_err`
/// measure sampling noise.
fn study_campaign() -> CampaignConfig {
    CampaignConfig::default()
}

/// The paper-fidelity errors of a set of workloads outside the study
/// workload: level 1, one pooled 50/50 run per workload and the Fig. 13
/// comparison on it, with the study's campaign.
pub fn fidelity(workloads: &[&dyn Workload], base: &MachineConfig) -> [f64; 4] {
    let campaign = study_campaign();
    let model = LBenchModel::from_config(base);
    let rows: Vec<FidelityRow> = workloads
        .iter()
        .map(|&w| {
            let level1 = level1_profile(w, base);
            let half = LOCAL_FRACTIONS[HALF];
            let run = run_workload(w, &RunOptions::new(pooled_config(base, w, half)));
            let level3 = level3_from_report(w.name(), half, &run, &PAPER_LOI_LEVELS);
            let ic = app_interference_coefficient(&run, &model, w.name())
                .0
                .coefficient;
            let comparison = compare_policies(w.name(), &run, &campaign);
            FidelityRow::new(&level1, &level3, ic, &comparison)
        })
        .collect();
    figure_errors(&rows)
}

/// The same study assembled from the lower-level public functions:
/// `level1_profile`, one `run_workload` per fraction, and the `*_from_report`
/// derivations. Returns the report and the three pooled runs.
fn assembled_study(workload: &dyn Workload, base: &MachineConfig) -> (StudyReport, Vec<RunReport>) {
    let level1 = level1_profile(workload, base);
    let runs: Vec<RunReport> = LOCAL_FRACTIONS
        .iter()
        .map(|&f| run_workload(workload, &RunOptions::new(pooled_config(base, workload, f))))
        .collect();
    let name = workload.name();
    let level2: Vec<_> = LOCAL_FRACTIONS
        .iter()
        .zip(&runs)
        .map(|(&f, run)| level2_from_report(name, f, run))
        .collect();
    let level3: Vec<_> = LOCAL_FRACTIONS
        .iter()
        .zip(&runs)
        .map(|(&f, run)| level3_from_report(name, f, run, &PAPER_LOI_LEVELS))
        .collect();
    let model = LBenchModel::from_config(base);
    let interference_coefficient = runs
        .iter()
        .map(|run| {
            app_interference_coefficient(run, &model, name)
                .0
                .coefficient
        })
        .collect();
    let guidance = derive_guidance(&level2[TIGHTEST], &level3[TIGHTEST]);
    let report = StudyReport {
        workload: name.to_string(),
        level1,
        level2,
        level3,
        interference_coefficient,
        guidance,
    };
    (report, runs)
}

/// Properties the method must have, whatever the model's numbers.
fn check_properties(round: &Round, checks: &mut Checks) {
    for report in &round.reports {
        let name = &report.workload;
        for level3 in &report.level3 {
            for curve in [&level3.sensitivity, &level3.compute_phase_sensitivity] {
                let first = curve.first().map_or(f64::NAN, |p| p.relative_performance);
                checks.check((first - 1.0).abs() < 1e-12, || {
                    format!("{name}: relative performance {first} at LoI 0, expected 1")
                });
                let monotone = curve
                    .windows(2)
                    .all(|w| w[1].relative_performance <= w[0].relative_performance + 1e-12);
                checks.check(monotone, || {
                    format!(
                        "{name}: relative performance rises with LoI at local fraction {}",
                        level3.local_capacity_fraction
                    )
                });
            }
        }
        // LOCAL_FRACTIONS is decreasing, so remote access must not decrease.
        let remote: Vec<f64> = report
            .level2
            .iter()
            .map(|l| l.remote_access_ratio)
            .collect();
        checks.check(remote.windows(2).all(|w| w[1] >= w[0] - 1e-12), || {
            format!("{name}: remote access {remote:?} grows as the local fraction grows")
        });
    }
    for (comparison, pooled) in round.comparisons.iter().zip(&round.pooled_half) {
        let idle = pooled.retime(&InterferenceProfile::Idle).total_runtime_s;
        let slowest_below = comparison
            .baseline
            .runtimes_s
            .iter()
            .chain(&comparison.aware.runtimes_s)
            .all(|&t| t >= idle * (1.0 - 1e-12));
        checks.check(slowest_below, || {
            format!(
                "{}: a Monte Carlo runtime is below the idle runtime {idle}",
                comparison.workload
            )
        });
    }
}

/// Replay activity of the 30 distinct simulations of a round, each run
/// directly on a `Machine` so its replay counters can be read; every report
/// must equal `run_workload`'s. Returns (windows, passes, stride elements).
fn replay_probe(
    inputs: &[Box<dyn Workload>],
    base: &MachineConfig,
    checks: &mut Checks,
) -> [u64; 3] {
    let mut counts = [0u64; 3];
    for input in inputs {
        let workload = input.as_ref();
        let mut unbounded = base.clone();
        unbounded.local.capacity_bytes = None;
        unbounded.pool.capacity_bytes = None;
        let mut configs: Vec<(MachineConfig, bool)> =
            vec![(unbounded.clone(), true), (unbounded, false)];
        for &f in &LOCAL_FRACTIONS {
            configs.push((pooled_config(base, workload, f), true));
        }
        for (config, prefetch) in configs {
            let options = RunOptions::new(config.clone()).with_prefetch(prefetch);
            let mut config = config;
            config.prefetch.enabled = prefetch;
            let mut machine = Machine::new(config);
            machine.set_interference(InterferenceProfile::Idle);
            workload.run(&mut machine);
            counts[0] += machine.replay_windows();
            counts[1] += machine.replay_passes();
            counts[2] += machine.replay_stride_elements();
            let direct = machine.finish();
            let reference = run_workload(workload, &options);
            checks.check(json_of(&direct) == json_of(&reference), || {
                format!(
                    "{}: a Machine run differs from run_workload",
                    workload.name()
                )
            });
        }
    }
    counts
}

/// Runs the workload for `seconds` (timed) or once traced, and checks it.
pub fn run(
    profile: Profile,
    seed: u64,
    seconds: f64,
    traced: bool,
    checks: &mut Checks,
) -> Outcome {
    let base = machine(profile);
    let mut out = Outcome::default();
    let (rounds, graph_gen_s) = run_rounds(
        "study",
        seconds,
        traced,
        |traced| make_setup(profile, seed, traced),
        round,
        &mut out,
        checks,
    );
    let first = &rounds[0];

    // Two computation paths, and the demand lines of the requested runs.
    // The checks run on a second, identical set of inputs: the studies own
    // theirs.
    let (inputs, _) = build_inputs(profile, seed);
    let mut lines_per_round = 0u64;
    for input in &inputs {
        let workload = input.as_ref();
        let name = workload.name();
        let (assembled, runs) = assembled_study(workload, &base);
        let report = first.reports.iter().find(|r| r.workload == name);
        checks.check(
            report.is_some_and(|r| json_of(&assembled) == json_of(r)),
            || format!("{name}: full_study differs from the assembled study"),
        );
        let lines: Vec<u64> = runs.iter().map(|r| r.total.demand_lines()).collect();
        checks.check(lines.windows(2).all(|w| w[0] == w[1]), || {
            format!("{name}: demand lines depend on the local fraction")
        });
        lines_per_round += SIMS_PER_WORKLOAD * lines[0];
    }
    check_properties(first, checks);

    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let wall_s = median(&walls);
    if traced {
        let replay = replay_probe(&inputs, &base, checks);
        let layers = take_layers();
        let per_round =
            |layer: &str| layers.get(layer).map_or(0.0, |l| l.total_s) / rounds.len() as f64;
        let sim_runs = layers.get("sim.run").map_or(0, |l| l.calls) / rounds.len() as u64;
        let trials: u64 = first
            .comparisons
            .iter()
            .map(|c| (c.baseline.runtimes_s.len() + c.aware.runtimes_s.len()) as u64)
            .sum();
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
        out.push("profiler.level1_s", per_round("profiler.level1"), "s");
        out.push("profiler.level2_s", per_round("profiler.level2"), "s");
        out.push("profiler.level3_s", per_round("profiler.level3"), "s");
        out.push("lbench.ic_s", per_round("lbench.ic"), "s");
        out.push("sched.trials", trials as f64, "count");
        out.push(
            "sched.trial_us",
            per_round("sched.compare") * 1e6 / trials.max(1) as f64,
            "us",
        );
        out.layers = Some((layers, rounds.len()));
    } else {
        let cpus: Vec<f64> = rounds.iter().map(|r| r.sched.cpu_s).collect();
        let rows: Vec<FidelityRow> = first
            .reports
            .iter()
            .filter_map(|r| {
                let c = first
                    .comparisons
                    .iter()
                    .find(|c| c.workload == r.workload)?;
                let ic = r.interference_coefficient[HALF];
                Some(FidelityRow::new(&r.level1, &r.level3[HALF], ic, c))
            })
            .collect();
        let [fig08, fig10, fig11, fig13] = figure_errors(&rows);
        out.push("wall_s", wall_s, "s");
        out.push("cpu_s", median(&cpus), "s");
        out.push("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
        out.push(
            "mlines_per_s",
            lines_per_round as f64 / wall_s / 1e6,
            "Mlines/s",
        );
        out.push("cells_per_s", first.attempted as f64 / wall_s, "1/s");
        out.push("fig08_err", fig08, "abs");
        out.push("fig10_err", fig10, "abs");
        out.push("fig11_err", fig11, "abs");
        out.push("fig13_err", fig13, "pct-pt");
    }
    out
}
