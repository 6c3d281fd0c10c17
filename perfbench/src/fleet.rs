//! `fleet-tiny`: a fleet campaign over `FleetSpec::tiny_grid` with many
//! seeds, warm-started from a `SnapshotCache` in a fresh directory, followed
//! by `resume_campaign` over the finished journal.
//!
//! One round is the fresh campaign plus the resume. Each cell is one
//! operation. Simulation is small here: the time goes to journal appends,
//! snapshot encode and decode, Monte Carlo retimes and the work queue.

use crate::common::{digest_of, Checks, Outcome};
use crate::host::{median, written_bytes, SchedStat, Stopwatch};
use crate::inputs::{derive_seed, Profile};
use crate::trace::{span, take_layers, TracedCellRunner};
use dismem_profiler::{pooled_config, run_workload, RunOptions};
use dismem_sched::{
    resume_campaign, run_campaign, run_fleet_campaign, CampaignConfig, CampaignReport, CellRunner,
    FaultPlan, FleetSpec, SchedulingPolicy, SimCellRunner, SnapshotCache, SnapshotStats,
};
use dismem_sim::{LinkParams, MachineConfig};
use dismem_workloads::{Workload, WorkloadKind};
use std::path::{Path, PathBuf};

/// Seeds per grid point: 36 cells each. Each journal append rewrites the
/// whole journal and the rename over it makes ext4 write the new file out,
/// so every cell waits on the disk: at 20 seeds (720 cells) this put 0.2 to
/// 1.5 s of host-dependent wait into a 2.4 s round, at 6 seeds 0.1 to 0.9 s
/// into a 1.9 s round.
fn seed_count(profile: Profile) -> u64 {
    match profile {
        Profile::Mini => 2,
        Profile::Quick => 2,
    }
}

/// Set-ups timed after the last round of a timed run.
const SETUP_SAMPLES: usize = 256;

/// Cells re-run cold to check the journaled metrics.
const COLD_SAMPLE: usize = 6;

fn spec(profile: Profile, seed: u64, config: &MachineConfig) -> FleetSpec {
    FleetSpec {
        seeds: (0..seed_count(profile))
            .map(|i| derive_seed(seed, 100 + i))
            .collect(),
        ..FleetSpec::tiny_grid(config)
    }
}

/// Warm prefixes of a spec: the cells that must miss the snapshot cache.
fn prefixes(spec: &FleetSpec) -> u64 {
    (spec.workloads.len() * spec.scales.len() * spec.capacities_permille.len() * spec.links.len())
        as u64
}

struct RoundDir {
    dir: PathBuf,
    journal: PathBuf,
    runner: SimCellRunner,
    spec: FleetSpec,
}

/// Set-up of one round: the spec, a fresh cache directory and an empty
/// journal path.
fn make_round_dir(
    work: &Path,
    index: usize,
    profile: Profile,
    seed: u64,
) -> std::io::Result<RoundDir> {
    let config = MachineConfig::scaled_testbed();
    let spec = spec(profile, seed, &config);
    let dir = work.join(format!("round-{index}"));
    let cache = SnapshotCache::new(dir.join("snapshots"))?;
    let runner = SimCellRunner::new(config).with_snapshot_cache(cache);
    Ok(RoundDir {
        journal: dir.join("journal.jsonl"),
        dir,
        runner,
        spec,
    })
}

struct Round {
    report: CampaignReport,
    resumed: CampaignReport,
    replayed: u64,
    reran: u64,
    campaign_s: f64,
    wall_s: f64,
    sched: SchedStat,
    written: u64,
    journal_bytes: u64,
    snapshot_bytes: u64,
}

/// The report with the warm-start block cleared: a resume runs no cells, so
/// only that block may differ from the fresh campaign's.
fn normalized(report: &CampaignReport) -> CampaignReport {
    CampaignReport {
        snapshot: SnapshotStats::default(),
        ..report.clone()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn round(rd: &RoundDir, runner: &dyn CellRunner, traced: bool) -> Result<Round, String> {
    let none = FaultPlan::none();
    let sched = SchedStat::now();
    let written = written_bytes();
    let clock = Stopwatch::start();
    let campaign = || run_fleet_campaign(&rd.spec, runner, &rd.journal, None, &none);
    let report = if traced {
        span("sched.campaign", campaign)
    } else {
        campaign()
    }
    .map_err(|e| format!("fleet campaign failed: {e}"))?;
    let campaign_s = clock.secs();
    let written = written_bytes() - written;
    let resume = || resume_campaign(&rd.spec, runner, &rd.journal, None, &none);
    let (resumed, stats) = if traced {
        span("sched.resume", resume)
    } else {
        resume()
    }
    .map_err(|e| format!("resume failed: {e}"))?;
    let wall_s = clock.secs();
    let sched = SchedStat::now().since(&sched);
    let journal_bytes = std::fs::metadata(&rd.journal).map_or(0, |m| m.len());
    Ok(Round {
        report,
        resumed,
        replayed: stats.replayed,
        reran: stats.reran,
        campaign_s,
        wall_s,
        sched,
        written,
        journal_bytes,
        snapshot_bytes: dir_bytes(&rd.dir.join("snapshots")),
    })
}

fn check_round(r: &Round, spec: &FleetSpec, checks: &mut Checks) {
    let cells = spec.cells().len() as u64;
    let misses = prefixes(spec);
    let done = r.report.completed.len() as u64;
    checks.check(done + r.report.failed_cells.len() as u64 == cells, || {
        format!("{done} of {cells} cells completed")
    });
    let s = r.report.snapshot;
    checks.check(
        s.misses == misses && s.hits == cells - misses && s.fallbacks == 0,
        || format!("snapshot stats {s:?}, expected {misses} misses and the rest hits"),
    );
    checks.check(
        digest_of(&normalized(&r.resumed)) == digest_of(&normalized(&r.report)),
        || "the resumed report differs from the fresh report".to_string(),
    );
    checks.check(r.replayed == cells && r.reran == 0, || {
        format!(
            "resume replayed {} and re-ran {} cells",
            r.replayed, r.reran
        )
    });
}

/// Re-runs a fixed sample of cells cold, without the cache, and compares
/// with the journaled metrics. With `time_trials`, also prices each sampled
/// cell's profiled run directly with `run_campaign` and returns the seconds
/// per Monte Carlo trial.
fn check_cold_sample(r: &Round, spec: &FleetSpec, checks: &mut Checks, time_trials: bool) -> f64 {
    let config = MachineConfig::scaled_testbed();
    let cold = SimCellRunner::new(config.clone());
    let cells = spec.cells();
    let stride = (cells.len() / COLD_SAMPLE).max(1);
    let mut trial_s = Vec::new();
    for key in cells.iter().step_by(stride).take(COLD_SAMPLE) {
        let journaled = r.report.completed.iter().find(|c| &c.key == key);
        let rerun = cold.run(key);
        let same = matches!((journaled, &rerun), (Some(j), Ok(m)) if &j.metrics == m);
        checks.check(same, || {
            format!("cell {} differs when re-run cold", key.id())
        });
        if !time_trials {
            continue;
        }
        // The cell's pricing, recomputed from its parts.
        let kind = WorkloadKind::all()
            .into_iter()
            .find(|k| k.name() == key.workload)
            .expect("tiny grid workloads are registered");
        let workload = kind.instantiate_tiny();
        let base = MachineConfig {
            link: LinkParams::upi(),
            ..config.clone()
        };
        let fraction = f64::from(key.capacity_permille) / 1000.0;
        let report = run_workload(
            workload.as_ref(),
            &RunOptions::new(pooled_config(&base, workload.as_ref(), fraction)),
        );
        let policy = if key.policy == "aware" {
            SchedulingPolicy::InterferenceAware
        } else {
            SchedulingPolicy::RandomBaseline
        };
        let pricing = CampaignConfig {
            runs: cold.runs,
            epochs_per_run: cold.epochs_per_run,
            seed: key.seed,
        };
        let clock = Stopwatch::start();
        let result = run_campaign(&key.workload, &report, policy, &pricing);
        trial_s.push(clock.secs() / result.runtimes_s.len() as f64);
        let same = journaled.is_some_and(|j| {
            j.metrics.mean_runtime_s == result.mean_s
                && j.metrics.median_runtime_s == result.summary.median
                && j.metrics.trials as usize == result.runtimes_s.len()
        });
        checks.check(same, || {
            format!("cell {} differs when priced directly", key.id())
        });
    }
    if trial_s.is_empty() {
        0.0
    } else {
        median(&trial_s)
    }
}

/// Runs the workload for `seconds` (timed) or traced, and checks it.
pub fn run(
    profile: Profile,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    checks: &mut Checks,
) -> Outcome {
    let mut out = Outcome::default();
    let mut rounds = Vec::new();
    let mut cell_samples = Vec::new();
    let mut plain_walls = Vec::new();
    let mut index = 0;
    let clock = Stopwatch::start();
    while rounds.is_empty() || clock.secs() < seconds {
        if traced {
            // An untraced round beside each traced one, for the overhead.
            let plain = make_round_dir(work, index, profile, seed)
                .map_err(|e| format!("cannot set up a round directory: {e}"))
                .and_then(|rd| {
                    let r = round(&rd, &rd.runner, false);
                    let _ = std::fs::remove_dir_all(&rd.dir);
                    r
                });
            index += 1;
            match plain {
                Ok(r) => plain_walls.push(r.wall_s),
                Err(e) => checks.check(false, || e),
            }
        }
        let rd = match make_round_dir(work, index, profile, seed) {
            Ok(rd) => rd,
            Err(e) => {
                checks.check(false, || format!("cannot set up a round directory: {e}"));
                break;
            }
        };
        index += 1;
        let traced_runner = TracedCellRunner {
            inner: &rd.runner,
            samples: Default::default(),
        };
        let runner: &dyn CellRunner = if traced { &traced_runner } else { &rd.runner };
        let r = round(&rd, runner, traced);
        let _ = std::fs::remove_dir_all(&rd.dir);
        match r {
            Ok(r) => {
                check_round(&r, &rd.spec, checks);
                if !traced {
                    eprintln!(
                        "fleet round {}: wall {:.3} s, campaign {:.3} s, cpu {:.3} s, run-queue wait {:.3} s",
                        rounds.len(),
                        r.wall_s,
                        r.campaign_s,
                        r.sched.cpu_s,
                        r.sched.wait_s
                    );
                }
                rounds.push(r);
            }
            Err(e) => {
                checks.check(false, || e);
                break;
            }
        }
        cell_samples.extend(traced_runner.samples.into_inner());
    }
    if rounds.is_empty() {
        return out;
    }
    let config = MachineConfig::scaled_testbed();
    let spec = spec(profile, seed, &config);

    let first = &rounds[0];
    out.digest = digest_of(&normalized(&first.report));
    for r in &rounds[1..] {
        checks.check(digest_of(&normalized(&r.report)) == out.digest, || {
            "campaign reports differ between rounds of one run".to_string()
        });
    }
    out.attempted = rounds.iter().map(|r| r.report.total_cells).sum();
    out.failed = rounds
        .iter()
        .map(|r| r.report.failed_cells.len() as u64)
        .sum();
    let trial_s = check_cold_sample(first, &spec, checks, traced);

    let wall_s = median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let campaign_s = median(&rounds.iter().map(|r| r.campaign_s).collect::<Vec<_>>());
    if traced {
        let layers = take_layers();
        let n = rounds.len() as f64;
        let total = |layer: &str| layers.get(layer).map_or(0.0, |l| l.total_s);
        let mean_ms = |miss: bool| {
            let times: Vec<f64> = cell_samples
                .iter()
                .filter(|c| c.miss == miss)
                .map(|c| c.secs)
                .collect();
            times.iter().sum::<f64>() * 1e3 / times.len().max(1) as f64
        };
        let trials: u64 = first
            .report
            .completed
            .iter()
            .map(|c| u64::from(c.metrics.trials))
            .sum();
        let stored = first.journal_bytes + first.snapshot_bytes;
        if !plain_walls.is_empty() {
            out.push("trace.overhead_s", wall_s - median(&plain_walls), "s");
        }
        out.push("sched.trials", trials as f64, "count");
        out.push("sched.trial_us", trial_s * 1e6, "us");
        out.push("sched.cell_s", total("sched.cell") / n, "s");
        out.push(
            "sched.queue_s",
            (total("sched.campaign") - total("sched.cell")) / n,
            "s",
        );
        out.push("sched.hit_cell_ms", mean_ms(false), "ms");
        out.push("sched.miss_cell_ms", mean_ms(true), "ms");
        out.push("sched.snapshot_mb", first.snapshot_bytes as f64 / 1e6, "MB");
        out.push("sched.journal_mb", first.journal_bytes as f64 / 1e6, "MB");
        out.push(
            "sched.journal_write_amp",
            first.written as f64 / stored.max(1) as f64,
            "ratio",
        );
        out.push("sched.resume_s", total("sched.resume") / n, "s");
        out.layers = Some((layers, rounds.len()));
    } else {
        // A round's set-up takes well under a millisecond and mostly creates
        // directories, so it is sampled many times, away from the rounds'
        // large directory removals.
        let mut setup_times = Vec::new();
        for _ in 0..SETUP_SAMPLES {
            let clock = Stopwatch::start();
            let rd = make_round_dir(work, index, profile, seed);
            setup_times.push(clock.secs());
            index += 1;
            if let Ok(rd) = rd {
                let _ = std::fs::remove_dir_all(&rd.dir);
            }
        }
        let cpus: Vec<f64> = rounds.iter().map(|r| r.sched.cpu_s).collect();
        out.push("setup_s", median(&setup_times), "s");
        out.push("wall_s", wall_s, "s");
        out.push("cpu_s", median(&cpus), "s");
        out.push("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
        out.push("cells_per_s", spec.cells().len() as f64 / campaign_s, "1/s");
        // Every cell requests one profiled simulation of its tiny workload.
        let workloads: Vec<_> = WorkloadKind::all()
            .into_iter()
            .map(WorkloadKind::instantiate_tiny)
            .collect();
        let mut lines_of = std::collections::BTreeMap::new();
        let mut lines = 0u64;
        for key in spec.cells() {
            let w = workloads
                .iter()
                .find(|w| w.name() == key.workload)
                .expect("registered");
            lines += *lines_of
                .entry((key.workload.clone(), key.capacity_permille))
                .or_insert_with(|| {
                    let fraction = f64::from(key.capacity_permille) / 1000.0;
                    let options = RunOptions::new(pooled_config(&config, w.as_ref(), fraction));
                    run_workload(w.as_ref(), &options).total.demand_lines()
                });
        }
        out.push("mlines_per_s", lines as f64 / campaign_s / 1e6, "Mlines/s");
        let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
        let [fig08, fig10, fig11, fig13] = crate::study::fidelity(&refs, &config);
        out.push("fig08_err", fig08, "abs");
        out.push("fig10_err", fig10, "abs");
        out.push("fig11_err", fig11, "abs");
        out.push("fig13_err", fig13, "pct-pt");
    }
    out
}
