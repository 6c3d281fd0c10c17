//! End-to-end benchmark of the dismem reproduction: the paper study, the
//! tiering sweep and the fleet campaign, timed end to end and, in a separate
//! traced run, layer by layer.
//!
//! ```text
//! dismem-perfbench --workload <study-mini|tiering-mini|fleet-tiny> --seed <n>
//!                  --seconds <s> --trace <0|1> [--quick] [--out-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed output check
//! makes the process exit with code 1. See `README.md` next to this crate.

#![forbid(unsafe_code)]

mod common;
mod fleet;
mod host;
mod inputs;
mod study;
mod tiering;
mod trace;

use common::{Checks, Outcome};
use inputs::Profile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics, reported by every timed run (`--trace 0`).
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mlines_per_s", "Mlines/s"),
    ("cells_per_s", "1/s"),
    ("fig08_err", "abs"),
    ("fig10_err", "abs"),
    ("fig11_err", "abs"),
    ("fig13_err", "pct-pt"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`). A layer a
/// workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 24] = [
    ("workloads.graph_gen_s", "s"),
    ("sim.runs", "count"),
    ("sim.run_s", "s"),
    ("sim.ns_per_line", "ns"),
    ("sim.replay_windows", "count"),
    ("sim.replay_passes", "count"),
    ("sim.replay_stride_elements", "count"),
    ("sim.epochs", "count"),
    ("sim.migrated_pages", "count"),
    ("profiler.level1_s", "s"),
    ("profiler.level2_s", "s"),
    ("profiler.level3_s", "s"),
    ("lbench.ic_s", "s"),
    ("sched.trials", "count"),
    ("sched.trial_us", "us"),
    ("sched.cell_s", "s"),
    ("sched.queue_s", "s"),
    ("sched.hit_cell_ms", "ms"),
    ("sched.miss_cell_ms", "ms"),
    ("sched.snapshot_mb", "MB"),
    ("sched.journal_mb", "MB"),
    ("sched.journal_write_amp", "ratio"),
    ("sched.resume_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Workload names, as listed in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["study-mini", "tiering-mini", "fleet-tiny"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    profile: Profile,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        profile: Profile::Mini,
        out_dir: std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
            .join("perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--quick" => args.profile = Profile::Quick,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got `{}`",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Writes the traced run's layer totals (total and self seconds per round,
/// spans per round) to `<out-dir>/layers-<workload>-seed<n>.json`.
fn write_layers(
    dir: &Path,
    workload: &str,
    seed: u64,
    layers: &BTreeMap<&'static str, trace::LayerTotals>,
    rounds: usize,
) {
    let n = rounds.max(1) as f64;
    let body: Vec<String> = layers
        .iter()
        .map(|(name, l)| {
            format!(
                "\"{name}\": {{\"spans_per_round\": {}, \"total_s_per_round\": {}, \"self_s_per_round\": {}}}",
                l.calls as f64 / n,
                l.total_s / n,
                l.self_s / n
            )
        })
        .collect();
    let json = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"rounds\": {rounds}, \"layers\": {{{}}}}}\n",
        body.join(", ")
    );
    eprintln!("layers: {json}");
    let path = dir.join(format!("layers-{workload}-seed{seed}.json"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dismem-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args
        .out_dir
        .join(format!("work-{}-{}", args.workload, std::process::id()));
    let mut checks = Checks::default();
    let outcome: Outcome = match args.workload.as_str() {
        "study-mini" => study::run(
            args.profile,
            args.seed,
            args.seconds,
            args.trace,
            &mut checks,
        ),
        "tiering-mini" => tiering::run(
            args.profile,
            args.seed,
            args.seconds,
            args.trace,
            &mut checks,
        ),
        _ => fleet::run(
            args.profile,
            args.seed,
            args.seconds,
            args.trace,
            &work,
            &mut checks,
        ),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Some((layers, rounds)) = &outcome.layers {
        write_layers(&args.out_dir, &args.workload, args.seed, layers, *rounds);
    }

    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in expected {
        let found = outcome.metrics.iter().find(|m| m.name == name);
        let value = match found {
            Some(m) => {
                checks.check(m.unit == unit, || format!("{name} reported in {}", m.unit));
                m.value
            }
            None if args.trace => 0.0,
            None => {
                checks.check(false, || {
                    format!("end-to-end metric {name} was not measured")
                });
                continue;
            }
        };
        checks.check(value.is_finite(), || format!("{name} is {value}"));
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for m in &outcome.metrics {
        checks.check(expected.iter().any(|&(name, _)| name == m.name), || {
            format!("metric {} is not listed", m.name)
        });
    }
    checks.check(outcome.attempted > 0, || {
        "no operation was attempted".to_string()
    });
    for failure in &checks.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    eprintln!(
        "{} checks evaluated, {} failed; output digest {:016x}",
        checks.evaluated,
        checks.failures.len(),
        outcome.digest
    );
    let correct = checks.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
