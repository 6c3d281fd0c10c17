//! What every workload module hands back to `main`: the operation counts,
//! the metrics by name, and the output checks that failed.

use crate::host::{median, SchedStat, Stopwatch};
use crate::trace::LayerTotals;
use dismem_core::fnv1a64;
use std::collections::BTreeMap;

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Result of one benchmark run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed (or traced) rounds.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Digest of the deterministic outputs of one round.
    pub digest: u64,
    /// Traced runs: the layer totals and the number of traced rounds.
    pub layers: Option<(BTreeMap<&'static str, LayerTotals>, usize)>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Output checks of one run. A failed check makes the run exit non-zero.
#[derive(Default)]
pub struct Checks {
    /// Description of every failed check.
    pub failures: Vec<String>,
    /// Number of checks evaluated.
    pub evaluated: u64,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.evaluated += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Digest of a serializable output: FNV-1a over its JSON form.
pub fn digest_of<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    fnv1a64(json_of(value).as_bytes())
}

/// JSON form of a serializable output, used to compare outputs exactly.
pub fn json_of<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("benchmark outputs serialize to JSON")
}

/// Message of a caught panic.
pub fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// What `run_rounds` needs to know of one round.
pub trait Round {
    /// Host seconds the round took.
    fn wall_s(&self) -> f64;
    /// Scheduler figures of the round.
    fn sched(&self) -> SchedStat;
    /// Digest of the round's deterministic outputs.
    fn digest(&self) -> u64;
    /// Operations attempted and failed.
    fn ops(&self) -> (u64, u64);
}

/// Set-ups timed in a timed run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Runs whole rounds of one workload for `seconds` (at least one round).
///
/// A timed run sets up [`SETUPS`] times, reports the median as `setup_s`
/// and times rounds on the last set-up. A traced run sets up once plainly
/// and once with the traced wrappers, alternates untraced and traced
/// rounds, checks that both give the same outputs and reports the
/// difference of their median wall times as `trace.overhead_s`.
///
/// `make_setup(traced)` returns the set-up and its BFS graph generation
/// time; `round(setup, traced)` runs one round. Returns the timed (or
/// traced) rounds and the graph generation time, after checking that every
/// round gave the same outputs and filling in the operation counts.
pub fn run_rounds<S, R: Round>(
    label: &str,
    seconds: f64,
    traced: bool,
    make_setup: impl Fn(bool) -> (S, f64),
    round: impl Fn(&S, bool) -> R,
    out: &mut Outcome,
    checks: &mut Checks,
) -> (Vec<R>, f64) {
    let walls = |rounds: &[R]| median(&rounds.iter().map(Round::wall_s).collect::<Vec<_>>());
    let (rounds, graph_gen_s) = if traced {
        let (plain, _) = make_setup(false);
        let (wrapped, graph_gen_s) = make_setup(true);
        let mut plain_rounds = Vec::new();
        let mut traced_rounds = Vec::new();
        let clock = Stopwatch::start();
        while traced_rounds.is_empty() || clock.secs() < seconds {
            plain_rounds.push(round(&plain, false));
            traced_rounds.push(round(&wrapped, true));
        }
        checks.check(
            traced_rounds[0].digest() == plain_rounds[0].digest(),
            || format!("{label}: traced round outputs differ from the untraced round"),
        );
        out.push(
            "trace.overhead_s",
            walls(&traced_rounds) - walls(&plain_rounds),
            "s",
        );
        (traced_rounds, graph_gen_s)
    } else {
        let mut setup = None;
        let mut setup_times = Vec::new();
        for _ in 0..SETUPS {
            // The previous set-up is dropped before the next is timed.
            drop(setup.take());
            let clock = Stopwatch::start();
            setup = Some(make_setup(false));
            setup_times.push(clock.secs());
        }
        out.push("setup_s", median(&setup_times), "s");
        let (setup, graph_gen_s) = setup.expect("at least one set-up was made");
        let mut rounds = Vec::new();
        let clock = Stopwatch::start();
        while rounds.is_empty() || clock.secs() < seconds {
            let r = round(&setup, false);
            let sched = r.sched();
            eprintln!(
                "{label} round {}: wall {:.3} s, cpu {:.3} s, run-queue wait {:.3} s",
                rounds.len(),
                r.wall_s(),
                sched.cpu_s,
                sched.wait_s
            );
            rounds.push(r);
        }
        (rounds, graph_gen_s)
    };
    out.digest = rounds[0].digest();
    for r in &rounds[1..] {
        checks.check(r.digest() == out.digest, || {
            format!("{label}: outputs differ between rounds of one run")
        });
    }
    out.attempted = rounds.iter().map(|r| r.ops().0).sum();
    out.failed = rounds.iter().map(|r| r.ops().1).sum();
    (rounds, graph_gen_s)
}
