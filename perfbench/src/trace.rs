//! Spans for the traced run: total and self time per layer, measured around
//! the calls the benchmark makes into each crate's public functions.
//!
//! Where a layer is reachable only through a public trait, a pure delegating
//! wrapper records the span: [`TracedWorkload`] around `Workload::run` (the
//! simulator's line walk) and [`TracedCellRunner`] around `CellRunner::run`
//! (one fleet cell). Spans nest: a layer's self time is its total minus the
//! time of the spans opened inside it.

use crate::host::Stopwatch;
use dismem_core::CellKey;
use dismem_sched::{CellMetrics, CellRunner, SnapshotStats};
use dismem_trace::MemoryEngine;
use dismem_workloads::Workload;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Accumulated figures of one layer.
#[derive(Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Seconds inside the layer's spans.
    pub total_s: f64,
    /// Seconds inside the layer's spans but outside nested spans.
    pub self_s: f64,
}

struct Open {
    layer: &'static str,
    clock: Stopwatch,
    child_s: f64,
}

struct Tracer {
    stack: Vec<Open>,
    layers: BTreeMap<&'static str, LayerTotals>,
}

static TRACER: Mutex<Tracer> = Mutex::new(Tracer {
    stack: Vec::new(),
    layers: BTreeMap::new(),
});

fn tracer() -> std::sync::MutexGuard<'static, Tracer> {
    // A panic while the lock is held leaves at worst one unclosed span.
    TRACER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` inside a span of `layer` and returns its result.
pub fn span<T>(layer: &'static str, f: impl FnOnce() -> T) -> T {
    tracer().stack.push(Open {
        layer,
        clock: Stopwatch::start(),
        child_s: 0.0,
    });
    let out = f();
    let mut t = tracer();
    let open = t.stack.pop().expect("span closed without being opened");
    let total_s = open.clock.secs();
    if let Some(parent) = t.stack.last_mut() {
        parent.child_s += total_s;
    }
    let entry = t.layers.entry(open.layer).or_default();
    entry.calls += 1;
    entry.total_s += total_s;
    entry.self_s += total_s - open.child_s;
    out
}

/// Totals of every layer traced so far, and resets them.
pub fn take_layers() -> BTreeMap<&'static str, LayerTotals> {
    std::mem::take(&mut tracer().layers)
}

/// `Workload` wrapper that records each `run` call as a `sim.run` span and
/// otherwise delegates unchanged.
pub struct TracedWorkload {
    /// The wrapped workload.
    pub inner: Box<dyn Workload>,
}

impl Workload for TracedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn parallelization(&self) -> &'static str {
        self.inner.parallelization()
    }

    fn input_description(&self) -> String {
        self.inner.input_description()
    }

    fn expected_footprint_bytes(&self) -> u64 {
        self.inner.expected_footprint_bytes()
    }

    fn run(&self, engine: &mut dyn MemoryEngine) {
        span("sim.run", || self.inner.run(engine));
    }
}

/// Time and warm-start outcome of one traced fleet cell.
pub struct CellSample {
    /// Seconds inside `CellRunner::run`.
    pub secs: f64,
    /// Whether the cell missed the snapshot cache (simulated its warm-up).
    pub miss: bool,
}

/// `CellRunner` wrapper that records each cell as a `sched.cell` span,
/// classifies it as a snapshot hit or miss from the runner's own counters,
/// and otherwise delegates unchanged.
pub struct TracedCellRunner<'a> {
    /// The wrapped runner.
    pub inner: &'a dyn CellRunner,
    /// One sample per cell run, in run order.
    pub samples: std::cell::RefCell<Vec<CellSample>>,
}

impl CellRunner for TracedCellRunner<'_> {
    fn run(&self, key: &CellKey) -> Result<CellMetrics, String> {
        let before = self.inner.snapshot_stats();
        let clock = Stopwatch::start();
        let out = span("sched.cell", || self.inner.run(key));
        let secs = clock.secs();
        let miss = self.inner.snapshot_stats().misses > before.misses;
        self.samples.borrow_mut().push(CellSample { secs, miss });
        out
    }

    fn snapshot_stats(&self) -> SnapshotStats {
        self.inner.snapshot_stats()
    }
}
