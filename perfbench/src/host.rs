//! Host-side measurements: the monotonic clock and the process counters the
//! kernel exposes under `/proc/self`.
//!
//! Every host-clock read of the benchmark goes through [`Stopwatch`], so the
//! determinism lints see exactly one sanctioned place that observes host
//! time.

/// A started host-time interval.
#[derive(Clone, Copy)]
#[allow(clippy::disallowed_types)] // the benchmark measures host time by design
                                   // dismem-lint: allow(wall-clock) — the benchmark measures host time by design
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts an interval now.
    #[allow(clippy::disallowed_methods, clippy::disallowed_types)]
    pub fn start() -> Stopwatch {
        // dismem-lint: allow(wall-clock) — the benchmark measures host time by design
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Scheduler accounting of the calling thread from `/proc/thread-self/schedstat`:
/// seconds spent on a CPU and seconds spent runnable but waiting in the run
/// queue. The benchmark pins its thread pool to one worker, so the main
/// thread's figures are the process's.
#[derive(Clone, Copy, Default)]
pub struct SchedStat {
    /// Seconds on a CPU.
    pub cpu_s: f64,
    /// Seconds runnable but waiting for a CPU (host contention).
    pub wait_s: f64,
}

impl SchedStat {
    /// Reads the current figures; zeros where the kernel does not provide them.
    pub fn now() -> SchedStat {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let cpu_ns = fields.next().unwrap_or(0);
        let wait_ns = fields.next().unwrap_or(0);
        SchedStat {
            cpu_s: cpu_ns as f64 / 1e9,
            wait_s: wait_ns as f64 / 1e9,
        }
    }

    /// Difference `self - earlier`.
    pub fn since(&self, earlier: &SchedStat) -> SchedStat {
        SchedStat {
            cpu_s: self.cpu_s - earlier.cpu_s,
            wait_s: self.wait_s - earlier.wait_s,
        }
    }
}

/// Peak resident set size of the process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Bytes the process has passed to `write`-family calls so far (`wchar` of
/// `/proc/self/io`), 0 if unknown.
pub fn written_bytes() -> u64 {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    text.lines()
        .find_map(|line| line.strip_prefix("wchar:"))
        .and_then(|rest| rest.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
