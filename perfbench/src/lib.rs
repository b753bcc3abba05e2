//! The repository benchmark: times the trace → access log → replay →
//! metrics pipeline end to end on three workloads, checks its outputs,
//! and, in a separate traced run, attributes time to each layer by
//! spanning the calls this crate makes into the layers' public
//! functions. See `perfbench/README.md` for the workloads and the
//! layer → end-to-end metric map.

pub mod layers;
pub mod tracer;
pub mod workloads;

use starcdn::metrics::SystemMetrics;
use starcdn_bench::Scale;

/// One run's settings: seed, seconds and tracing from the command line,
/// `scale` default except in the benchmark's own tests (smoke), `threads`
/// the hardware thread count.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Minimum measured wall time for the timed iterations, seconds.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Hardware threads: the worker and shard budget of every workload.
    pub threads: usize,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced: its metrics, request accounting, and
/// the output checks that failed (empty = correct).
#[derive(Debug, Default)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Requests in the workload's trace.
    pub attempted: u64,
    /// Requests left without a result by a program error, a timeout or a
    /// degraded batch.
    pub failed: u64,
    pub check_failures: Vec<String>,
    /// Free-form provenance lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The simulated-outcome metrics every successful run reports: request
/// hit rate, uplink bytes over requested bytes, and latency quantiles.
pub fn sim_metrics(out: &mut Outcome, m: &SystemMetrics) {
    let hit_rate =
        if m.stats.requests == 0 { 0.0 } else { m.stats.hits as f64 / m.stats.requests as f64 };
    let cdf = m.latency_cdf();
    out.e2e("hit_rate", hit_rate, "frac");
    out.e2e("uplink_frac", m.uplink_fraction(), "frac");
    out.e2e("sim_latency_p50_ms", cdf.quantile(0.5).unwrap_or(0.0), "sim_ms");
    out.e2e("sim_latency_p999_ms", cdf.quantile(0.999).unwrap_or(0.0), "sim_ms");
}

/// Approximate heap footprint of a metrics value: its growable buffers
/// and maps, by capacity.
pub fn metrics_heap_bytes(m: &SystemMetrics) -> f64 {
    use std::mem::size_of;
    let per_sat = size_of::<(starcdn_orbit::SatelliteId, starcdn_cache::CacheStats)>() + 8;
    (m.latencies_ms.capacity() * size_of::<f64>()
        + m.per_satellite.capacity() * per_sat
        + m.availability.capacity() * size_of::<starcdn::metrics::AvailabilityPoint>()
        + m.utilization.capacity() * size_of::<starcdn_constellation::capacity::UtilizationPoint>()
        + m.residual_epoch_hist.len() * 2 * size_of::<u64>()) as f64
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU time of this process (all threads, live and
/// joined), seconds.
pub fn process_cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 Hz).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn proc_readers_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_secs() > 0.0);
    }
}
