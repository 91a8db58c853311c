//! Sample summaries, the process high-water mark and the result stamp.

use std::collections::BTreeMap;
use std::time::Duration;

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule;
/// `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of `samples`, or 0 when there are none (a layer the workload
/// never reaches).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// One reported metric: its value, unit, and how many samples stand
/// behind it (1 for a ratio or total over the whole run).
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub note: &'static str,
}

/// Metrics by name, printed in name order.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, Metric>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.put_noted(name, value, unit, samples, "");
    }

    pub fn put_noted(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &'static str,
    ) {
        let metric = Metric {
            value,
            unit,
            samples,
            note,
        };
        self.metrics.insert(name, metric);
    }

    /// Median and p90 of per-operation latencies, under `<stem>_p50_ms`
    /// and `<stem>_p90_ms`.
    pub fn put_latency(&mut self, p50: &'static str, p90: &'static str, samples: &[f64]) {
        let n = samples.len();
        self.put_noted(p50, quantile(samples, 0.5).unwrap_or(0.0), "ms", n, "p50");
        self.put_noted(p90, quantile(samples, 0.9).unwrap_or(0.0), "ms", n, "p90");
    }

    /// Median of per-call samples of one layer (0 when never called).
    pub fn put_median(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.put_noted(name, median_or_zero(samples), unit, samples.len(), "p50");
    }
}

/// The process's resident high-water mark (`VmHWM`) in MiB; `pid`
/// `None` reads this process.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and on what a result was measured.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> serde_json::Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    serde_json::json!({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "available_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu_model": cpu,
        "rustc": command_line(&rustc, &["--version"]),
        "git_rev": command_line("git", &["rev-parse", "HEAD"]),
    })
}

/// First line of a command's standard output, or "unknown" when it
/// cannot run (e.g. no git repository around the checkout).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(5.0));
        assert_eq!(quantile(&s, 0.9), Some(9.0));
        assert_eq!(quantile(&s, 1.0), Some(10.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
