//! Sample statistics and the process's own resource counters.

use std::time::Duration;

/// Latency samples of one op kind.
#[derive(Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn total_s(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Nearest-rank percentile in milliseconds, or `None` when fewer
    /// than ten samples lie beyond it (the median only needs one
    /// sample: it is the value the others are judged against).
    pub fn percentile_ms(&self, q: f64) -> Option<f64> {
        let n = self.ns.len();
        if n == 0 {
            return None;
        }
        let beyond = ((1.0 - q) * n as f64).floor() as usize;
        if q > 0.5 && beyond < 10 {
            return None;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(sorted[rank - 1] as f64 / 1e6)
    }

    pub fn p50_ms(&self) -> f64 {
        self.percentile_ms(0.5).unwrap_or(0.0)
    }

    /// Mean of the last tenth of the samples over the mean of the first
    /// tenth, in arrival order: how much the op slowed during the run.
    pub fn growth(&self) -> f64 {
        let n = self.ns.len();
        let tenth = n / 10;
        if tenth == 0 {
            return 0.0;
        }
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
        mean(&self.ns[n - tenth..]) / mean(&self.ns[..tenth]).max(1.0)
    }
}

/// Median of a few repeated measurements.
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// User and system CPU time of this process so far, in nanoseconds,
/// from `/proc/self/stat`. Fields 14 and 15 are in clock ticks; Linux
/// reports them at 100 Hz on every architecture.
pub fn cpu_ns() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split(' ');
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    const NS_PER_TICK: u64 = 10_000_000;
    Some((utime * NS_PER_TICK, stime * NS_PER_TICK))
}

/// Peak resident set size in MiB (`VmHWM`). One workload runs per
/// process, so the peak belongs to that workload.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: u64) -> Samples {
        let mut s = Samples::default();
        for i in 1..=n {
            s.push(Duration::from_millis(i));
        }
        s
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert_eq!(samples(199).percentile_ms(0.95), None);
        assert_eq!(samples(200).percentile_ms(0.95), Some(190.0));
        assert_eq!(samples(5).p50_ms(), 3.0);
        assert_eq!(Samples::default().p50_ms(), 0.0);
    }

    #[test]
    fn growth_compares_last_and_first_tenth() {
        assert_eq!(samples(5).growth(), 0.0);
        let g = samples(100).growth();
        assert!((g - 95.5 / 5.5).abs() < 1e-9, "{g}");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_counters_are_readable_here() {
        let (u, s) = cpu_ns().expect("/proc/self/stat");
        assert!(u + s < u64::MAX);
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }
}
