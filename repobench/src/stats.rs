//! Summary statistics and failure accounting shared by the workloads.

/// Percentiles the benchmark may report, lowest first.
const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a percentile needs beyond it before it is worth reporting.
pub const TAIL_SAMPLES: usize = 10;

/// Samples a latency series needs so that `p90` has [`TAIL_SAMPLES`]
/// beyond it.
pub const MIN_LATENCY_SAMPLES: usize = 100;

/// The `p`-th percentile (nearest rank) of `samples`; `NaN` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (the 50th percentile, nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of p50, p90, p99 and p99.9 that still has at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it, or `None` when even the
/// median has fewer.
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_SAMPLES as f64 - 1e-9)
}

/// One line on a latency series: its size and its highest percentile
/// that has ten samples beyond it.
pub fn tail_line(samples: &[f64]) -> String {
    match highest_percentile(samples.len()) {
        Some(p) => format!(
            "{} samples, p{p} = {:.4} ms",
            samples.len(),
            percentile(samples, p)
        ),
        None => format!("{} samples, too few for any percentile", samples.len()),
    }
}

/// The geometric mean of `values`; `NaN` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The percentile at which throughput is read: the fast side of a run.
/// On a shared host, neighbours slow the host down for seconds at a
/// time; the slow operations measure them, the fast ones this program.
pub const FAST: f64 = 90.0;

/// The geometric mean over groups of each group's `p`-th percentile:
/// every design weighs the same however long it runs, and a few slow
/// runs of a design move nothing.
pub fn geomean_of_percentiles(groups: &[Vec<f64>], p: f64) -> f64 {
    let per_group: Vec<f64> = groups.iter().map(|g| percentile(g, p)).collect();
    geomean(&per_group)
}

/// The `p`-th percentile of all groups' samples pooled, each sample
/// first divided by its group's median, scaled back by the geometric
/// mean of the group medians. Groups of very different size (a design
/// that runs 2 ms and one that runs 200 ms) share one scale this way: p50
/// reads a typical sample and p90 how far the slow samples of any group
/// lie above its typical one, not which group is slowest.
pub fn pooled_relative_percentile(groups: &[Vec<f64>], p: f64) -> f64 {
    let medians: Vec<f64> = groups.iter().map(|g| median(g)).collect();
    let pooled: Vec<f64> = groups
        .iter()
        .zip(&medians)
        .flat_map(|(g, &m)| g.iter().map(move |x| x / m))
        .collect();
    geomean(&medians) * percentile(&pooled, p)
}

/// Attempted and failed operations. A failure is an error, a reject, a
/// worker panic, an unexpected outcome, or any mismatch with ground
/// truth; `fail_frac` is their ratio.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation and reports it on stderr when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("repobench: FAILED {}", what());
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted operations (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The process's peak resident set (VmHWM) in MB, or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(MIN_LATENCY_SAMPLES), Some(90.0));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn geomean_of_medians_weighs_designs_not_runs() {
        // One fast design with many runs and an outlier, one slow design
        // with few runs: each contributes its median once.
        let fast = vec![100.0, 100.0, 100.0, 100.0, 1.0];
        let slow = vec![25.0, 25.0, 10_000.0];
        let g = geomean_of_percentiles(&[fast.clone(), slow.clone()], 50.0);
        assert!((g - 50.0).abs() < 1e-9, "{g}");
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        // At the fast percentile each design contributes its top.
        let g = geomean_of_percentiles(&[fast, slow], 100.0);
        assert!((g - 1_000.0).abs() < 1e-9, "{g}");
    }

    #[test]
    fn pooled_relative_percentile_reads_jitter_not_the_slowest_group() {
        // Medians 2 and 20 (geomean sqrt(40)); relative samples 0.5, 1
        // and 1.5 in both groups.
        let groups = [vec![1.0, 2.0, 3.0], vec![30.0, 10.0, 20.0]];
        let scale = 40f64.sqrt();
        let p50 = pooled_relative_percentile(&groups, 50.0);
        assert!((p50 - scale).abs() < 1e-9, "{p50}");
        let top = pooled_relative_percentile(&groups, 100.0);
        assert!((top - 1.5 * scale).abs() < 1e-9, "{top}");
        // A tenfold slower group moves the scale, not the spread.
        let slower = [vec![1.0, 2.0, 3.0], vec![300.0, 100.0, 200.0]];
        let ratio =
            pooled_relative_percentile(&slower, 100.0) / pooled_relative_percentile(&slower, 50.0);
        assert!((ratio - 1.5).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn fail_frac_counts_every_check() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        t.check(true, || unreachable!("passing checks are not described"));
        t.check(false, || "mismatch".into());
        t.check(true, String::new);
        t.check(true, String::new);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.fail_frac(), 0.25);
        let mut total = Tally::default();
        total.merge(t);
        total.merge(Tally {
            attempted: 4,
            failed: 0,
        });
        assert_eq!(total.fail_frac(), 0.125);
    }
}
