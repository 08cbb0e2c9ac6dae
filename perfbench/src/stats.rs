//! Order statistics and process-level measurements.

/// Nearest-rank percentile `p` (in `(0, 100]`) of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The rate a run sustained: the 10th percentile of its per-slice
/// rates, or 0 without slices. The shared host this benchmark runs on
/// switches between slow and fast periods that last from seconds to
/// minutes, so a run's median rate follows whichever period covered
/// most of it; the rate it kept up in its slowest tenth moves far less
/// from run to run.
pub fn sustained(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        0.0
    } else {
        percentile(rates, 10.0)
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that was never called).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
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
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The machine's (steal, total) CPU time in clock ticks from
/// `/proc/stat`. Steal is time the hypervisor ran something else while
/// this machine wanted the CPU.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Sub-buckets per power of two in [`Latencies`]: each bucket at or
/// above `SUB_BUCKETS` ns is 1/1024 of its octave wide.
const SUB_BUCKETS: u64 = 1024;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Octaves above the exact range: up to 2^41 ns (about 36 minutes).
const OCTAVES: u64 = 31;

/// A latency distribution, kept as a log-linear histogram so that its
/// memory does not grow with the number of samples (a per-sample log
/// made `peak_rss_mib` follow how many calls the host's speed allowed).
/// Samples below 1,024 ns are exact; above, a bucket is at most 0.1%
/// of its value wide, and a percentile is interpolated by rank inside
/// the bucket that holds the nearest-rank sample.
pub struct Latencies {
    counts: Vec<u64>,
    samples: usize,
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies {
            counts: vec![0; (SUB_BUCKETS * (OCTAVES + 1)) as usize],
            samples: 0,
        }
    }
}

impl Latencies {
    /// Records one sample.
    pub fn push_ns(&mut self, ns: u64) {
        let last = self.counts.len() - 1;
        self.counts[bucket(ns).min(last)] += 1;
        self.samples += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.samples
    }

    /// Nearest-rank percentile `p` in microseconds, or 0 without samples.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let r = rank(self.samples, p) as u64;
        let mut below = 0;
        for (i, &n) in self.counts.iter().enumerate() {
            if below + n >= r {
                let (lo, hi) = bucket_range(i);
                let within = (r - below) as f64 - 0.5;
                return (lo as f64 + (hi - lo) as f64 * within / n as f64) / 1000.0;
            }
            below += n;
        }
        unreachable!("rank {r} within {} samples", self.samples)
    }

    /// Median, p95 and the number of samples beyond the p95.
    pub fn summary(&self) -> (f64, f64, usize) {
        (
            self.percentile_us(50.0),
            self.percentile_us(95.0),
            beyond(self.samples, 95.0),
        )
    }
}

/// The histogram bucket of `ns`.
fn bucket(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        return ns as usize;
    }
    let octave = u64::from(63 - ns.leading_zeros() - SUB_BITS);
    let sub = (ns >> octave) - SUB_BUCKETS;
    ((octave + 1) * SUB_BUCKETS + sub) as usize
}

/// The values `[lo, hi)` bucket `i` holds.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return (i, i + 1);
    }
    let octave = i / SUB_BUCKETS - 1;
    let lo = (SUB_BUCKETS + i % SUB_BUCKETS) << octave;
    (lo, lo + (1 << octave))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(beyond(v.len(), 95.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(sustained(&v), 20.0);
        assert_eq!(sustained(&[]), 0.0);
    }

    #[test]
    fn histogram_buckets_hold_their_values() {
        for ns in [0, 1, 1023, 1024, 1025, 2047, 2048, 999_999, 123_456_789] {
            let (lo, hi) = bucket_range(bucket(ns));
            assert!(lo <= ns && ns < hi, "{ns} in [{lo}, {hi})");
            assert!(
                hi - lo <= 1.max(lo / SUB_BUCKETS),
                "bucket of {ns} too wide"
            );
        }
        assert_eq!(bucket(1023) + 1, bucket(1024));
    }

    #[test]
    fn histogram_percentiles_follow_the_samples() {
        let mut lat = Latencies::default();
        assert_eq!(lat.summary(), (0.0, 0.0, 0));
        let samples: Vec<f64> = (1..=2000u64).map(|i| (i * 1_000) as f64).collect();
        for &ns in &samples {
            lat.push_ns(ns as u64);
        }
        assert_eq!(lat.len(), 2000);
        for p in [50.0, 95.0] {
            let exact = percentile(&samples, p) / 1000.0;
            let got = lat.percentile_us(p);
            assert!(
                (got - exact).abs() <= exact / 1000.0,
                "p{p}: {got} vs {exact}"
            );
        }
        assert_eq!(lat.summary().2, 100);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
