//! Sample statistics: medians, percentiles and the tail rule.

/// Value at quantile `q` of `sorted` (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a float sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Value at quantile `q` of a float sample (nearest rank).
pub fn quantile_f(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Share of windows, at the fast end, that a speed is read from. On a
/// shared machine the host flips between a fast state and one up to 1.6
/// times slower within seconds, and the share of slow time drifts from run
/// to run. A mean or median over a run's windows follows that share; the
/// fastest tenth of its windows follows the program.
pub const FAST_SHARE: f64 = 0.1;

/// The rate that the fastest [`FAST_SHARE`] of windows reach.
pub fn fast_rate(rates: &[f64]) -> f64 {
    quantile_f(rates, 1.0 - FAST_SHARE)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile, at most p99, that leaves at least ten samples
/// beyond it: `min(0.99, 1 - 10/n)`.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Samples per group for the tail: enough for a p99 with ten beyond it.
const TAIL_GROUP: usize = 1000;

/// Latency samples in nanoseconds, kept in the segments (windows, epochs
/// or probe batches) they were measured in. Each segment's median and each
/// group's tail are taken as soon as they are known, and only the samples
/// of the last closed group and those after it are held: memory does not
/// grow with the number of ops a run makes, so the benchmark's own
/// bookkeeping keeps out of `peak_rss_mib`.
#[derive(Default)]
pub struct Latencies {
    n: usize,
    /// Median of each closed segment.
    medians: Vec<f64>,
    /// Tail of each closed group but the last.
    tails: Vec<f64>,
    /// Samples of the last closed group: a short last group joins it.
    last_group: Vec<u64>,
    /// Samples after the last closed group.
    open: Vec<u64>,
    /// Where the open segment starts in `open`.
    segment_start: usize,
}

pub struct Summary {
    pub n: usize,
    /// Each segment's median, read at the fast end over segments (their
    /// [`FAST_SHARE`] quantile).
    pub p50: f64,
    /// The percentile the tail was taken at (see [`tail_quantile`]).
    pub tail_q: f64,
    /// Median over groups of the tail of each group.
    pub tail: u64,
    pub groups: usize,
}

fn sorted_quantile(samples: &[u64], q: f64) -> u64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    quantile(&s, q)
}

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        self.open.push(ns);
        self.n += 1;
    }

    /// Closes the segment measured so far, and with it a group for the
    /// tail once the group holds at least [`TAIL_GROUP`] samples.
    pub fn end_segment(&mut self) {
        if self.segment_start == self.open.len() {
            return;
        }
        let median = sorted_quantile(&self.open[self.segment_start..], 0.5);
        self.medians.push(median as f64);
        self.segment_start = self.open.len();
        if self.open.len() >= TAIL_GROUP {
            // Every group but the last holds at least TAIL_GROUP samples,
            // so its tail is a p99.
            if !self.last_group.is_empty() {
                let tail = sorted_quantile(&self.last_group, 0.99);
                self.tails.push(tail as f64);
            }
            self.last_group = std::mem::take(&mut self.open);
            self.segment_start = 0;
        }
    }

    /// The median as each segment's median, read at the fast end over
    /// segments (see [`FAST_SHARE`]): the speed of a shared machine drifts
    /// between segments, and a median of the pooled samples, or a mean of
    /// the segments' medians, follows the share of slow time. The
    /// tail as the median over groups of consecutive segments holding at
    /// least [`TAIL_GROUP`] samples each (a short last group joins the one
    /// before): a stall of the machine that hits one group moves the tail
    /// of that group only.
    pub fn summary(&mut self) -> Summary {
        self.end_segment();
        let last = [self.last_group.as_slice(), self.open.as_slice()].concat();
        let q = tail_quantile(last.len());
        let mut tails = self.tails.clone();
        tails.push(sorted_quantile(&last, q) as f64);
        Summary {
            n: self.n,
            p50: quantile_f(&self.medians, FAST_SHARE),
            tail_q: q,
            tail: median(&tails) as u64,
            groups: tails.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(5000), 0.99);
        assert_eq!(tail_quantile(1000), 0.99);
        assert!((tail_quantile(400) - 0.975).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_median_over_groups() {
        let mut l = Latencies::default();
        for seg in 0..4u64 {
            for i in 0..1000u64 {
                // One segment stalls: its tail is 100x the others'.
                l.push(if seg == 2 && i >= 900 { 100_000 } else { i });
            }
            l.end_segment();
        }
        let s = l.summary();
        assert_eq!((s.n, s.groups, s.tail_q), (4000, 4, 0.99));
        assert_eq!(s.tail, 989);
        assert_eq!(s.p50, 499.0);
    }

    #[test]
    fn median_is_read_at_the_fast_end_of_segment_medians() {
        let mut l = Latencies::default();
        // Twenty segments: two in the fast state, eighteen in a slow one.
        for seg in 0..20u64 {
            let v = if seg % 10 == 3 { 10 } else { 13 + seg % 2 };
            (0..50).for_each(|_| l.push(v));
            l.end_segment();
        }
        assert_eq!(l.summary().p50, 10.0);
    }

    #[test]
    fn fast_rate_is_reached_by_the_fastest_tenth() {
        let rates: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(fast_rate(&rates), 90.0);
        assert_eq!(quantile_f(&rates, 0.1), 10.0);
        assert_eq!(fast_rate(&[]), 0.0);
    }

    #[test]
    fn small_samples_form_one_group() {
        let mut l = Latencies::default();
        (1..=400).for_each(|v| l.push(v));
        l.end_segment();
        let s = l.summary();
        assert_eq!(s.groups, 1);
        assert_eq!(s.tail, 390);
    }

    #[test]
    fn a_short_last_group_joins_the_one_before() {
        let mut l = Latencies::default();
        for (len, v) in [(600, 1), (600, 2), (1200, 3), (500, 4)] {
            (0..len).for_each(|_| l.push(v));
            l.end_segment();
        }
        let s = l.summary();
        // Groups: 1200 samples of 1 and 2, then 1700 of 3 and 4.
        assert_eq!((s.n, s.groups, s.tail_q), (2900, 2, 0.99));
        assert_eq!(s.tail, 3);
        assert_eq!(s.p50, 1.0);
    }

    #[test]
    fn quantiles_and_median() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
