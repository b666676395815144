//! Order statistics.

/// Samples a tail percentile must leave beyond itself to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// The value at percentile `p` (0..=100) of `sorted`, nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A tail latency as reported: the percentile actually used, its value
/// and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
}

/// The `want` percentile of `sorted` when at least [`TAIL_SAMPLES`]
/// samples lie beyond it; otherwise the highest percentile that has that
/// many beyond it.
pub fn tail(sorted: &[f64], want: f64) -> Tail {
    let n = sorted.len();
    let rank = ((want / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n >= rank + TAIL_SAMPLES {
        return Tail {
            percentile: want,
            value: sorted[rank - 1],
            beyond: n - rank,
        };
    }
    let rank = n.saturating_sub(TAIL_SAMPLES).max(1);
    Tail {
        percentile: 100.0 * rank as f64 / n.max(1) as f64,
        value: sorted.get(rank - 1).copied().unwrap_or(f64::NAN),
        beyond: n.saturating_sub(rank),
    }
}

/// Open-loop latency summary.
pub struct Latency {
    pub samples: usize,
    pub p50_us: f64,
    pub tail_us: f64,
    pub tail_percentile: f64,
    pub tail_beyond: usize,
}

/// The p50 and tail (p99, or the highest percentile with ten samples
/// beyond it) of all the timed samples pooled together, so a stall that
/// hits only some segments still moves the tail.
pub fn pooled_latency(latencies_us: &[f64]) -> Latency {
    let all = sorted(latencies_us.to_vec());
    let t = tail(&all, 99.0);
    Latency {
        samples: all.len(),
        p50_us: percentile(&all, 50.0),
        tail_us: t.value,
        tail_percentile: t.percentile,
        tail_beyond: t.beyond,
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Which `want` segments to time: those with the least host steal, the
/// earlier one first on a tie.
pub fn calm(steal: &[f64], want: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let mut keep = vec![false; steal.len()];
    for &i in order.iter().take(want) {
        keep[i] = true;
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_kept_when_ten_samples_lie_beyond_it() {
        let sorted: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&sorted, 99.0);
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 1980.0, 20));
    }

    #[test]
    fn the_tail_falls_back_when_fewer_than_ten_lie_beyond_p99() {
        let sorted: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail(&sorted, 99.0);
        assert_eq!(t.beyond, TAIL_SAMPLES);
        assert_eq!(t.value, 490.0);
        assert!((t.percentile - 98.0).abs() < 1e-9);
        // Exactly at the boundary p99 itself qualifies.
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&sorted, 99.0).percentile, 99.0);
    }

    #[test]
    fn a_stall_in_one_segment_moves_the_pooled_tail() {
        let mut latencies = vec![1.0; 3000];
        for l in &mut latencies[..50] {
            *l = 100.0; // one stall, 1.7% of the samples
        }
        let summary = pooled_latency(&latencies);
        assert_eq!(summary.samples, 3000);
        assert_eq!((summary.p50_us, summary.tail_us), (1.0, 100.0));
        assert_eq!(summary.tail_percentile, 99.0);
    }

    #[test]
    fn calm_segments_skip_steal_bursts() {
        let steal = [0.0, 0.05, 0.01, 0.08, 0.0, 0.0];
        assert_eq!(calm(&steal, 4), vec![true, false, true, false, true, true]);
        assert_eq!(calm(&steal, 3), vec![true, false, false, false, true, true]);
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }
}
