//! Order statistics and the seeded arrival process. Everything here is pure
//! so `cargo test --example benchmark` covers it without running a workload.

use std::time::Duration;

/// SplitMix64: the benchmark's only source of randomness, so a `--seed`
/// always gives the same query nodes and arrival times. Its own copy, not
/// `distger::walks::rng`: a later change to the engine's generator must not
/// change the benchmark's inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }
}

/// `count` node ids drawn uniformly from `0..nodes`.
pub fn seeded_nodes(nodes: usize, count: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..count).map(|_| rng.below(nodes as u32)).collect()
}

/// `count` node ids spread evenly over `0..nodes`, the seed choosing where in
/// each stride: every seed's sample covers the whole id range, so samples
/// differ far less than independent draws would.
pub fn strided_nodes(nodes: usize, count: usize, seed: u64) -> Vec<u32> {
    let count = count.min(nodes).max(1);
    let offset = seed % (nodes / count).max(1) as u64;
    (0..count as u64)
        .map(|i| (i * nodes as u64 / count as u64 + offset) as u32)
        .collect()
}

/// Due times of a Poisson arrival process of `rate` requests per second over
/// `window`: exponential gaps, cumulative, strictly inside the window.
pub fn poisson_arrivals(rate: f64, window: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed);
    let mut due = Vec::with_capacity((rate * window.as_secs_f64() * 1.1) as usize);
    let mut t = 0.0;
    loop {
        t += -rng.next_unit().ln() / rate;
        if t >= window.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// exclusive method) — the driver's definition of run-to-run spread.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    })
}

/// The quartile on the good side of `values`: the first where lower is
/// better, the third where higher is. Interference from a neighbour on a
/// shared box only ever makes a repeat worse, so within one run the good
/// quartile of the repeats estimates the undisturbed system, and moves far
/// less between runs than their median does.
pub fn good_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    match values {
        [] => panic!("good quartile of no values"),
        [only] => *only,
        _ => quartiles(values)[if lower_is_better { 0 } else { 2 }],
    }
}

/// Inter-quartile distance as a share of the median; 0 for fewer than two
/// values (a single run has no spread to show).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        ((q3 - q1) / q2).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        assert_eq!(spread(&values), 1.0);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn good_quartile_sits_on_the_better_side() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(good_quartile(&values, true), 2.75);
        assert_eq!(good_quartile(&values, false), 8.25);
        assert_eq!(good_quartile(&[4.0], true), 4.0);
        // One disturbed repeat out of ten does not move it.
        let mut disturbed = vec![2.0; 9];
        disturbed.push(57.0);
        assert_eq!(good_quartile(&disturbed, true), 2.0);
    }

    #[test]
    fn poisson_arrivals_are_seeded_ordered_and_at_the_rate() {
        let window = Duration::from_secs(10);
        let a = poisson_arrivals(4000.0, window, 7);
        assert_eq!(a, poisson_arrivals(4000.0, window, 7));
        assert_ne!(a, poisson_arrivals(4000.0, window, 8));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(*a.last().unwrap() < window);
        // 40 000 expected, standard deviation 200.
        assert!((a.len() as f64 - 40_000.0).abs() < 1_000.0, "{}", a.len());
        // Exponential gaps: the coefficient of variation is 1.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / mean - 1.0).abs() < 0.05);
    }

    #[test]
    fn strided_nodes_cover_the_range_and_shift_with_the_seed() {
        assert_eq!(strided_nodes(100, 4, 0), vec![0, 25, 50, 75]);
        assert_eq!(strided_nodes(100, 4, 26), vec![1, 26, 51, 76]);
        assert_eq!(strided_nodes(3, 10, 5), vec![0, 1, 2]);
        let nodes = strided_nodes(16_000, 4_000, 123);
        assert!(nodes.iter().all(|&n| n < 16_000));
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn seeded_nodes_stay_in_range() {
        let nodes = seeded_nodes(1000, 5000, 3);
        assert_eq!(nodes, seeded_nodes(1000, 5000, 3));
        assert!(nodes.iter().all(|&n| n < 1000));
        assert!(nodes.iter().any(|&n| n > 900) && nodes.iter().any(|&n| n < 100));
    }
}
