//! Order statistics behind every reported timing.

/// Sorts a sample in place (timings are finite, so the order is total).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(f64::total_cmp);
}

/// Nearest-rank percentile `p` (0–100) of an ascending sample; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (sorts it).
pub fn median(samples: &mut [f64]) -> f64 {
    sort(samples);
    percentile(samples, 50.0)
}

/// The tail percentile a sample of `n` supports: the highest whole percentile
/// up to `cap` that still has at least ten samples beyond it, and never below
/// the median. A p99 wants 1000 samples; a 40-sample run reports its p75.
pub fn supported_percentile(n: usize, cap: u32) -> u32 {
    (50..=cap)
        .rev()
        .find(|&p| {
            let rank = (f64::from(p) / 100.0 * n as f64).ceil() as usize;
            n >= rank + 10
        })
        .unwrap_or(50)
}

/// The value at [`supported_percentile`] of an ascending sample, with the
/// percentile it was read at.
pub fn tail(sorted: &[f64], cap: u32) -> (f64, u32) {
    let p = supported_percentile(sorted.len(), cap);
    (percentile(sorted, f64::from(p)), p)
}

/// `items` cut into `k` consecutive slices of near-equal length, the empty
/// ones (fewer than `k` items) left out.
pub fn slices<T>(items: &[T], k: usize) -> impl Iterator<Item = &[T]> {
    let n = items.len();
    (0..k)
        .map(move |i| &items[i * n / k..(i + 1) * n / k])
        .filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn slices_are_consecutive_and_cover_everything() {
        let items: Vec<u32> = (0..11).collect();
        let cut: Vec<&[u32]> = slices(&items, 5).collect();
        assert_eq!(cut.len(), 5);
        assert_eq!(cut.concat(), items);
        assert!(cut.iter().all(|s| (2..=3).contains(&s.len())));
        assert_eq!(slices(&items[..3], 5).count(), 3);
        assert_eq!(slices(&items[..0], 5).count(), 0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond.
        assert_eq!(supported_percentile(1000, 99), 99);
        // One short of that falls back a whole percentile.
        assert_eq!(supported_percentile(999, 99), 98);
        // 41 runs of a 200 ms network: rank 31 of 41.
        assert_eq!(supported_percentile(41, 99), 75);
        // Too few samples for any tail: the median.
        assert_eq!(supported_percentile(12, 99), 50);
        assert_eq!(supported_percentile(0, 99), 50);
        // A lower cap is honoured.
        assert_eq!(supported_percentile(100_000, 90), 90);
        for n in [20usize, 41, 100, 250, 999, 1000, 6543] {
            let p = supported_percentile(n, 99);
            let rank = (f64::from(p) / 100.0 * n as f64).ceil() as usize;
            assert!(n - rank >= 10, "n={n} p={p} leaves {} beyond", n - rank);
        }
    }
}
