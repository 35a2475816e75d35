//! Order statistics of small samples.

/// The median of `values` (mean of the two middle values for an even
/// count). `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it, as `(percentile, value)`. With fewer than
/// eleven samples no percentile qualifies.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    if values.len() <= BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let below = sorted.len() - BEYOND;
    Some((100.0 * below as f64 / sorted.len() as f64, sorted[below - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_rounds_takes_the_middle_round() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        // One noisy round out of five does not move the value.
        assert_eq!(median(&[10.0, 11.0, 50.0, 9.0, 10.5]), Some(10.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        let sample = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        assert_eq!(tail(&sample(10)), None);
        // Fifteen samples: nothing above p33 has ten samples beyond it.
        let (percentile, value) = tail(&sample(15)).unwrap();
        assert!((percentile - 100.0 / 3.0).abs() < 1e-9, "{percentile}");
        assert_eq!(value, 5.0);
        let (percentile, value) = tail(&sample(1000)).unwrap();
        assert_eq!((percentile, value), (99.0, 990.0));
        // Order of arrival does not matter.
        let mut shuffled = sample(15);
        shuffled.reverse();
        assert_eq!(tail(&shuffled).unwrap().1, 5.0);
    }
}
