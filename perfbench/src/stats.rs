//! Order statistics for reported figures.

/// A percentile is reported only when at least this many samples lie beyond
/// it: with fewer, the "tail" is a handful of outliers, not a shape.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `xs` (`0 < q < 1`), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie above it.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    (v.len() - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

/// For a closed loop that ran a deck of `deck` runs round and round, so that
/// `xs[i]` is a repeat of deck run `i % deck`: each deck run's fastest
/// repeat, in deck order.
pub fn per_slot_min(xs: &[f64], deck: usize) -> Vec<f64> {
    (0..deck.min(xs.len()))
        .map(|j| {
            xs.iter()
                .skip(j)
                .step_by(deck)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Median of a few repeated measurements (no tail requirement).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs[..99], 0.9), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&xs, 1.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(20.0));
    }

    #[test]
    fn per_slot_min_groups_repeats_by_deck_position() {
        // Deck of 2, repeated 10 times and a half: slot 0 holds 10..=20, slot 1
        // holds 100..=109 (in descending order).
        let xs: Vec<f64> = (0..21)
            .map(|i| {
                if i % 2 == 0 {
                    20.0 - (i / 2) as f64
                } else {
                    109.0 - (i / 2) as f64
                }
            })
            .collect();
        assert_eq!(per_slot_min(&xs, 2), vec![10.0, 100.0]);
        assert_eq!(per_slot_min(&xs[..1], 2), vec![20.0]);
    }

    #[test]
    fn median_of_few() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
