//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// The median; 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The better half of `samples` (rounded up), by ascending `cost`.
///
/// Start-up is a fixed piece of work that host interference only ever
/// slows, so `setup_s` is the median of the faster half of its repeats.
pub fn best_half<T: Clone>(samples: &[T], cost: impl Fn(&T) -> f64) -> Vec<T> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| cost(a).total_cmp(&cost(b)));
    sorted.truncate(samples.len().div_ceil(2));
    sorted
}

/// Indices of the samples the host left alone: those whose `disturbance`
/// (host interference over a limit, so above 1 means disturbed) is at most
/// 1. When that leaves fewer than half, the least disturbed half instead.
///
/// The choice looks only at measures of the host (steal, generator
/// lateness), never at the quantity being reported, so a regression that
/// hits only some samples still shows.
pub fn undisturbed<T>(samples: &[T], disturbance: impl Fn(&T) -> f64) -> Vec<usize> {
    let calm: Vec<usize> = (0..samples.len())
        .filter(|&k| disturbance(&samples[k]) <= 1.0)
        .collect();
    if calm.len() * 2 >= samples.len() {
        return calm;
    }
    let mut ranked: Vec<usize> = (0..samples.len()).collect();
    ranked.sort_by(|&a, &b| disturbance(&samples[a]).total_cmp(&disturbance(&samples[b])));
    ranked.truncate(samples.len().div_ceil(2));
    ranked.sort_unstable();
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn disturbed_samples_are_left_out_down_to_half() {
        assert_eq!(undisturbed(&[0.5, 2.0, 1.0, 0.0], |d| *d), vec![0, 2, 3]);
        assert_eq!(undisturbed(&[3.0, 2.0, 5.0, 0.5], |d| *d), vec![1, 3]);
        assert!(undisturbed::<f64>(&[], |d| *d).is_empty());
    }

    #[test]
    fn the_best_half_rounds_up() {
        assert_eq!(best_half(&[3.0, 1.0, 2.0], |x| *x), vec![1.0, 2.0]);
        assert_eq!(best_half(&[3.0, 1.0], |x| -x), vec![3.0]);
        assert!(best_half::<f64>(&[], |x| *x).is_empty());
    }
}
