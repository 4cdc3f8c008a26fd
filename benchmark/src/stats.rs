//! Medians and quartiles of rep samples.

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(data, n=4)` does (its default "exclusive"
/// method), so numbers here match an outside check of the same samples.
/// A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n == 1 {
        return [d[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        // negative when the clamp raised j: Python extrapolates the same way
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

/// The median of a sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0]), 4.0);
    }
}
