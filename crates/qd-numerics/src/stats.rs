//! Basic descriptive statistics and an argmax helper.
//!
//! These are deliberately simple, allocation-light routines used throughout
//! the extraction pipeline: the sweeps take per-row argmaxes, the dataset
//! generator normalizes by percentiles, and the report code summarizes
//! slope-error distributions.

use crate::NumericsError;

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`NumericsError::EmptyInput`] if `data` is empty.
///
/// ```
/// # fn main() -> Result<(), qd_numerics::NumericsError> {
/// assert_eq!(qd_numerics::stats::mean(&[1.0, 2.0, 3.0])?, 2.0);
/// # Ok(())
/// # }
/// ```
pub fn mean(data: &[f64]) -> Result<f64, NumericsError> {
    if data.is_empty() {
        return Err(NumericsError::EmptyInput);
    }
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Median via sorting a copy. NaNs sort last and are therefore effectively
/// ignored for typical inputs without NaN.
///
/// # Errors
///
/// Returns [`NumericsError::EmptyInput`] if `data` is empty.
pub fn median(data: &[f64]) -> Result<f64, NumericsError> {
    percentile(data, 50.0)
}

/// Linear-interpolated percentile, `p` in `[0, 100]`.
///
/// # Errors
///
/// Returns [`NumericsError::EmptyInput`] if `data` is empty, or
/// [`NumericsError::InvalidParameter`] if `p` is outside `[0, 100]`.
pub fn percentile(data: &[f64], p: f64) -> Result<f64, NumericsError> {
    if data.is_empty() {
        return Err(NumericsError::EmptyInput);
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(NumericsError::InvalidParameter {
            name: "p",
            constraint: "must lie in [0, 100]",
        });
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Index of the maximum element. Ties resolve to the first occurrence;
/// NaN entries are skipped.
///
/// Returns `None` if `data` is empty or all-NaN.
///
/// ```
/// assert_eq!(qd_numerics::stats::argmax(&[1.0, 5.0, 3.0]), Some(1));
/// ```
pub fn argmax(data: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in data.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Minimum and maximum of a slice in one pass, skipping NaNs.
///
/// Returns `None` if `data` is empty or all-NaN.
pub fn min_max(data: &[f64]) -> Option<(f64, f64)> {
    let mut out: Option<(f64, f64)> = None;
    for &v in data {
        if v.is_nan() {
            continue;
        }
        out = Some(match out {
            None => (v, v),
            Some((lo, hi)) => (lo.min(v), hi.max(v)),
        });
    }
    out
}

/// Root-mean-square of a slice.
///
/// # Errors
///
/// Returns [`NumericsError::EmptyInput`] if `data` is empty.
pub fn rms(data: &[f64]) -> Result<f64, NumericsError> {
    if data.is_empty() {
        return Err(NumericsError::EmptyInput);
    }
    Ok((data.iter().map(|x| x * x).sum::<f64>() / data.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_constant_is_constant() {
        assert_eq!(mean(&[4.0; 7]).unwrap(), 4.0);
    }

    #[test]
    fn mean_rejects_empty() {
        assert_eq!(mean(&[]), Err(NumericsError::EmptyInput));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
    }

    #[test]
    fn percentile_endpoints() {
        let data = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&data, 0.0).unwrap(), 10.0);
        assert_eq!(percentile(&data, 100.0).unwrap(), 30.0);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [0.0, 10.0];
        assert!((percentile(&data, 25.0).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_rejects_out_of_range() {
        assert!(matches!(
            percentile(&[1.0], 101.0),
            Err(NumericsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(argmax(&[5.0, 5.0, 1.0]), Some(0));
    }

    #[test]
    fn argmax_skips_nan() {
        assert_eq!(argmax(&[f64::NAN, 2.0, 1.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN]), None);
    }

    #[test]
    fn min_max_single_pass() {
        assert_eq!(min_max(&[2.0, -3.0, 7.0]), Some((-3.0, 7.0)));
        assert_eq!(min_max(&[]), None);
    }

    #[test]
    fn rms_of_unit_signs() {
        assert!((rms(&[1.0, -1.0, 1.0, -1.0]).unwrap() - 1.0).abs() < 1e-15);
    }
}
