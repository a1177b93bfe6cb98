//! Linear least squares and a Theil–Sen robust slope estimator.
//!
//! The extraction pipeline uses [`fit_line`] both as a fallback slope
//! estimator (when the 2-piece-wise fit is ill-posed) and inside ablations;
//! the Hough baseline refines detected lines with [`theil_sen`] which is
//! robust to the stray edge pixels Canny inevitably produces.

use crate::NumericsError;

/// A fitted line `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    /// Slope of the line.
    pub slope: f64,
    /// Intercept at `x = 0`.
    pub intercept: f64,
}

/// Ordinary least-squares straight-line fit.
///
/// # Errors
///
/// * [`NumericsError::LengthMismatch`] if `xs` and `ys` differ in length.
/// * [`NumericsError::EmptyInput`] if fewer than 2 points are supplied.
/// * [`NumericsError::SingularSystem`] if all `xs` are identical (vertical
///   line, slope undefined).
pub fn fit_line(xs: &[f64], ys: &[f64]) -> Result<Line, NumericsError> {
    if xs.len() != ys.len() {
        return Err(NumericsError::LengthMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(NumericsError::EmptyInput);
    }
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 * (1.0 + sxx.abs()) {
        return Err(NumericsError::SingularSystem);
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    Ok(Line { slope, intercept })
}

/// Theil–Sen robust line fit: the slope is the median of all pairwise
/// slopes, the intercept the median of `y_i - slope * x_i`.
///
/// Tolerates up to ~29 % outliers, which is what the Hough baseline needs
/// when refining Canny edge clusters.
///
/// # Errors
///
/// Same conditions as [`fit_line`]; additionally returns
/// [`NumericsError::SingularSystem`] if every pair of points shares an `x`.
pub fn theil_sen(xs: &[f64], ys: &[f64]) -> Result<Line, NumericsError> {
    if xs.len() != ys.len() {
        return Err(NumericsError::LengthMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(NumericsError::EmptyInput);
    }
    let mut slopes = Vec::new();
    for i in 0..xs.len() {
        for j in (i + 1)..xs.len() {
            let dx = xs[j] - xs[i];
            if dx.abs() > 1e-12 {
                slopes.push((ys[j] - ys[i]) / dx);
            }
        }
    }
    if slopes.is_empty() {
        return Err(NumericsError::SingularSystem);
    }
    let slope = crate::stats::median(&slopes)?;
    let residuals: Vec<f64> = xs.iter().zip(ys).map(|(x, y)| y - slope * x).collect();
    let intercept = crate::stats::median(&residuals)?;
    Ok(Line { slope, intercept })
}

/// Solves the dense linear system `A x = b` in place (`b` becomes `x`) with
/// partial pivoting. `a` is row-major `n × n`.
///
/// # Errors
///
/// Returns [`NumericsError::SingularSystem`] on rank deficiency, or
/// [`NumericsError::LengthMismatch`] on inconsistent shapes.
pub fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) -> Result<(), NumericsError> {
    if a.len() != n * n {
        return Err(NumericsError::LengthMismatch {
            left: a.len(),
            right: n * n,
        });
    }
    if b.len() != n {
        return Err(NumericsError::LengthMismatch {
            left: b.len(),
            right: n,
        });
    }
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        for r in (col + 1)..n {
            if a[r * n + col].abs() > a[pivot * n + col].abs() {
                pivot = r;
            }
        }
        if a[pivot * n + col].abs() < 1e-12 {
            return Err(NumericsError::SingularSystem);
        }
        if pivot != col {
            for c in 0..n {
                a.swap(col * n + c, pivot * n + c);
            }
            b.swap(col, pivot);
        }
        let diag = a[col * n + col];
        for r in (col + 1)..n {
            let f = a[r * n + col] / diag;
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r * n + c] -= f * a[col * n + c];
            }
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = b[col];
        for c in (col + 1)..n {
            acc -= a[col * n + c] * b[c];
        }
        b[col] = acc / a[col * n + col];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_line_exact() {
        let xs: Vec<f64> = (0..10).map(|x| x as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -0.5 * x + 3.0).collect();
        let l = fit_line(&xs, &ys).unwrap();
        assert!((l.slope + 0.5).abs() < 1e-12);
        assert!((l.intercept - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fit_line_rejects_vertical() {
        assert_eq!(
            fit_line(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(NumericsError::SingularSystem)
        );
    }

    #[test]
    fn fit_line_rejects_single_point() {
        assert_eq!(fit_line(&[1.0], &[1.0]), Err(NumericsError::EmptyInput));
    }

    #[test]
    fn fit_line_mismatched_lengths() {
        assert!(matches!(
            fit_line(&[1.0, 2.0], &[1.0]),
            Err(NumericsError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn theil_sen_resists_outliers() {
        let xs: Vec<f64> = (0..20).map(|x| x as f64).collect();
        let mut ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        // Corrupt 4 of 20 points grossly.
        ys[3] = 100.0;
        ys[7] = -50.0;
        ys[11] = 90.0;
        ys[15] = -90.0;
        let robust = theil_sen(&xs, &ys).unwrap();
        assert!((robust.slope - 2.0).abs() < 0.1, "slope {}", robust.slope);
        let ols = fit_line(&xs, &ys).unwrap();
        assert!((ols.slope - 2.0).abs() > (robust.slope - 2.0).abs());
    }

    #[test]
    fn theil_sen_all_same_x_is_singular() {
        assert_eq!(
            theil_sen(&[1.0, 1.0], &[0.0, 5.0]),
            Err(NumericsError::SingularSystem)
        );
    }

    #[test]
    fn solve_dense_2x2() {
        // x + y = 3; x - y = 1 → x = 2, y = 1.
        let mut a = vec![1.0, 1.0, 1.0, -1.0];
        let mut b = vec![3.0, 1.0];
        solve_dense(&mut a, &mut b, 2).unwrap();
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_dense_needs_pivoting() {
        // Leading zero forces a row swap.
        let mut a = vec![0.0, 1.0, 1.0, 0.0];
        let mut b = vec![5.0, 7.0];
        solve_dense(&mut a, &mut b, 2).unwrap();
        assert!((b[0] - 7.0).abs() < 1e-12);
        assert!((b[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn solve_dense_singular() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        let mut b = vec![1.0, 2.0];
        assert_eq!(
            solve_dense(&mut a, &mut b, 2),
            Err(NumericsError::SingularSystem)
        );
    }
}
