//! 1-D and 2-D convolution / cross-correlation on row-major buffers.
//!
//! The anchor-point preprocessing of the paper (§4.4) sweeps small fixed
//! masks (`Mask_x` is 3×5, `Mask_y` is 5×3) along an axis and takes the sum
//! of the element-wise product with the pixel neighbourhood — i.e. a 2-D
//! cross-correlation evaluated along a line. The Canny baseline needs full
//! 2-D convolutions (Gaussian blur, Sobel). Both are provided here.
//!
//! Throughout, images are row-major `&[f64]` with dimensions `(rows, cols)`
//! and the *kernel anchor* is the kernel centre (kernels must have odd
//! dimensions for `same` mode). Out-of-bounds pixels are handled with
//! *replicate* (clamp-to-edge) padding, matching OpenCV's default
//! `BORDER_REPLICATE` closely enough for the baseline comparison.

use crate::NumericsError;

/// Boundary handling for `same`-size convolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Boundary {
    /// Clamp coordinates to the nearest valid pixel (replicate padding).
    #[default]
    Replicate,
    /// Treat out-of-bounds pixels as zero.
    Zero,
}

/// A small dense 2-D kernel with odd dimensions, row-major storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel2 {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Kernel2 {
    /// Creates a kernel from row-major `data` of shape `(rows, cols)`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidParameter`] if either dimension is
    /// even or zero, or [`NumericsError::LengthMismatch`] if
    /// `data.len() != rows * cols`.
    ///
    /// ```
    /// use qd_numerics::conv::Kernel2;
    /// # fn main() -> Result<(), qd_numerics::NumericsError> {
    /// let sobel_x = Kernel2::new(3, 3, vec![-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0])?;
    /// assert_eq!(sobel_x.at(1, 2), 2.0);
    /// assert_eq!(sobel_x.sum(), 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, NumericsError> {
        if rows == 0 || rows.is_multiple_of(2) {
            return Err(NumericsError::InvalidParameter {
                name: "rows",
                constraint: "must be odd and non-zero",
            });
        }
        if cols == 0 || cols.is_multiple_of(2) {
            return Err(NumericsError::InvalidParameter {
                name: "cols",
                constraint: "must be odd and non-zero",
            });
        }
        if data.len() != rows * cols {
            return Err(NumericsError::LengthMismatch {
                left: data.len(),
                right: rows * cols,
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Kernel dimensions as `(rows, cols)`.
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row-major kernel coefficients.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Kernel value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    pub fn at(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "kernel index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sum of all coefficients (useful to verify normalization).
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }
}

/// Evaluates the cross-correlation of `kernel` with `image` at a single
/// pixel `(r, c)`, with the kernel centred there.
///
/// # Errors
///
/// Returns [`NumericsError::LengthMismatch`] if `image.len() != rows * cols`
/// and [`NumericsError::InvalidParameter`] if `(r, c)` is out of bounds.
fn correlate_at(
    image: &[f64],
    rows: usize,
    cols: usize,
    kernel: &Kernel2,
    r: usize,
    c: usize,
    boundary: Boundary,
) -> Result<f64, NumericsError> {
    if image.len() != rows * cols {
        return Err(NumericsError::LengthMismatch {
            left: image.len(),
            right: rows * cols,
        });
    }
    if r >= rows || c >= cols {
        return Err(NumericsError::InvalidParameter {
            name: "r/c",
            constraint: "pixel must lie inside the image",
        });
    }
    let (krows, kcols) = kernel.shape();
    let hr = (krows / 2) as isize;
    let hc = (kcols / 2) as isize;
    let mut acc = 0.0;
    for kr in 0..krows as isize {
        for kc in 0..kcols as isize {
            let ir = r as isize + kr - hr;
            let ic = c as isize + kc - hc;
            let v = sample(image, rows, cols, ir, ic, boundary);
            acc += v * kernel.at(kr as usize, kc as usize);
        }
    }
    Ok(acc)
}

/// Full `same`-size 2-D cross-correlation of `kernel` over `image`.
///
/// # Errors
///
/// Returns [`NumericsError::LengthMismatch`] if `image.len() != rows * cols`.
pub fn correlate2(
    image: &[f64],
    rows: usize,
    cols: usize,
    kernel: &Kernel2,
    boundary: Boundary,
) -> Result<Vec<f64>, NumericsError> {
    if image.len() != rows * cols {
        return Err(NumericsError::LengthMismatch {
            left: image.len(),
            right: rows * cols,
        });
    }
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            out.push(
                correlate_at(image, rows, cols, kernel, r, c, boundary)
                    .expect("shape and pixel bounds verified above"),
            );
        }
    }
    Ok(out)
}

/// `same`-size 1-D cross-correlation of `kernel` (odd length) over `signal`.
///
/// # Errors
///
/// Returns [`NumericsError::EmptyInput`] if `signal` is empty, or
/// [`NumericsError::InvalidParameter`] if the kernel length is even or zero.
fn correlate1(
    signal: &[f64],
    kernel: &[f64],
    boundary: Boundary,
) -> Result<Vec<f64>, NumericsError> {
    if signal.is_empty() {
        return Err(NumericsError::EmptyInput);
    }
    if kernel.is_empty() || kernel.len().is_multiple_of(2) {
        return Err(NumericsError::InvalidParameter {
            name: "kernel",
            constraint: "length must be odd and non-zero",
        });
    }
    let n = signal.len() as isize;
    let half = (kernel.len() / 2) as isize;
    let mut out = vec![0.0; signal.len()];
    for i in 0..n {
        let mut acc = 0.0;
        for (k, &kv) in kernel.iter().enumerate() {
            let j = i + k as isize - half;
            let v = match boundary {
                Boundary::Replicate => signal[j.clamp(0, n - 1) as usize],
                Boundary::Zero => {
                    if j < 0 || j >= n {
                        0.0
                    } else {
                        signal[j as usize]
                    }
                }
            };
            acc += v * kv;
        }
        out[i as usize] = acc;
    }
    Ok(out)
}

/// Separable `same`-size convolution: applies `row_kernel` along each row
/// then `col_kernel` along each column. Equivalent to convolving with the
/// outer product `col_kernel ⊗ row_kernel` but in `O(n·(kr + kc))`.
///
/// # Errors
///
/// Returns [`NumericsError::LengthMismatch`] if `image.len() != rows * cols`
/// and [`NumericsError::InvalidParameter`] for an even-length or empty
/// kernel.
pub fn separable2(
    image: &[f64],
    rows: usize,
    cols: usize,
    row_kernel: &[f64],
    col_kernel: &[f64],
    boundary: Boundary,
) -> Result<Vec<f64>, NumericsError> {
    if image.len() != rows * cols {
        return Err(NumericsError::LengthMismatch {
            left: image.len(),
            right: rows * cols,
        });
    }
    if rows == 0 || cols == 0 {
        return Ok(Vec::new());
    }
    // Pass 1: filter every row.
    let mut tmp = Vec::with_capacity(rows * cols);
    for row in image.chunks_exact(cols) {
        tmp.extend(correlate1(row, row_kernel, boundary)?);
    }
    // Pass 2: filter every column, as a row pass over the transpose.
    let mut out = Vec::with_capacity(rows * cols);
    for column in transpose(&tmp, rows, cols).chunks_exact(rows) {
        out.extend(correlate1(column, col_kernel, boundary)?);
    }
    Ok(transpose(&out, cols, rows))
}

/// Transposes a row-major `(rows, cols)` buffer into `(cols, rows)`.
fn transpose(data: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    let mut out = vec![0.0; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = data[r * cols + c];
        }
    }
    out
}

fn sample(image: &[f64], rows: usize, cols: usize, r: isize, c: isize, boundary: Boundary) -> f64 {
    match boundary {
        Boundary::Replicate => {
            let rr = r.clamp(0, rows as isize - 1) as usize;
            let cc = c.clamp(0, cols as isize - 1) as usize;
            image[rr * cols + cc]
        }
        Boundary::Zero => {
            if r < 0 || c < 0 || r >= rows as isize || c >= cols as isize {
                0.0
            } else {
                image[r as usize * cols + c as usize]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity3() -> Kernel2 {
        Kernel2::new(3, 3, vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]).unwrap()
    }

    #[test]
    fn kernel_rejects_even_dims() {
        assert!(Kernel2::new(2, 3, vec![0.0; 6]).is_err());
        assert!(Kernel2::new(3, 4, vec![0.0; 12]).is_err());
        assert!(Kernel2::new(0, 1, vec![]).is_err());
    }

    #[test]
    fn kernel_rejects_wrong_len() {
        assert!(matches!(
            Kernel2::new(3, 3, vec![0.0; 8]),
            Err(NumericsError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn identity_kernel_preserves_image() {
        let img: Vec<f64> = (0..12).map(|x| x as f64).collect();
        let out = correlate2(&img, 3, 4, &identity3(), Boundary::Replicate).unwrap();
        assert_eq!(out, img);
    }

    #[test]
    fn correlate_at_matches_full_correlation() {
        let img: Vec<f64> = (0..25).map(|x| (x as f64).sin()).collect();
        let k = Kernel2::new(3, 3, (0..9).map(|x| x as f64 * 0.1).collect()).unwrap();
        let full = correlate2(&img, 5, 5, &k, Boundary::Replicate).unwrap();
        for r in 0..5 {
            for c in 0..5 {
                let single = correlate_at(&img, 5, 5, &k, r, c, Boundary::Replicate).unwrap();
                assert!((single - full[r * 5 + c]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_boundary_differs_at_edges_only() {
        let img = vec![1.0; 9];
        let k = Kernel2::new(3, 3, vec![1.0; 9]).unwrap();
        let rep = correlate2(&img, 3, 3, &k, Boundary::Replicate).unwrap();
        let zero = correlate2(&img, 3, 3, &k, Boundary::Zero).unwrap();
        assert_eq!(rep[4], 9.0);
        assert_eq!(zero[4], 9.0);
        assert_eq!(zero[0], 4.0); // corner: only 2x2 in-bounds
        assert_eq!(rep[0], 9.0);
    }

    #[test]
    fn correlating_an_impulse_flips_the_kernel() {
        let img = vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let k = Kernel2::new(3, 3, (0..9).map(|x| x as f64).collect()).unwrap();
        let corr = correlate2(&img, 3, 3, &k, Boundary::Zero).unwrap();
        assert_eq!(corr[0], 8.0);
        assert_eq!(corr[8], 0.0);
    }

    #[test]
    fn correlate1_same_length() {
        let sig = vec![1.0, 2.0, 3.0, 4.0];
        let out = correlate1(&sig, &[0.5, 0.0, 0.5], Boundary::Replicate).unwrap();
        assert_eq!(out.len(), 4);
        assert!((out[1] - 2.0).abs() < 1e-15); // (1 + 3) / 2
        assert!((out[0] - 1.5).abs() < 1e-15); // (1 + 2) / 2 with replicate
    }

    #[test]
    fn correlate1_rejects_even_kernel() {
        assert!(correlate1(&[1.0], &[1.0, 2.0], Boundary::Zero).is_err());
    }

    #[test]
    fn separable_matches_outer_product_kernel() {
        let rows = 6;
        let cols = 7;
        let img: Vec<f64> = (0..rows * cols).map(|x| ((x * 13) % 17) as f64).collect();
        let rk = [0.25, 0.5, 0.25];
        let ck = [0.1, 0.8, 0.1];
        let sep = separable2(&img, rows, cols, &rk, &ck, Boundary::Replicate).unwrap();
        // Build the equivalent full 3x3 kernel ck ⊗ rk.
        let mut full = Vec::with_capacity(9);
        for &cv in &ck {
            for &rv in &rk {
                full.push(cv * rv);
            }
        }
        let k = Kernel2::new(3, 3, full).unwrap();
        let dense = correlate2(&img, rows, cols, &k, Boundary::Replicate).unwrap();
        for (a, b) in sep.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-9, "separable {a} != dense {b}");
        }
    }

    #[test]
    fn full_image_filters_reject_bad_shapes() {
        let k = identity3();
        assert!(correlate2(&[0.0; 5], 2, 3, &k, Boundary::Zero).is_err());
        assert!(separable2(&[0.0; 5], 2, 3, &[1.0], &[1.0], Boundary::Zero).is_err());
        assert!(separable2(&[0.0; 6], 2, 3, &[1.0, 1.0], &[1.0], Boundary::Zero).is_err());
        assert!(separable2(&[0.0; 6], 2, 3, &[1.0], &[1.0, 1.0], Boundary::Zero).is_err());
    }

    #[test]
    fn kernel_sum_and_accessors() {
        let k = identity3();
        assert_eq!(k.sum(), 1.0);
        assert_eq!(k.at(1, 1), 1.0);
        assert_eq!(k.data().len(), 9);
    }
}
