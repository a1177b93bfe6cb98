//! Separable Gaussian blur for CSD images.

use crate::VisionError;
use qd_csd::Csd;
use qd_numerics::conv::{separable2, Boundary};
use qd_numerics::gaussian::kernel1;

/// Applies an odd `ksize × ksize` Gaussian blur with standard deviation
/// `sigma` (pixels), replicate boundary — the smoothing stage of the
/// OpenCV-style Canny baseline.
///
/// # Errors
///
/// Returns [`VisionError::InvalidParameter`] for an even/zero kernel size
/// or non-positive sigma.
///
/// ```
/// use qd_csd::{Csd, VoltageGrid};
/// use qd_vision::blur::gaussian_blur;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = VoltageGrid::new(0.0, 0.0, 1.0, 16, 16)?;
/// let noisy = Csd::from_fn(grid, |v1, v2| ((v1 * 7.0 + v2 * 13.0) as i64 % 5) as f64)?;
/// let smooth = gaussian_blur(&noisy, 5, 1.2)?;
/// // Blur preserves the mean but shrinks the extremes.
/// let (lo_n, hi_n) = noisy.min_max();
/// let (lo_s, hi_s) = smooth.min_max();
/// assert!(hi_s - lo_s < hi_n - lo_n);
/// # Ok(())
/// # }
/// ```
pub fn gaussian_blur(csd: &Csd, ksize: usize, sigma: f64) -> Result<Csd, VisionError> {
    let k = kernel1(ksize, sigma).map_err(|_| VisionError::InvalidParameter {
        name: "ksize/sigma",
        constraint: "kernel size must be odd, sigma positive",
    })?;
    let (w, h) = csd.size();
    let blurred = separable2(csd.data(), h, w, &k, &k, Boundary::Replicate)
        .expect("image shape matches grid by construction");
    Csd::from_data(*csd.grid(), blurred).map_err(|_| VisionError::InvalidParameter {
        name: "csd",
        constraint: "internal shape mismatch",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_csd::VoltageGrid;

    fn grid(w: usize, h: usize) -> VoltageGrid {
        VoltageGrid::new(0.0, 0.0, 1.0, w, h).unwrap()
    }

    #[test]
    fn constant_image_unchanged() {
        let c = Csd::constant(grid(10, 10), 3.0).unwrap();
        let b = gaussian_blur(&c, 5, 1.0).unwrap();
        for (_, v) in b.iter() {
            assert!((v - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn blur_reduces_peak_of_impulse() {
        let mut c = Csd::constant(grid(11, 11), 0.0).unwrap();
        c.set(5, 5, 1.0).unwrap();
        let b = gaussian_blur(&c, 5, 1.0).unwrap();
        assert!(b.at(5, 5) < 1.0);
        assert!(b.at(5, 5) > b.at(4, 5) * 0.9);
        // Mass roughly conserved away from edges.
        let total: f64 = b.data().iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn blur_is_symmetric_for_impulse() {
        let mut c = Csd::constant(grid(11, 11), 0.0).unwrap();
        c.set(5, 5, 1.0).unwrap();
        let b = gaussian_blur(&c, 5, 1.3).unwrap();
        assert!((b.at(4, 5) - b.at(6, 5)).abs() < 1e-12);
        assert!((b.at(5, 4) - b.at(5, 6)).abs() < 1e-12);
        assert!((b.at(4, 5) - b.at(5, 4)).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_params() {
        let c = Csd::constant(grid(8, 8), 0.0).unwrap();
        assert!(gaussian_blur(&c, 4, 1.0).is_err());
        assert!(gaussian_blur(&c, 5, 0.0).is_err());
    }

    #[test]
    fn preserves_grid() {
        let c = Csd::constant(grid(8, 6), 0.0).unwrap();
        let b = gaussian_blur(&c, 3, 0.8).unwrap();
        assert_eq!(b.grid(), c.grid());
    }
}
