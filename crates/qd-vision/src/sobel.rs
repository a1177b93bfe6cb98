//! Sobel gradient estimation.

use crate::VisionError;
use qd_csd::Csd;
use qd_numerics::conv::{correlate2, Boundary, Kernel2};

/// Dense gradient field of an image: per-pixel x/y derivatives, magnitude
/// and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientField {
    width: usize,
    height: usize,
    gx: Vec<f64>,
    gy: Vec<f64>,
    magnitude: Vec<f64>,
}

impl GradientField {
    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Horizontal derivative at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is out of bounds.
    pub fn gx(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.gx[y * self.width + x]
    }

    /// Vertical derivative at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is out of bounds.
    pub fn gy(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.gy[y * self.width + x]
    }

    /// Gradient magnitude `√(gx² + gy²)` at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is out of bounds.
    pub fn magnitude(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.magnitude[y * self.width + x]
    }

    /// Gradient direction `atan2(gy, gx)` in radians at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is out of bounds.
    pub fn direction(&self, x: usize, y: usize) -> f64 {
        self.gy(x, y).atan2(self.gx(x, y))
    }

    /// Raw magnitude buffer (row-major, row 0 = bottom).
    pub fn magnitudes(&self) -> &[f64] {
        &self.magnitude
    }

    /// Maximum magnitude over the image.
    pub fn max_magnitude(&self) -> f64 {
        self.magnitude.iter().cloned().fold(0.0, f64::max)
    }
}

/// Computes Sobel gradients of `csd`.
///
/// Kernels are the standard 3×3 pair; `gy` is oriented so positive values
/// mean current increasing with `V_P2` (our row 0 is the diagram bottom).
///
/// # Errors
///
/// Returns [`VisionError::ImageTooSmall`] for images smaller than 3×3.
pub fn sobel(csd: &Csd) -> Result<GradientField, VisionError> {
    let (w, h) = csd.size();
    if w < 3 || h < 3 {
        return Err(VisionError::ImageTooSmall {
            min: 3,
            got: w.min(h),
        });
    }
    let kx = Kernel2::new(3, 3, vec![-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0])
        .expect("static kernel is valid");
    let ky = Kernel2::new(3, 3, vec![-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0])
        .expect("static kernel is valid");
    let gx = correlate2(csd.data(), h, w, &kx, Boundary::Replicate).expect("shape verified above");
    let gy = correlate2(csd.data(), h, w, &ky, Boundary::Replicate).expect("shape verified above");
    let magnitude = gx
        .iter()
        .zip(&gy)
        .map(|(a, b)| (a * a + b * b).sqrt())
        .collect();
    Ok(GradientField {
        width: w,
        height: h,
        gx,
        gy,
        magnitude,
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
    fn rejects_tiny_images() {
        let c = Csd::constant(grid(2, 5), 0.0).unwrap();
        assert_eq!(
            sobel(&c),
            Err(VisionError::ImageTooSmall { min: 3, got: 2 })
        );
    }

    #[test]
    fn horizontal_ramp_has_pure_gx() {
        let c = Csd::from_fn(grid(9, 9), |v1, _| v1).unwrap();
        let g = sobel(&c).unwrap();
        // Interior pixels: gx = 8 (Sobel weight sum x 1/pixel step), gy = 0.
        assert!((g.gx(4, 4) - 8.0).abs() < 1e-12);
        assert!(g.gy(4, 4).abs() < 1e-12);
        assert!((g.magnitude(4, 4) - 8.0).abs() < 1e-12);
        assert!(g.direction(4, 4).abs() < 1e-12);
    }

    #[test]
    fn vertical_ramp_has_pure_gy() {
        let c = Csd::from_fn(grid(9, 9), |_, v2| 2.0 * v2).unwrap();
        let g = sobel(&c).unwrap();
        assert!(g.gx(4, 4).abs() < 1e-12);
        assert!((g.gy(4, 4) - 16.0).abs() < 1e-12);
        assert!((g.direction(4, 4) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn step_edge_peaks_at_the_step() {
        let c = Csd::from_fn(grid(11, 11), |v1, _| if v1 < 5.0 { 1.0 } else { 0.0 }).unwrap();
        let g = sobel(&c).unwrap();
        let mid_mag = g.magnitude(5, 5).max(g.magnitude(4, 5));
        assert!(mid_mag > g.magnitude(1, 5));
        assert!(mid_mag > g.magnitude(9, 5));
        assert_eq!(g.max_magnitude(), mid_mag.max(g.max_magnitude()));
    }

    #[test]
    fn constant_image_has_zero_gradient() {
        let c = Csd::constant(grid(7, 7), 4.0).unwrap();
        let g = sobel(&c).unwrap();
        assert_eq!(g.max_magnitude(), 0.0);
        assert_eq!(g.magnitudes().len(), 49);
    }

    #[test]
    fn dimensions_exposed() {
        let c = Csd::constant(grid(6, 8), 0.0).unwrap();
        let g = sobel(&c).unwrap();
        assert_eq!((g.width(), g.height()), (6, 8));
    }
}
