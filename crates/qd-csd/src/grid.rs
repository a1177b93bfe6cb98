//! The pixel ↔ voltage coordinate system of a charge stability diagram.

use crate::CsdError;
use serde::{Deserialize, Serialize};

/// An integer pixel coordinate in a CSD: `x` is the column (maps to
/// `V_P1`), `y` is the row (maps to `V_P2`, increasing upward).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct Pixel {
    /// Column index (`V_P1` direction).
    pub x: usize,
    /// Row index (`V_P2` direction, upward).
    pub y: usize,
}

impl Pixel {
    /// Creates a pixel coordinate.
    pub fn new(x: usize, y: usize) -> Self {
        Self { x, y }
    }

    /// Converts to floating-point `(x, y)`.
    pub fn to_f64(self) -> (f64, f64) {
        (self.x as f64, self.y as f64)
    }
}

impl From<(usize, usize)> for Pixel {
    fn from((x, y): (usize, usize)) -> Self {
        Self { x, y }
    }
}

impl std::fmt::Display for Pixel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A uniform voltage grid: pixel `(x, y)` sits at voltages
/// `(x0 + x·δ, y0 + y·δ)` where `δ` is the voltage granularity
/// ("pixel size" in the paper's Alg. 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoltageGrid {
    x0: f64,
    y0: f64,
    delta: f64,
    width: usize,
    height: usize,
}

impl VoltageGrid {
    /// Creates a grid with origin `(x0, y0)`, granularity `delta` and
    /// `width × height` pixels.
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::InvalidGrid`] if either dimension is zero, the
    /// origin is not finite, or `delta` is not strictly positive.
    pub fn new(
        x0: f64,
        y0: f64,
        delta: f64,
        width: usize,
        height: usize,
    ) -> Result<Self, CsdError> {
        if width == 0 || height == 0 {
            return Err(CsdError::InvalidGrid {
                constraint: "dimensions must be non-zero",
            });
        }
        if delta <= 0.0 || !delta.is_finite() {
            return Err(CsdError::InvalidGrid {
                constraint: "delta must be positive and finite",
            });
        }
        if !x0.is_finite() || !y0.is_finite() {
            return Err(CsdError::InvalidGrid {
                constraint: "origin must be finite",
            });
        }
        Ok(Self {
            x0,
            y0,
            delta,
            width,
            height,
        })
    }

    /// Grid width in pixels (number of `V_P1` steps).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in pixels (number of `V_P2` steps).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Voltage granularity `δ` (the paper's pixel size).
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Origin voltages `(x0, y0)` of pixel `(0, 0)`.
    pub fn origin(&self) -> (f64, f64) {
        (self.x0, self.y0)
    }

    /// Total number of pixels.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Whether the grid is empty (never true for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Voltages `(V_P1, V_P2)` of the pixel `(x, y)`.
    ///
    /// Accepts out-of-range pixels deliberately: sweep code regularly
    /// evaluates voltages one pixel beyond the grid edge (the paper's
    /// `GetGradient` probes right/upper-right neighbours).
    pub fn voltage_of(&self, x: usize, y: usize) -> (f64, f64) {
        (
            self.x0 + x as f64 * self.delta,
            self.y0 + y as f64 * self.delta,
        )
    }

    /// The nearest pixel to voltages `(v1, v2)`, or `None` if the point is
    /// outside the grid by more than half a pixel.
    pub fn pixel_of(&self, v1: f64, v2: f64) -> Option<Pixel> {
        let fx = (v1 - self.x0) / self.delta;
        let fy = (v2 - self.y0) / self.delta;
        let x = fx.round();
        let y = fy.round();
        if x < 0.0 || y < 0.0 || x >= self.width as f64 || y >= self.height as f64 {
            return None;
        }
        Some(Pixel::new(x as usize, y as usize))
    }

    /// Fractional pixel coordinates of voltages `(v1, v2)` (no bounds
    /// check) — used by the affine resampler.
    pub fn fractional_pixel_of(&self, v1: f64, v2: f64) -> (f64, f64) {
        ((v1 - self.x0) / self.delta, (v2 - self.y0) / self.delta)
    }

    /// Whether pixel `(x, y)` lies inside the grid.
    pub fn contains(&self, x: usize, y: usize) -> bool {
        x < self.width && y < self.height
    }

    /// The sub-grid for a crop window starting at pixel `(x, y)` with the
    /// given size; voltages are preserved.
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::InvalidCrop`] if the window is empty or exceeds
    /// the grid.
    pub fn crop(&self, x: usize, y: usize, width: usize, height: usize) -> Result<Self, CsdError> {
        if width == 0 || height == 0 || x + width > self.width || y + height > self.height {
            return Err(CsdError::InvalidCrop);
        }
        let (vx, vy) = self.voltage_of(x, y);
        Self::new(vx, vy, self.delta, width, height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> VoltageGrid {
        VoltageGrid::new(10.0, 20.0, 0.5, 100, 80).unwrap()
    }

    #[test]
    fn pixel_basics() {
        let p = Pixel::new(3, 4);
        assert_eq!(p.to_string(), "(3, 4)");
        assert_eq!(p.to_f64(), (3.0, 4.0));
        let q: Pixel = (3, 4).into();
        assert_eq!(p, q);
    }

    #[test]
    fn constructor_validates() {
        assert!(VoltageGrid::new(0.0, 0.0, 1.0, 0, 5).is_err());
        assert!(VoltageGrid::new(0.0, 0.0, 1.0, 5, 0).is_err());
        assert!(VoltageGrid::new(0.0, 0.0, 0.0, 5, 5).is_err());
        assert!(VoltageGrid::new(0.0, 0.0, -1.0, 5, 5).is_err());
        assert!(VoltageGrid::new(f64::NAN, 0.0, 1.0, 5, 5).is_err());
    }

    #[test]
    fn voltage_round_trip() {
        let g = grid();
        for &(x, y) in &[(0usize, 0usize), (99, 79), (42, 17)] {
            let (v1, v2) = g.voltage_of(x, y);
            let p = g.pixel_of(v1, v2).unwrap();
            assert_eq!(p, Pixel::new(x, y));
        }
    }

    #[test]
    fn voltage_of_is_affine() {
        let g = grid();
        assert_eq!(g.voltage_of(0, 0), (10.0, 20.0));
        assert_eq!(g.voltage_of(2, 4), (11.0, 22.0));
    }

    #[test]
    fn out_of_grid_voltages_map_to_none() {
        let g = grid();
        assert!(g.pixel_of(9.0, 20.0).is_none());
        assert!(g.pixel_of(10.0, 19.0).is_none());
        assert!(g.pixel_of(1000.0, 20.0).is_none());
    }

    #[test]
    fn nearest_pixel_rounds() {
        let g = grid();
        // 10.2 V is 0.4 pixels from origin → rounds to pixel 0.
        assert_eq!(g.pixel_of(10.2, 20.0).unwrap(), Pixel::new(0, 0));
        // 10.3 V is 0.6 pixels → rounds to pixel 1.
        assert_eq!(g.pixel_of(10.3, 20.0).unwrap(), Pixel::new(1, 0));
    }

    #[test]
    fn fractional_pixels() {
        let g = grid();
        let (fx, fy) = g.fractional_pixel_of(10.25, 20.75);
        assert!((fx - 0.5).abs() < 1e-12);
        assert!((fy - 1.5).abs() < 1e-12);
    }

    #[test]
    fn contains_and_len() {
        let g = grid();
        assert!(g.contains(99, 79));
        assert!(!g.contains(100, 0));
        assert_eq!(g.len(), 8000);
        assert!(!g.is_empty());
    }

    #[test]
    fn crop_preserves_voltages() {
        let g = grid();
        let c = g.crop(10, 20, 30, 40).unwrap();
        assert_eq!(c.width(), 30);
        assert_eq!(c.height(), 40);
        assert_eq!(c.voltage_of(0, 0), g.voltage_of(10, 20));
        assert_eq!(c.voltage_of(29, 39), g.voltage_of(39, 59));
    }

    #[test]
    fn crop_validates_window() {
        let g = grid();
        assert!(g.crop(0, 0, 0, 10).is_err());
        assert!(g.crop(90, 0, 20, 10).is_err());
        assert!(g.crop(0, 70, 10, 20).is_err());
    }

    #[test]
    fn voltage_of_allows_one_past_edge() {
        // Sweep code probes v2 + delta at the top row; that must not panic
        // and must extrapolate linearly.
        let g = grid();
        let (v1, v2) = g.voltage_of(100, 80);
        assert_eq!(v1, 60.0);
        assert_eq!(v2, 60.0);
    }
}
