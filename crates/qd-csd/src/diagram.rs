//! The charge stability diagram: a dense current map over a voltage grid.

use crate::{CsdError, Pixel, VoltageGrid};

/// A charge stability diagram: sensor current (nA) sampled on a
/// [`VoltageGrid`]. Storage is row-major with row 0 at the *bottom*
/// (lowest `V_P2`).
#[derive(Debug, Clone, PartialEq)]
pub struct Csd {
    grid: VoltageGrid,
    data: Vec<f64>,
}

impl Csd {
    /// Wraps existing row-major `data` (length `width × height`).
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::DataLengthMismatch`] if `data.len()` differs
    /// from the grid size.
    pub fn from_data(grid: VoltageGrid, data: Vec<f64>) -> Result<Self, CsdError> {
        if data.len() != grid.len() {
            return Err(CsdError::DataLengthMismatch {
                got: data.len(),
                expected: grid.len(),
            });
        }
        Ok(Self { grid, data })
    }

    /// Builds a diagram by evaluating `f(v1, v2)` at every grid point.
    ///
    /// # Errors
    ///
    /// Currently infallible for a valid grid; kept fallible for uniformity
    /// with [`Csd::from_data`] and future-proofing.
    pub fn from_fn<F>(grid: VoltageGrid, mut f: F) -> Result<Self, CsdError>
    where
        F: FnMut(f64, f64) -> f64,
    {
        let mut data = Vec::with_capacity(grid.len());
        for y in 0..grid.height() {
            for x in 0..grid.width() {
                let (v1, v2) = grid.voltage_of(x, y);
                data.push(f(v1, v2));
            }
        }
        Ok(Self { grid, data })
    }

    /// A constant-valued diagram — handy in tests.
    ///
    /// # Errors
    ///
    /// Never fails for a valid grid; kept fallible for uniformity.
    pub fn constant(grid: VoltageGrid, value: f64) -> Result<Self, CsdError> {
        Csd::from_fn(grid, |_, _| value)
    }

    /// The voltage grid.
    pub fn grid(&self) -> &VoltageGrid {
        &self.grid
    }

    /// `(width, height)` in pixels.
    pub fn size(&self) -> (usize, usize) {
        (self.grid.width(), self.grid.height())
    }

    /// Current at pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is out of bounds; use [`Csd::get`] for a
    /// checked access.
    pub fn at(&self, x: usize, y: usize) -> f64 {
        assert!(
            self.grid.contains(x, y),
            "pixel ({x}, {y}) outside {}x{} diagram",
            self.grid.width(),
            self.grid.height()
        );
        self.data[y * self.grid.width() + x]
    }

    /// Checked current access.
    pub fn get(&self, x: usize, y: usize) -> Option<f64> {
        if self.grid.contains(x, y) {
            Some(self.data[y * self.grid.width() + x])
        } else {
            None
        }
    }

    /// Sets the current at pixel `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::OutOfBounds`] for an invalid pixel.
    pub fn set(&mut self, x: usize, y: usize, value: f64) -> Result<(), CsdError> {
        if !self.grid.contains(x, y) {
            return Err(CsdError::OutOfBounds {
                x,
                y,
                width: self.grid.width(),
                height: self.grid.height(),
            });
        }
        self.data[y * self.grid.width() + x] = value;
        Ok(())
    }

    /// Raw row-major data (row 0 = bottom).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Bilinearly interpolated current at fractional pixel coordinates,
    /// clamping to the grid edge (used by the virtual-space resampler).
    pub fn sample_bilinear(&self, fx: f64, fy: f64) -> f64 {
        let w = self.grid.width();
        let h = self.grid.height();
        let cx = fx.clamp(0.0, (w - 1) as f64);
        let cy = fy.clamp(0.0, (h - 1) as f64);
        let x0 = cx.floor() as usize;
        let y0 = cy.floor() as usize;
        let x1 = (x0 + 1).min(w - 1);
        let y1 = (y0 + 1).min(h - 1);
        let tx = cx - x0 as f64;
        let ty = cy - y0 as f64;
        let v00 = self.at(x0, y0);
        let v10 = self.at(x1, y0);
        let v01 = self.at(x0, y1);
        let v11 = self.at(x1, y1);
        v00 * (1.0 - tx) * (1.0 - ty)
            + v10 * tx * (1.0 - ty)
            + v01 * (1.0 - tx) * ty
            + v11 * tx * ty
    }

    /// Minimum and maximum current in the diagram.
    pub fn min_max(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.data {
            if v.is_nan() {
                continue;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// A copy normalized to `[0, 1]` (constant diagrams map to all-zeros).
    pub fn normalized(&self) -> Csd {
        let (lo, hi) = self.min_max();
        let span = hi - lo;
        let data = if span <= 0.0 {
            vec![0.0; self.data.len()]
        } else {
            self.data.iter().map(|v| (v - lo) / span).collect()
        };
        Csd {
            grid: self.grid,
            data,
        }
    }

    /// Crops to the window starting at `(x, y)` with `width × height`
    /// pixels, preserving voltages.
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::InvalidCrop`] for an invalid window.
    pub fn crop(&self, x: usize, y: usize, width: usize, height: usize) -> Result<Csd, CsdError> {
        let grid = self.grid.crop(x, y, width, height)?;
        let mut data = Vec::with_capacity(width * height);
        for row in y..y + height {
            for col in x..x + width {
                data.push(self.at(col, row));
            }
        }
        Ok(Csd { grid, data })
    }

    /// A copy with the background plane `a + b·x + c·y` subtracted — the
    /// standard preprocessing for CSDs whose sensor has a strong direct
    /// gate coupling (every diagram in the benchmark suite has one).
    ///
    /// The plane slopes are *median* finite differences along each axis,
    /// so sparse features (charge-step edges) do not bias the estimate:
    /// steps survive detrending, the smooth tilt does not. A least-
    /// squares plane would absorb large steps into the slopes instead.
    pub fn detrended(&self) -> Csd {
        let w = self.grid.width();
        let h = self.grid.height();
        // Median per-axis gradients (robust to step edges).
        let mut dx = Vec::with_capacity(h * w.saturating_sub(1));
        for y in 0..h {
            for x in 1..w {
                dx.push(self.data[y * w + x] - self.data[y * w + x - 1]);
            }
        }
        let mut dy = Vec::with_capacity(w * h.saturating_sub(1));
        for y in 1..h {
            for x in 0..w {
                dy.push(self.data[y * w + x] - self.data[(y - 1) * w + x]);
            }
        }
        let b = qd_numerics::stats::median(&dx).unwrap_or(0.0);
        let c = qd_numerics::stats::median(&dy).unwrap_or(0.0);
        // Offset: median residual after removing the tilt.
        let residuals: Vec<f64> = self
            .data
            .iter()
            .enumerate()
            .map(|(i, &v)| v - b * (i % w) as f64 - c * (i / w) as f64)
            .collect();
        let a = qd_numerics::stats::median(&residuals).unwrap_or(0.0);
        let data = residuals.into_iter().map(|r| r - a).collect();
        Csd {
            grid: self.grid,
            data,
        }
    }

    /// Iterator over `(pixel, current)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Pixel, f64)> + '_ {
        let w = self.grid.width();
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| (Pixel::new(i % w, i / w), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(w: usize, h: usize) -> VoltageGrid {
        VoltageGrid::new(0.0, 0.0, 1.0, w, h).unwrap()
    }

    fn ramp() -> Csd {
        // Current increases with x, decreases with y.
        Csd::from_fn(grid(8, 6), |v1, v2| v1 - 2.0 * v2).unwrap()
    }

    #[test]
    fn from_data_validates_length() {
        assert!(Csd::from_data(grid(4, 4), vec![0.0; 15]).is_err());
        assert!(Csd::from_data(grid(4, 4), vec![0.0; 16]).is_ok());
    }

    #[test]
    fn from_fn_evaluates_at_grid_voltages() {
        let c = ramp();
        assert_eq!(c.at(0, 0), 0.0);
        assert_eq!(c.at(3, 0), 3.0);
        assert_eq!(c.at(0, 2), -4.0);
    }

    #[test]
    fn at_and_get_agree() {
        let c = ramp();
        assert_eq!(c.get(3, 2), Some(c.at(3, 2)));
        assert_eq!(c.get(8, 0), None);
        assert_eq!(c.get(0, 6), None);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn at_panics_out_of_bounds() {
        let _ = ramp().at(100, 0);
    }

    #[test]
    fn set_updates_and_validates() {
        let mut c = ramp();
        c.set(1, 1, 42.0).unwrap();
        assert_eq!(c.at(1, 1), 42.0);
        assert!(c.set(100, 0, 0.0).is_err());
    }

    #[test]
    fn min_max_and_normalized() {
        let c = ramp();
        let (lo, hi) = c.min_max();
        assert_eq!(lo, -10.0); // x=0, y=5
        assert_eq!(hi, 7.0); // x=7, y=0
        let n = c.normalized();
        let (nlo, nhi) = n.min_max();
        assert_eq!(nlo, 0.0);
        assert_eq!(nhi, 1.0);
    }

    #[test]
    fn normalized_constant_is_zero() {
        let c = Csd::constant(grid(3, 3), 5.0).unwrap();
        let n = c.normalized();
        assert!(n.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bilinear_matches_grid_at_integers() {
        let c = ramp();
        for y in 0..6 {
            for x in 0..8 {
                assert_eq!(c.sample_bilinear(x as f64, y as f64), c.at(x, y));
            }
        }
    }

    #[test]
    fn bilinear_interpolates_midpoints() {
        let c = ramp();
        let mid = c.sample_bilinear(0.5, 0.0);
        assert!((mid - 0.5).abs() < 1e-12);
        let mid2 = c.sample_bilinear(0.0, 0.5);
        assert!((mid2 + 1.0).abs() < 1e-12);
    }

    #[test]
    fn bilinear_clamps_outside() {
        let c = ramp();
        assert_eq!(c.sample_bilinear(-5.0, 0.0), c.at(0, 0));
        assert_eq!(c.sample_bilinear(100.0, 100.0), c.at(7, 5));
    }

    #[test]
    fn crop_preserves_values_and_voltages() {
        let c = ramp();
        let cc = c.crop(2, 1, 4, 3).unwrap();
        assert_eq!(cc.size(), (4, 3));
        assert_eq!(cc.at(0, 0), c.at(2, 1));
        assert_eq!(cc.at(3, 2), c.at(5, 3));
        assert_eq!(cc.grid().voltage_of(0, 0), c.grid().voltage_of(2, 1));
    }

    #[test]
    fn iter_visits_every_pixel_once() {
        let c = ramp();
        let mut count = 0;
        for (p, v) in c.iter() {
            assert_eq!(v, c.at(p.x, p.y));
            count += 1;
        }
        assert_eq!(count, 48);
    }

    #[test]
    fn detrend_removes_a_pure_plane() {
        let c = Csd::from_fn(grid(12, 10), |v1, v2| 3.0 + 0.2 * v1 - 0.5 * v2).unwrap();
        let d = c.detrended();
        let (lo, hi) = d.min_max();
        assert!(lo.abs() < 1e-9 && hi.abs() < 1e-9, "residual {lo}..{hi}");
    }

    #[test]
    fn detrend_preserves_steps() {
        // Plane + a step: after detrending the step height survives.
        let c = Csd::from_fn(grid(20, 20), |v1, v2| {
            0.1 * (v1 + v2) + if v1 > 10.0 { -2.0 } else { 0.0 }
        })
        .unwrap();
        let d = c.detrended();
        let step = d.at(2, 10) - d.at(17, 10);
        assert!((step - 2.0).abs() < 0.5, "step after detrend {step}");
    }

    #[test]
    fn detrend_of_constant_is_zero() {
        let c = Csd::constant(grid(5, 5), 7.0).unwrap();
        let d = c.detrended();
        assert!(d.data().iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn clone_is_equal() {
        let c = ramp();
        let copied = c.clone();
        assert_eq!(c, copied);
    }
}
