//! The virtual-gate transform (§2.3 of the paper).
//!
//! The virtualization matrix
//!
//! ```text
//! | V'_P1 |   | 1    α₁₂ | | V_P1 |
//! | V'_P2 | = | α₂₁   1  | | V_P2 |
//! ```
//!
//! defines virtual gate voltages that control one dot each. Given the two
//! transition-line slopes in the `(V_P1, V_P2)` plane — `slope_v` for the
//! steep (0,0)→(1,0) line and `slope_h` for the shallow (0,0)→(0,1) line —
//! the coefficients are `α₁₂ = −1/slope_v` and `α₂₁ = −slope_h`: with
//! these, the forward map sends the steep line to a vertical line and the
//! shallow line to a horizontal line (paper Fig. 3 right).

use crate::{Csd, CsdError, VoltageGrid};

/// The 2×2 virtualization matrix `[[1, α₁₂], [α₂₁, 1]]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualizationMatrix {
    alpha12: f64,
    alpha21: f64,
}

impl VirtualizationMatrix {
    /// Creates a matrix from its off-diagonal coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::SingularTransform`] if `α₁₂ · α₂₁` is within
    /// `1e-9` of 1 (the matrix would not be invertible), or if either
    /// coefficient is not finite.
    pub fn new(alpha12: f64, alpha21: f64) -> Result<Self, CsdError> {
        if !alpha12.is_finite() || !alpha21.is_finite() {
            return Err(CsdError::SingularTransform);
        }
        if (1.0 - alpha12 * alpha21).abs() < 1e-9 {
            return Err(CsdError::SingularTransform);
        }
        Ok(Self { alpha12, alpha21 })
    }

    /// Identity (no cross-capacitance compensation).
    pub fn identity() -> Self {
        Self {
            alpha12: 0.0,
            alpha21: 0.0,
        }
    }

    /// Builds the matrix from measured transition-line slopes:
    /// `slope_v` of the steep (0,0)→(1,0) line, `slope_h` of the shallow
    /// (0,0)→(0,1) line, both `dV_P2/dV_P1`.
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::SingularTransform`] if `slope_v` is zero (a
    /// horizontal "steep" line is unphysical) or the resulting product
    /// `α₁₂ α₂₁ = 1`.
    pub fn from_slopes(slope_h: f64, slope_v: f64) -> Result<Self, CsdError> {
        if slope_v == 0.0 || !slope_v.is_finite() && !slope_v.is_infinite() {
            return Err(CsdError::SingularTransform);
        }
        // A perfectly vertical steep line needs no V_P2 compensation.
        let alpha12 = if slope_v.is_infinite() {
            0.0
        } else {
            -1.0 / slope_v
        };
        let alpha21 = -slope_h;
        Self::new(alpha12, alpha21)
    }

    /// Coefficient `α₁₂` (weight of `V_P2` in `V'_P1`).
    pub fn alpha12(&self) -> f64 {
        self.alpha12
    }

    /// Coefficient `α₂₁` (weight of `V_P1` in `V'_P2`).
    pub fn alpha21(&self) -> f64 {
        self.alpha21
    }

    /// Determinant `1 − α₁₂ α₂₁`.
    pub fn det(&self) -> f64 {
        1.0 - self.alpha12 * self.alpha21
    }

    /// Maps physical voltages to virtual voltages.
    pub fn to_virtual(&self, v1: f64, v2: f64) -> (f64, f64) {
        (v1 + self.alpha12 * v2, self.alpha21 * v1 + v2)
    }

    /// Maps virtual voltages back to physical voltages.
    pub fn to_physical(&self, u1: f64, u2: f64) -> (f64, f64) {
        let d = self.det();
        ((u1 - self.alpha12 * u2) / d, (-self.alpha21 * u1 + u2) / d)
    }

    /// Slope of the image of a line of slope `m` under the forward map.
    ///
    /// Returns `f64::INFINITY` for a vertical image.
    pub fn map_slope(&self, m: f64) -> f64 {
        // Direction (1, m) maps to (1 + α₁₂ m, α₂₁ + m).
        let dx = 1.0 + self.alpha12 * m;
        let dy = self.alpha21 + m;
        if dx.abs() < 1e-12 {
            if dy >= 0.0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        } else {
            dy / dx
        }
    }

    /// Resamples `csd` into virtual coordinates: output pixel `(x, y)` at
    /// virtual voltages `(u1, u2)` is filled with the bilinear sample of
    /// the physical diagram at `to_physical(u1, u2)` (out-of-range samples
    /// clamp to the edge). The output grid covers the image of the input
    /// voltage window (paper Fig. 3 right).
    ///
    /// # Errors
    ///
    /// Propagates grid-construction failures (degenerate image window).
    pub fn virtualize(&self, csd: &Csd) -> Result<Csd, CsdError> {
        let g = csd.grid();
        let (w, h) = (g.width(), g.height());
        // Image of the four corners determines the virtual window.
        let corners = [
            g.voltage_of(0, 0),
            g.voltage_of(w - 1, 0),
            g.voltage_of(0, h - 1),
            g.voltage_of(w - 1, h - 1),
        ];
        let mut u1_lo = f64::INFINITY;
        let mut u1_hi = f64::NEG_INFINITY;
        let mut u2_lo = f64::INFINITY;
        let mut u2_hi = f64::NEG_INFINITY;
        for &(v1, v2) in &corners {
            let (u1, u2) = self.to_virtual(v1, v2);
            u1_lo = u1_lo.min(u1);
            u1_hi = u1_hi.max(u1);
            u2_lo = u2_lo.min(u2);
            u2_hi = u2_hi.max(u2);
        }
        let du1 = (u1_hi - u1_lo) / (w - 1).max(1) as f64;
        let du2 = (u2_hi - u2_lo) / (h - 1).max(1) as f64;
        let delta = du1.max(du2).max(1e-12);
        let out_grid = VoltageGrid::new(u1_lo, u2_lo, delta, w, h)?;
        let mut out = Csd::constant(out_grid, 0.0)?;
        for y in 0..h {
            for x in 0..w {
                let (u1, u2) = out_grid.voltage_of(x, y);
                let (v1, v2) = self.to_physical(u1, u2);
                let (fx, fy) = g.fractional_pixel_of(v1, v2);
                let val = csd.sample_bilinear(fx, fy);
                out.set(x, y, val)?;
            }
        }
        Ok(out)
    }
}

impl Default for VirtualizationMatrix {
    fn default() -> Self {
        Self::identity()
    }
}

impl std::fmt::Display for VirtualizationMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[[1, {:.4}], [{:.4}, 1]]", self.alpha12, self.alpha21)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_noop() {
        let m = VirtualizationMatrix::identity();
        assert_eq!(m.to_virtual(3.0, 4.0), (3.0, 4.0));
        assert_eq!(m.to_physical(3.0, 4.0), (3.0, 4.0));
        assert_eq!(m.det(), 1.0);
    }

    #[test]
    fn round_trip_physical_virtual() {
        let m = VirtualizationMatrix::new(0.3, 0.25).unwrap();
        let (u1, u2) = m.to_virtual(17.0, -4.0);
        let (v1, v2) = m.to_physical(u1, u2);
        assert!((v1 - 17.0).abs() < 1e-12);
        assert!((v2 + 4.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_singular() {
        assert!(VirtualizationMatrix::new(1.0, 1.0).is_err());
        assert!(VirtualizationMatrix::new(2.0, 0.5).is_err());
        assert!(VirtualizationMatrix::new(f64::NAN, 0.0).is_err());
    }

    #[test]
    fn from_slopes_orthogonalizes_exactly() {
        let slope_v = -3.5;
        let slope_h = -0.22;
        let m = VirtualizationMatrix::from_slopes(slope_h, slope_v).unwrap();
        // The steep line becomes vertical, the shallow line horizontal.
        assert!(m.map_slope(slope_v).is_infinite());
        assert!(m.map_slope(slope_h).abs() < 1e-12);
    }

    #[test]
    fn from_slopes_vertical_steep_line() {
        let m = VirtualizationMatrix::from_slopes(-0.2, f64::NEG_INFINITY).unwrap();
        assert_eq!(m.alpha12(), 0.0);
        assert!((m.alpha21() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn from_slopes_rejects_zero_steep_slope() {
        assert!(VirtualizationMatrix::from_slopes(-0.2, 0.0).is_err());
    }

    #[test]
    fn map_slope_identity() {
        let m = VirtualizationMatrix::identity();
        assert_eq!(m.map_slope(-2.0), -2.0);
    }

    #[test]
    fn display_shows_matrix() {
        let m = VirtualizationMatrix::new(0.3, 0.2).unwrap();
        assert_eq!(m.to_string(), "[[1, 0.3000], [0.2000, 1]]");
    }

    #[test]
    fn virtualize_straightens_a_sloped_step() {
        // Build a CSD with a single steep transition line of slope -4:
        // current steps down across x = x0 - y/4 ... i.e. line
        // v2 = -4 (v1 - 30). After virtualization with matching slopes the
        // step should be (nearly) vertical: each row's step column should
        // agree.
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, 60, 60).unwrap();
        let slope_v = -4.0;
        let csd = Csd::from_fn(grid, |v1, v2| {
            // Steep line through (30, 30): v2 - 30 = slope_v (v1 - 30).
            if v2 - 30.0 > slope_v * (v1 - 30.0) {
                2.0
            } else {
                5.0
            }
        })
        .unwrap();
        let m = VirtualizationMatrix::from_slopes(-0.2, slope_v).unwrap();
        let virt = m.virtualize(&csd).unwrap();

        // Find the step column in several rows of the virtual image.
        let (w, h) = virt.size();
        let step_col = |y: usize| -> Option<usize> {
            (1..w).find(|&x| (virt.at(x, y) - virt.at(x - 1, y)).abs() > 1.0)
        };
        let cols: Vec<usize> = (h / 4..3 * h / 4).filter_map(step_col).collect();
        assert!(!cols.is_empty());
        let lo = *cols.iter().min().unwrap();
        let hi = *cols.iter().max().unwrap();
        assert!(
            hi - lo <= 2,
            "virtualized step should be vertical, spread {lo}..{hi}"
        );
    }

    #[test]
    fn virtualize_preserves_size() {
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, 32, 48).unwrap();
        let csd = Csd::from_fn(grid, |v1, v2| v1 + v2).unwrap();
        let m = VirtualizationMatrix::new(0.2, 0.3).unwrap();
        let virt = m.virtualize(&csd).unwrap();
        assert_eq!(virt.size(), (32, 48));
    }
}
