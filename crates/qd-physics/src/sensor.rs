//! Charge-sensor response model.
//!
//! The devices in the paper read out charge via a proximal sensor dot whose
//! conductance sits on the flank of a Coulomb peak: small changes in the
//! local electrostatic potential shift the peak and change the measured
//! current. Two contributions matter for CSD structure:
//!
//! 1. **Electron jumps** — every electron added to dot `i` screens the
//!    sensor by a shift `κ_i`, producing the sharp current *steps* that are
//!    the transition lines. Dots closer to the sensor have larger `κ`.
//! 2. **Direct gate crosstalk** — the plunger gates couple capacitively to
//!    the sensor itself, tilting the whole diagram with a smooth background
//!    slope `χ_g` per gate. Real CSDs always show this gradient; the
//!    extraction algorithms must not mistake it for a transition.
//!
//! The sensor current is `I = I₀ + flank(χ·V − κ·⟨N⟩)` where `flank` is
//! a (locally linear) Coulomb-peak flank. We model the flank with a `tanh`
//! saturation so extreme voltages do not produce unphysical currents.

use crate::PhysicsError;

/// Sensor response model mapping (gate voltages, mean occupations) to a
/// charge-sensor current in nanoamperes.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorModel {
    /// Baseline current at zero potential (nA).
    base_current: f64,
    /// Peak-to-peak current swing of the Coulomb flank (nA).
    swing: f64,
    /// Potential scale over which the flank saturates (reduced units).
    flank_scale: f64,
    /// Per-dot sensor shifts `κ_i` (reduced potential per electron).
    electron_shifts: Vec<f64>,
    /// Per-gate direct crosstalk `χ_g` (reduced potential per volt).
    gate_crosstalk: Vec<f64>,
}

impl SensorModel {
    /// Creates a sensor model.
    ///
    /// * `base_current` — current offset in nA.
    /// * `swing` — full flank swing in nA (must be positive).
    /// * `flank_scale` — potential range of the quasi-linear flank (must be
    ///   positive).
    /// * `electron_shifts` — `κ_i`, one per dot, each positive: adding an
    ///   electron *reduces* the measured current, as in the paper's CSDs
    ///   where the low-occupation region is brightest.
    /// * `gate_crosstalk` — `χ_g`, one per gate (may be any sign, usually a
    ///   small positive drift).
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::InvalidParameter`] for non-positive `swing`
    /// or `flank_scale`, empty `electron_shifts`, or non-positive shifts;
    /// [`PhysicsError::BadDimensions`] for an empty crosstalk vector.
    pub fn new(
        base_current: f64,
        swing: f64,
        flank_scale: f64,
        electron_shifts: Vec<f64>,
        gate_crosstalk: Vec<f64>,
    ) -> Result<Self, PhysicsError> {
        if swing <= 0.0 || !swing.is_finite() {
            return Err(PhysicsError::InvalidParameter {
                name: "swing",
                constraint: "must be positive and finite",
            });
        }
        if flank_scale <= 0.0 || !flank_scale.is_finite() {
            return Err(PhysicsError::InvalidParameter {
                name: "flank_scale",
                constraint: "must be positive and finite",
            });
        }
        if electron_shifts.is_empty() {
            return Err(PhysicsError::BadDimensions {
                what: "electron shifts",
            });
        }
        if electron_shifts.iter().any(|&k| k <= 0.0 || !k.is_finite()) {
            return Err(PhysicsError::InvalidParameter {
                name: "electron_shifts",
                constraint: "every per-dot shift must be positive and finite",
            });
        }
        if gate_crosstalk.is_empty() {
            return Err(PhysicsError::BadDimensions {
                what: "gate crosstalk",
            });
        }
        Ok(Self {
            base_current,
            swing,
            flank_scale,
            electron_shifts,
            gate_crosstalk,
        })
    }

    /// A reasonable default for an `n_dots`-dot, `n_gates`-gate device:
    /// κ decays with dot index (dot 0 assumed closest to the sensor) and a
    /// gentle uniform *negative* gate crosstalk, so the low-voltage
    /// (0,0) corner is the brightest region of a CSD — the geometry the
    /// paper's anchor preprocessing assumes.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::BadDimensions`] if either count is zero.
    pub fn with_defaults(n_dots: usize, n_gates: usize) -> Result<Self, PhysicsError> {
        if n_dots == 0 {
            return Err(PhysicsError::BadDimensions { what: "dots" });
        }
        if n_gates == 0 {
            return Err(PhysicsError::BadDimensions { what: "gates" });
        }
        let shifts = (0..n_dots).map(|i| 1.0 / (1.0 + 0.35 * i as f64)).collect();
        let crosstalk = vec![-0.0012; n_gates];
        Self::new(5.0, 4.0, 3.0, shifts, crosstalk)
    }

    /// Number of dots this sensor model expects.
    pub fn n_dots(&self) -> usize {
        self.electron_shifts.len()
    }

    /// Number of gates this sensor model expects.
    pub fn n_gates(&self) -> usize {
        self.gate_crosstalk.len()
    }

    /// Noise-free sensor current (nA) for mean occupations `occupations`
    /// at gate voltages `voltages`.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::BadDimensions`] /
    /// [`PhysicsError::GateCountMismatch`] on shape mismatches.
    pub fn current(&self, occupations: &[f64], voltages: &[f64]) -> Result<f64, PhysicsError> {
        if occupations.len() != self.electron_shifts.len() {
            return Err(PhysicsError::BadDimensions {
                what: "occupations",
            });
        }
        if voltages.len() != self.gate_crosstalk.len() {
            return Err(PhysicsError::GateCountMismatch {
                expected: self.gate_crosstalk.len(),
                got: voltages.len(),
            });
        }
        let mut phi = 0.0;
        for (chi, v) in self.gate_crosstalk.iter().zip(voltages) {
            phi += chi * v;
        }
        for (kappa, n) in self.electron_shifts.iter().zip(occupations) {
            phi -= kappa * n;
        }
        // tanh flank: linear for |phi| << flank_scale, saturating beyond.
        Ok(self.base_current + 0.5 * self.swing * (phi / self.flank_scale).tanh())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensor() -> SensorModel {
        SensorModel::with_defaults(2, 2).unwrap()
    }

    #[test]
    fn defaults_have_expected_shape() {
        let s = sensor();
        assert_eq!(s.n_dots(), 2);
        assert_eq!(s.n_gates(), 2);
        assert!(s.electron_shifts[0] > s.electron_shifts[1]);
    }

    #[test]
    fn adding_an_electron_drops_the_current() {
        let s = sensor();
        let v = [10.0, 10.0];
        let empty = s.current(&[0.0, 0.0], &v).unwrap();
        let one = s.current(&[1.0, 0.0], &v).unwrap();
        assert!(
            one < empty,
            "electron must reduce current ({one} !< {empty})"
        );
    }

    #[test]
    fn closer_dot_makes_bigger_step() {
        let s = sensor();
        let v = [0.0, 0.0];
        let base = s.current(&[0.0, 0.0], &v).unwrap();
        let dot0 = base - s.current(&[1.0, 0.0], &v).unwrap();
        let dot1 = base - s.current(&[0.0, 1.0], &v).unwrap();
        assert!(dot0 > dot1);
    }

    #[test]
    fn gate_crosstalk_tilts_background() {
        // Default crosstalk is negative: higher gate voltages darken the
        // diagram, so the (0,0) corner is the brightest.
        let s = sensor();
        let i_low = s.current(&[0.0, 0.0], &[0.0, 0.0]).unwrap();
        let i_high = s.current(&[0.0, 0.0], &[100.0, 100.0]).unwrap();
        assert!(
            i_high < i_low,
            "negative default crosstalk must lower current"
        );
        // A custom positive crosstalk tilts the other way.
        let pos = SensorModel::new(5.0, 4.0, 3.0, vec![1.0, 0.7], vec![0.002, 0.002]).unwrap();
        let p_low = pos.current(&[0.0, 0.0], &[0.0, 0.0]).unwrap();
        let p_high = pos.current(&[0.0, 0.0], &[100.0, 100.0]).unwrap();
        assert!(p_high > p_low);
    }

    #[test]
    fn flank_saturates() {
        let s = sensor();
        let extreme = s.current(&[0.0, 0.0], &[1e7, 1e7]).unwrap();
        let base = 5.0;
        let swing = 4.0;
        assert!(extreme <= base + 0.5 * swing + 1e-9);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(SensorModel::new(0.0, -1.0, 1.0, vec![1.0], vec![0.0]).is_err());
        assert!(SensorModel::new(0.0, 1.0, 0.0, vec![1.0], vec![0.0]).is_err());
        assert!(SensorModel::new(0.0, 1.0, 1.0, vec![], vec![0.0]).is_err());
        assert!(SensorModel::new(0.0, 1.0, 1.0, vec![-1.0], vec![0.0]).is_err());
        assert!(SensorModel::new(0.0, 1.0, 1.0, vec![1.0], vec![]).is_err());
        assert!(SensorModel::with_defaults(0, 1).is_err());
        assert!(SensorModel::with_defaults(1, 0).is_err());
    }

    #[test]
    fn current_rejects_shape_mismatches() {
        let s = sensor();
        assert!(s.current(&[0.0], &[0.0, 0.0]).is_err());
        assert!(matches!(
            s.current(&[0.0, 0.0], &[0.0]),
            Err(PhysicsError::GateCountMismatch { .. })
        ));
    }
}
