//! Virtual gates for `n`-dot arrays (§2.3).
//!
//! The pairwise extraction generalizes to a linear array by running the
//! double-dot procedure on every adjacent plunger pair in sequence
//! (`n − 1` extractions for `n` dots, as in Mills et al. 2019). The
//! pairwise α coefficients assemble into an `n × n` virtualization matrix
//! with unit diagonal and the nearest-neighbour couplings on the off-
//! diagonals.

use crate::api::{extract_with, ExtractionReport, Extractor};
use crate::ExtractError;
use qd_instrument::{MeasurementSession, PhysicsSource, VoltageWindow};
use qd_physics::LinearArrayDevice;
use std::time::Duration;

/// An `n`-gate virtualization matrix `G` (unit diagonal): virtual
/// voltages are `V' = G · V`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayVirtualization {
    n: usize,
    /// Row-major `n × n` matrix.
    matrix: Vec<f64>,
}

impl ArrayVirtualization {
    /// Builds the matrix from per-pair coefficients: `pairs[i]` is
    /// `(α_{i,i+1}, α_{i+1,i})` for the adjacent pair `(i, i+1)`.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty (an array needs at least two dots).
    fn from_pairs(pairs: &[(f64, f64)]) -> Self {
        assert!(!pairs.is_empty(), "need at least one adjacent pair");
        let n = pairs.len() + 1;
        let mut matrix = vec![0.0; n * n];
        for i in 0..n {
            matrix[i * n + i] = 1.0;
        }
        for (i, &(a_fwd, a_bwd)) in pairs.iter().enumerate() {
            matrix[i * n + (i + 1)] = a_fwd;
            matrix[(i + 1) * n + i] = a_bwd;
        }
        Self { n, matrix }
    }

    /// Number of gates.
    pub fn n_gates(&self) -> usize {
        self.n
    }

    /// Matrix entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn at(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.matrix[i * self.n + j]
    }

    /// Maps physical gate voltages to virtual gate voltages.
    ///
    /// # Panics
    ///
    /// Panics if `voltages.len() != n_gates`.
    pub fn to_virtual(&self, voltages: &[f64]) -> Vec<f64> {
        assert_eq!(voltages.len(), self.n, "voltage vector length mismatch");
        (0..self.n)
            .map(|i| {
                (0..self.n)
                    .map(|j| self.matrix[i * self.n + j] * voltages[j])
                    .sum()
            })
            .collect()
    }
}

/// Result of a chain extraction over an `n`-dot array.
#[derive(Debug)]
pub struct ChainExtraction {
    /// Per-pair extraction reports, pair `(i, i+1)` at index `i`.
    pub pairs: Vec<ExtractionReport>,
    /// The assembled `n × n` virtualization matrix.
    pub virtualization: ArrayVirtualization,
    /// Total probes across all pairs.
    pub total_probes: usize,
    /// Total simulated dwell across all pairs.
    pub total_dwell: Duration,
}

/// Planning parameters for each pair's measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPlan {
    /// Window span in volts (reduced), both axes.
    pub span: f64,
    /// Window resolution in pixels, both axes.
    pub pixels: usize,
    /// Fraction of the window (from the low corner) where the pair's
    /// transition-line intersection should sit.
    pub intersect_at: (f64, f64),
}

impl Default for WindowPlan {
    fn default() -> Self {
        Self {
            span: 60.0,
            pixels: 100,
            intersect_at: (0.62, 0.58),
        }
    }
}

/// Plans the voltage window for the adjacent pair `(pair, pair + 1)` of a
/// device: the window is positioned so the pair's transition-line
/// intersection sits at `plan.intersect_at`.
///
/// # Errors
///
/// Reports a degenerate-anchor [`crate::GeometryError`] — in practice
/// only for invalid pair indices or degenerate lever arms.
fn plan_pair_window(
    device: &LinearArrayDevice,
    pair: usize,
    bias: &[f64],
    plan: &WindowPlan,
) -> Result<VoltageWindow, ExtractError> {
    let (ix, iy) = device
        .pair_line_intersection(pair, bias)
        .map_err(|_| ExtractError::degenerate_anchors((0, 0), (0, 0)))?;
    let x_min = ix - plan.intersect_at.0 * plan.span;
    let y_min = iy - plan.intersect_at.1 * plan.span;
    Ok(VoltageWindow {
        x_min,
        y_min,
        x_max: x_min + plan.span,
        y_max: y_min + plan.span,
        delta: plan.span / (plan.pixels - 1) as f64,
    })
}

/// Runs an extraction method on every adjacent plunger pair of an
/// `n`-dot array and assembles the full virtualization matrix.
///
/// Any [`Extractor`] works — the fast method, the baseline, or a retry
/// ladder (`&FastExtractor::new()` coerces to `&dyn Extractor`).
///
/// `bias` holds the standby voltage for every gate while it is not part
/// of the active pair.
///
/// # Errors
///
/// Returns the first pair's [`ExtractError`] on failure; a production
/// tuning loop would retry that pair, but for the reproduction a hard
/// error keeps the accounting honest.
pub fn extract_chain(
    device: &LinearArrayDevice,
    bias: &[f64],
    extractor: &dyn Extractor,
    plan: &WindowPlan,
) -> Result<ChainExtraction, ExtractError> {
    let n = device.n_dots();
    assert!(n >= 2, "array must have at least two dots");
    let mut pairs = Vec::with_capacity(n - 1);
    let mut coeffs = Vec::with_capacity(n - 1);
    let mut total_probes = 0;
    let mut total_dwell = Duration::ZERO;

    for pair in 0..n - 1 {
        let window = plan_pair_window(device, pair, bias, plan)?;
        let source = PhysicsSource::new(device.clone(), pair, pair + 1, bias.to_vec(), window);
        let mut session = MeasurementSession::new(source);
        let result = extract_with(extractor, &mut session)?;
        total_probes += result.probes;
        total_dwell += result.simulated_dwell;
        coeffs.push((result.alpha12(), result.alpha21()));
        pairs.push(result);
    }

    Ok(ChainExtraction {
        pairs,
        virtualization: ArrayVirtualization::from_pairs(&coeffs),
        total_probes,
        total_dwell,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extraction::FastExtractor;
    use qd_physics::DeviceBuilder;

    #[test]
    fn matrix_assembles_from_pairs() {
        let v = ArrayVirtualization::from_pairs(&[(0.2, 0.3), (0.15, 0.25)]);
        assert_eq!(v.n_gates(), 3);
        assert_eq!(v.at(0, 0), 1.0);
        assert_eq!(v.at(0, 1), 0.2);
        assert_eq!(v.at(1, 0), 0.3);
        assert_eq!(v.at(1, 2), 0.15);
        assert_eq!(v.at(2, 1), 0.25);
        assert_eq!(v.at(0, 2), 0.0);
    }

    #[test]
    fn to_virtual_applies_matrix() {
        let v = ArrayVirtualization::from_pairs(&[(0.5, 0.25)]);
        let out = v.to_virtual(&[10.0, 20.0]);
        assert_eq!(out, vec![20.0, 22.5]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn to_virtual_checks_length() {
        let v = ArrayVirtualization::from_pairs(&[(0.1, 0.1)]);
        let _ = v.to_virtual(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn plan_window_centers_intersection() {
        let device = DeviceBuilder::double_dot().build_array().unwrap();
        let plan = WindowPlan::default();
        let w = plan_pair_window(&device, 0, &[0.0, 0.0], &plan).unwrap();
        let (ix, iy) = device.pair_line_intersection(0, &[0.0, 0.0]).unwrap();
        assert!(((ix - w.x_min) / plan.span - 0.62).abs() < 1e-9);
        assert!(((iy - w.y_min) / plan.span - 0.58).abs() < 1e-9);
        assert_eq!(w.width_px(), plan.pixels);
    }

    #[test]
    fn chain_extraction_on_triple_dot() {
        let device = DeviceBuilder::linear_array(3).build_array().unwrap();
        let extractor = FastExtractor::new();
        let chain = extract_chain(
            &device,
            &[0.0, 0.0, 0.0],
            &extractor,
            &WindowPlan::default(),
        )
        .unwrap();
        assert_eq!(chain.pairs.len(), 2);
        assert_eq!(chain.virtualization.n_gates(), 3);
        assert_eq!(
            chain.total_probes,
            chain.pairs.iter().map(|p| p.probes).sum::<usize>()
        );

        // Extracted α's should match the device ground truth reasonably.
        for pair in 0..2 {
            let truth = device.pair_ground_truth(pair).unwrap();
            let a12 = chain.virtualization.at(pair, pair + 1);
            let a21 = chain.virtualization.at(pair + 1, pair);
            assert!(
                (a12 - truth.alpha12).abs() < 0.1,
                "pair {pair}: a12 {a12} vs truth {}",
                truth.alpha12
            );
            assert!(
                (a21 - truth.alpha21).abs() < 0.1,
                "pair {pair}: a21 {a21} vs truth {}",
                truth.alpha21
            );
        }
    }

    #[test]
    fn chain_respects_bias_shifts() {
        // The same device with a big bias on gate 2 still extracts pair 0:
        // the window planner compensates for the shift.
        let device = DeviceBuilder::linear_array(3).build_array().unwrap();
        let chain = extract_chain(
            &device,
            &[0.0, 0.0, 60.0],
            &FastExtractor::new(),
            &WindowPlan::default(),
        );
        assert!(chain.is_ok(), "biased chain failed: {:?}", chain.err());
    }
}
