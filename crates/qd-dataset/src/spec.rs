//! Benchmark specifications: device parameters + noise recipe + size.

/// Noise recipe applied during diagram generation, in units of nA
/// (compare: the default sensor's per-electron step is ≈0.5–0.7 nA).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseRecipe {
    /// Gaussian white noise standard deviation.
    pub white_sigma: f64,
    /// Drift (random-walk) per-probe step size.
    pub drift_step: f64,
    /// Drift mean-reversion coefficient in `[0, 1)`.
    pub drift_relaxation: f64,
    /// Random-telegraph amplitude.
    pub telegraph_amplitude: f64,
    /// Random-telegraph per-probe flip probability.
    pub telegraph_probability: f64,
}

impl NoiseRecipe {
    /// No noise at all.
    pub fn silent() -> Self {
        Self {
            white_sigma: 0.0,
            drift_step: 0.0,
            drift_relaxation: 0.0,
            telegraph_amplitude: 0.0,
            telegraph_probability: 0.0,
        }
    }

    /// A typical clean measurement: light white noise and slow drift.
    /// The per-probe feature-gradient noise (`σ·√6 ≈ 0.09 nA`) sits a
    /// comfortable 5σ below the sensor step, like a good qflow scan.
    pub fn clean() -> Self {
        Self {
            white_sigma: 0.035,
            drift_step: 0.0015,
            drift_relaxation: 0.05,
            telegraph_amplitude: 0.0,
            telegraph_probability: 0.0,
        }
    }

    /// A noisy but usable measurement (feature-gradient SNR ≈ 3).
    pub fn noisy() -> Self {
        Self {
            white_sigma: 0.065,
            drift_step: 0.0025,
            drift_relaxation: 0.05,
            telegraph_amplitude: 0.04,
            telegraph_probability: 0.02,
        }
    }

    /// Pathological noise that swamps the charge-sensing signal — the
    /// regime of the paper's benchmarks 1 and 2, where both methods fail.
    pub fn swamped() -> Self {
        Self {
            white_sigma: 0.85,
            drift_step: 0.08,
            drift_relaxation: 0.005,
            telegraph_amplitude: 0.9,
            telegraph_probability: 0.08,
        }
    }
}

impl Default for NoiseRecipe {
    fn default() -> Self {
        Self::clean()
    }
}

/// Full description of one synthetic benchmark CSD.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// 1-based benchmark index matching Table 1's "CSD Index".
    pub index: usize,
    /// Pixel resolution (square, like the paper's cropped diagrams).
    pub size: usize,
    /// Lever-arm matrix `[[dot0←gate0, dot0←gate1], [dot1←gate0, dot1←gate1]]`.
    pub lever_arms: [[f64; 2]; 2],
    /// Mutual dot–dot capacitance.
    pub mutual: f64,
    /// Electron temperature `kT` (reduced units) — controls transition
    /// line width.
    pub temperature: f64,
    /// Sensor contrast scale: multiplies the default sensor swing. Values
    /// below 1 make transition steps fainter (benchmark 7's regime).
    pub contrast: f64,
    /// Noise recipe.
    pub noise: NoiseRecipe,
    /// RNG seed for reproducible generation.
    pub seed: u64,
    /// Whether the paper's Table 1 reports the *fast* method succeeding
    /// on the corresponding benchmark.
    pub expect_fast_success: bool,
    /// Whether Table 1 reports the *baseline* succeeding.
    pub expect_baseline_success: bool,
}

impl BenchmarkSpec {
    /// A clean default spec (used as a starting point by the suite and in
    /// tests).
    pub fn clean(index: usize, size: usize) -> Self {
        Self {
            index,
            size,
            lever_arms: [[0.010, 0.0022], [0.0026, 0.0105]],
            mutual: 0.15,
            temperature: 0.0025,
            contrast: 1.0,
            noise: NoiseRecipe::clean(),
            seed: 0x5eed_0000 + index as u64,
            expect_fast_success: true,
            expect_baseline_success: true,
        }
    }

    /// Total pixels in the diagram.
    pub fn pixel_count(&self) -> usize {
        self.size * self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipes_are_ordered_by_severity() {
        let silent = NoiseRecipe::silent();
        let clean = NoiseRecipe::clean();
        let noisy = NoiseRecipe::noisy();
        let swamped = NoiseRecipe::swamped();
        assert_eq!(
            (
                silent.white_sigma,
                silent.drift_step,
                silent.telegraph_amplitude
            ),
            (0.0, 0.0, 0.0)
        );
        assert!(clean.white_sigma > 0.0);
        assert!(clean.white_sigma < noisy.white_sigma);
        assert!(noisy.white_sigma < swamped.white_sigma);
    }

    #[test]
    fn default_recipe_is_clean() {
        assert_eq!(NoiseRecipe::default(), NoiseRecipe::clean());
    }

    #[test]
    fn clean_spec_shape() {
        let s = BenchmarkSpec::clean(3, 63);
        assert_eq!(s.index, 3);
        assert_eq!(s.pixel_count(), 3969);
        assert!(s.expect_fast_success && s.expect_baseline_success);
    }

    #[test]
    fn seeds_differ_per_index() {
        assert_ne!(
            BenchmarkSpec::clean(1, 63).seed,
            BenchmarkSpec::clean(2, 63).seed
        );
    }
}
