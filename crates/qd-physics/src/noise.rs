//! Measurement-noise models for synthetic charge-sensor data.
//!
//! Real CSDs from dilution-refrigerator measurements carry several noise
//! signatures that matter to the extraction algorithms:
//!
//! * **White noise** — amplifier/shot noise, independent per sample.
//! * **Drift (1/f-like)** — slow wandering of the sensor operating point,
//!   modelled as a bounded random walk accumulated across *successive
//!   probes* (so probe *order* matters, as on a real instrument).
//! * **Random telegraph noise** — a two-level fluctuator (charge trap)
//!   toggling the current between two offsets.
//!
//! Models are stateful and sample-order dependent, mirroring the physical
//! device; all randomness flows through a caller-supplied [`rand::Rng`] so
//! benchmark datasets are fully reproducible from a seed.

use rand::Rng;

/// A stateful noise process producing one additive current offset (nA) per
/// measurement.
///
/// Implementors are object-safe so heterogeneous stacks can be composed
/// with [`CompositeNoise`].
pub trait NoiseModel {
    /// Draws the next noise sample, advancing internal state.
    fn sample(&mut self, rng: &mut dyn rand::RngCore) -> f64;

    /// Resets internal state (drift position, telegraph phase, …) so a
    /// dataset can be regenerated identically.
    fn reset(&mut self);
}

/// Gaussian white noise with standard deviation `sigma`.
#[derive(Debug, Clone, PartialEq)]
pub struct WhiteNoise {
    sigma: f64,
    spare: Option<f64>,
}

impl WhiteNoise {
    /// Creates white noise with standard deviation `sigma` (nA).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(sigma: f64) -> Self {
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be non-negative"
        );
        Self { sigma, spare: None }
    }

    /// The configured standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl NoiseModel for WhiteNoise {
    fn sample(&mut self, rng: &mut dyn rand::RngCore) -> f64 {
        if self.sigma == 0.0 {
            return 0.0;
        }
        // Box–Muller with a cached spare sample. (`mut rng` rebinding:
        // `Rng::random` needs a sized receiver, so call through `&mut *rng`.)
        if let Some(s) = self.spare.take() {
            return s * self.sigma;
        }
        let rng = &mut *rng;
        let u1: f64 = loop {
            let u: f64 = rng.random();
            if u > 1e-300 {
                break u;
            }
        };
        let u2: f64 = rng.random();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos() * self.sigma
    }

    fn reset(&mut self) {
        self.spare = None;
    }
}

/// Bounded-random-walk drift: each probe moves the offset by a Gaussian
/// step, and the offset is softly pulled back toward zero so it cannot
/// wander unboundedly (an Ornstein–Uhlenbeck discretization).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftNoise {
    step_sigma: f64,
    relaxation: f64,
    state: f64,
    white: WhiteNoise,
}

impl DriftNoise {
    /// Creates a drift process with per-probe step size `step_sigma` (nA)
    /// and mean-reversion coefficient `relaxation` in `[0, 1)` (0 = pure
    /// random walk).
    ///
    /// # Panics
    ///
    /// Panics if `step_sigma` is negative or `relaxation` outside `[0, 1)`.
    pub fn new(step_sigma: f64, relaxation: f64) -> Self {
        assert!(step_sigma >= 0.0 && step_sigma.is_finite());
        assert!((0.0..1.0).contains(&relaxation));
        Self {
            step_sigma,
            relaxation,
            state: 0.0,
            white: WhiteNoise::new(1.0),
        }
    }

    /// Current drift offset (nA).
    pub fn offset(&self) -> f64 {
        self.state
    }
}

impl NoiseModel for DriftNoise {
    fn sample(&mut self, rng: &mut dyn rand::RngCore) -> f64 {
        let step = self.white.sample(rng) * self.step_sigma;
        self.state = self.state * (1.0 - self.relaxation) + step;
        self.state
    }

    fn reset(&mut self) {
        self.state = 0.0;
        self.white.reset();
    }
}

/// Two-level random telegraph noise: the offset toggles between `0` and
/// `amplitude` with probability `flip_probability` per probe.
#[derive(Debug, Clone, PartialEq)]
pub struct TelegraphNoise {
    amplitude: f64,
    flip_probability: f64,
    high: bool,
}

impl TelegraphNoise {
    /// Creates telegraph noise with the given step `amplitude` (nA) and
    /// per-probe `flip_probability`.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is not finite or `flip_probability` outside
    /// `[0, 1]`.
    pub fn new(amplitude: f64, flip_probability: f64) -> Self {
        assert!(amplitude.is_finite());
        assert!((0.0..=1.0).contains(&flip_probability));
        Self {
            amplitude,
            flip_probability,
            high: false,
        }
    }
}

impl NoiseModel for TelegraphNoise {
    fn sample(&mut self, rng: &mut dyn rand::RngCore) -> f64 {
        let rng = &mut *rng;
        let u: f64 = rng.random();
        if u < self.flip_probability {
            self.high = !self.high;
        }
        if self.high {
            self.amplitude
        } else {
            0.0
        }
    }

    fn reset(&mut self) {
        self.high = false;
    }
}

/// Approximate 1/f ("pink") noise: a sum of Ornstein–Uhlenbeck processes
/// with relaxation rates spaced by octaves. Each octave contributes equal
/// variance, producing a spectrum close to 1/f over the covered decades —
/// the canonical charge-noise signature of semiconductor devices.
#[derive(Debug, Clone, PartialEq)]
pub struct PinkNoise {
    octaves: Vec<DriftNoise>,
}

impl PinkNoise {
    /// Creates pink noise with total standard deviation ≈ `sigma` (nA)
    /// spread over `n_octaves` timescales; the fastest octave relaxes at
    /// `base_relaxation` per probe, each further octave half as fast.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative/non-finite, `n_octaves == 0`, or
    /// `base_relaxation` outside `(0, 1)`.
    pub fn new(sigma: f64, n_octaves: usize, base_relaxation: f64) -> Self {
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be non-negative"
        );
        assert!(n_octaves > 0, "need at least one octave");
        assert!(
            base_relaxation > 0.0 && base_relaxation < 1.0,
            "base_relaxation must be in (0, 1)"
        );
        // Stationary std of one OU octave is step / sqrt(2·relax − relax²);
        // give each octave equal variance sigma²/n by sizing its step.
        let per_octave = sigma / (n_octaves as f64).sqrt();
        let octaves = (0..n_octaves)
            .map(|k| {
                let relax = (base_relaxation / 2f64.powi(k as i32)).max(1e-6);
                let step = per_octave * (2.0 * relax - relax * relax).sqrt();
                DriftNoise::new(step, relax)
            })
            .collect();
        Self { octaves }
    }
}

impl NoiseModel for PinkNoise {
    fn sample(&mut self, rng: &mut dyn rand::RngCore) -> f64 {
        self.octaves.iter_mut().map(|o| o.sample(rng)).sum()
    }

    fn reset(&mut self) {
        for o in &mut self.octaves {
            o.reset();
        }
    }
}

/// Sum of an arbitrary stack of noise processes.
#[derive(Default)]
pub struct CompositeNoise {
    parts: Vec<Box<dyn NoiseModel + Send>>,
}

impl std::fmt::Debug for CompositeNoise {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeNoise")
            .field("parts", &self.parts.len())
            .finish()
    }
}

impl CompositeNoise {
    /// Creates an empty (silent) composite.
    pub fn new() -> Self {
        Self { parts: Vec::new() }
    }

    /// Adds a noise process to the stack (builder style).
    #[must_use]
    pub fn with(mut self, model: impl NoiseModel + Send + 'static) -> Self {
        self.parts.push(Box::new(model));
        self
    }

    /// Number of stacked processes.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl NoiseModel for CompositeNoise {
    fn sample(&mut self, rng: &mut dyn rand::RngCore) -> f64 {
        self.parts.iter_mut().map(|p| p.sample(rng)).sum()
    }

    fn reset(&mut self) {
        for p in &mut self.parts {
            p.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn white_noise_zero_sigma_is_silent() {
        let mut n = WhiteNoise::new(0.0);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(n.sample(&mut r), 0.0);
        }
    }

    #[test]
    fn white_noise_statistics() {
        let mut n = WhiteNoise::new(2.0);
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| n.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn white_noise_reproducible_from_seed() {
        let mut a = WhiteNoise::new(1.0);
        let mut b = WhiteNoise::new(1.0);
        let mut ra = rng();
        let mut rb = rng();
        for _ in 0..100 {
            assert_eq!(a.sample(&mut ra), b.sample(&mut rb));
        }
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn white_noise_rejects_negative_sigma() {
        let _ = WhiteNoise::new(-1.0);
    }

    #[test]
    fn drift_accumulates_and_resets() {
        let mut d = DriftNoise::new(0.5, 0.01);
        let mut r = rng();
        let mut last = 0.0;
        for _ in 0..100 {
            last = d.sample(&mut r);
        }
        assert_ne!(last, 0.0);
        assert_eq!(d.offset(), last);
        d.reset();
        assert_eq!(d.offset(), 0.0);
    }

    #[test]
    fn drift_mean_reversion_bounds_variance() {
        // Strong relaxation keeps the walk near zero; weak relaxation lets
        // it wander further.
        let spread = |relax: f64| -> f64 {
            let mut d = DriftNoise::new(0.5, relax);
            let mut r = rng();
            let mut max_abs: f64 = 0.0;
            for _ in 0..5_000 {
                max_abs = max_abs.max(d.sample(&mut r).abs());
            }
            max_abs
        };
        assert!(spread(0.5) < spread(0.001));
    }

    #[test]
    fn telegraph_toggles_between_two_levels() {
        let mut t = TelegraphNoise::new(3.0, 0.3);
        let mut r = rng();
        let mut seen_zero = false;
        let mut seen_high = false;
        for _ in 0..200 {
            let s = t.sample(&mut r);
            assert!(s == 0.0 || s == 3.0, "unexpected level {s}");
            seen_zero |= s == 0.0;
            seen_high |= s == 3.0;
        }
        assert!(seen_zero && seen_high);
    }

    #[test]
    fn telegraph_never_flips_with_zero_probability() {
        let mut t = TelegraphNoise::new(3.0, 0.0);
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(t.sample(&mut r), 0.0);
        }
    }

    #[test]
    fn composite_sums_parts() {
        let mut c = CompositeNoise::new()
            .with(TelegraphNoise::new(1.0, 0.0))
            .with(TelegraphNoise::new(2.0, 0.0));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        let mut r = rng();
        // Both telegraphs stay low, so the sum is zero.
        assert_eq!(c.sample(&mut r), 0.0);
    }

    #[test]
    fn composite_reset_propagates() {
        let mut c = CompositeNoise::new().with(DriftNoise::new(1.0, 0.0));
        let mut r = rng();
        for _ in 0..10 {
            c.sample(&mut r);
        }
        c.reset();
        // After reset the drift restarts from zero, so with the same RNG
        // stream the first post-reset sample equals a fresh first sample.
        let mut fresh = DriftNoise::new(1.0, 0.0);
        let mut r2 = StdRng::seed_from_u64(7);
        let mut r3 = StdRng::seed_from_u64(7);
        assert_eq!(c.sample(&mut r2), fresh.sample(&mut r3));
    }

    #[test]
    fn pink_noise_statistics() {
        let sigma = 0.5;
        let mut p = PinkNoise::new(sigma, 5, 0.5);
        let mut r = rng();
        // Warm up past the slowest octave's relaxation time.
        for _ in 0..20_000 {
            p.sample(&mut r);
        }
        let samples: Vec<f64> = (0..60_000).map(|_| p.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        let std = var.sqrt();
        assert!(
            (std - sigma).abs() < 0.2 * sigma,
            "pink std {std} vs target {sigma}"
        );
    }

    #[test]
    fn pink_noise_has_long_correlations() {
        // Lag autocorrelation of pink noise decays much slower than
        // white noise's (which is zero at any lag): the slow octaves
        // (relax down to 0.25/2⁵ ≈ 0.008 per probe) carry correlations
        // out to tens of probes.
        let mut p = PinkNoise::new(1.0, 6, 0.25);
        let mut r = rng();
        for _ in 0..10_000 {
            p.sample(&mut r);
        }
        let samples: Vec<f64> = (0..40_000).map(|_| p.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        let lag = 20;
        let cov = samples
            .windows(lag + 1)
            .map(|w| (w[0] - mean) * (w[lag] - mean))
            .sum::<f64>()
            / (samples.len() - lag) as f64;
        let rho = cov / var;
        assert!(
            rho > 0.2,
            "lag-{lag} autocorrelation {rho} too weak for 1/f"
        );
    }

    #[test]
    fn pink_noise_reset_restarts() {
        let mut p = PinkNoise::new(1.0, 3, 0.25);
        let mut r = rng();
        for _ in 0..100 {
            p.sample(&mut r);
        }
        p.reset();
        let mut fresh = PinkNoise::new(1.0, 3, 0.25);
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(p.sample(&mut r1), fresh.sample(&mut r2));
    }

    #[test]
    #[should_panic(expected = "at least one octave")]
    fn pink_noise_rejects_zero_octaves() {
        let _ = PinkNoise::new(1.0, 0, 0.5);
    }

    #[test]
    fn models_are_object_safe() {
        let mut models: Vec<Box<dyn NoiseModel + Send>> = vec![
            Box::new(WhiteNoise::new(1.0)),
            Box::new(DriftNoise::new(0.1, 0.01)),
            Box::new(TelegraphNoise::new(1.0, 0.1)),
        ];
        let mut r = rng();
        for m in &mut models {
            let _ = m.sample(&mut r);
            m.reset();
        }
    }
}
