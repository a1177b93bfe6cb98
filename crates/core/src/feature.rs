//! The feature gradient of Algorithm 2.
//!
//! A transition line is a sharp *drop* in sensor current when moving
//! toward higher gate voltages. For a probe at voltages `(v1, v2)` the
//! paper sums the current differences to the right and upper-right
//! neighbours one granularity step `δ` away:
//!
//! ```text
//! g(v1, v2) = (c − c_right) + (c − c_upper_right)
//!           =  2·I(v1, v2) − I(v1 + δ, v2) − I(v1 + δ, v2 + δ)
//! ```
//!
//! This "positively tilted" detector responds to both negative-slope
//! transition lines (steep and shallow) while ignoring flat background.
//! Each evaluation costs at most three probes; on a cached session,
//! neighbouring evaluations share probes.

use qd_instrument::ProbeSession;

/// Computes the Algorithm 2 feature gradient at voltages `(v1, v2)`
/// using the session's granularity `δ`.
///
/// Probes `(v1, v2)`, `(v1 + δ, v2)` and `(v1 + δ, v2 + δ)`. At the
/// window's right/top edge the probes clamp, making the gradient ≈ 0
/// there — acceptable because transition lines never coincide with the
/// window border in practice (the paper's sweeps also probe up to the
/// edge).
fn feature_gradient<P: ProbeSession + ?Sized>(session: &mut P, v1: f64, v2: f64) -> f64 {
    let delta = session.window().delta;
    let c = session.get_current(v1, v2);
    let c_right = session.get_current(v1 + delta, v2);
    let c_upper_right = session.get_current(v1 + delta, v2 + delta);
    (c - c_right) + (c - c_upper_right)
}

/// Feature gradient at an integer pixel of the session's window.
pub fn feature_gradient_at_pixel<P: ProbeSession + ?Sized>(
    session: &mut P,
    x: usize,
    y: usize,
) -> f64 {
    let w = session.window();
    let v1 = w.x_min + x as f64 * w.delta;
    let v2 = w.y_min + y as f64 * w.delta;
    feature_gradient(session, v1, v2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_csd::{Csd, VoltageGrid};
    use qd_instrument::{CsdSource, MeasurementSession};

    fn session_from(f: impl Fn(f64, f64) -> f64) -> MeasurementSession<CsdSource> {
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, 32, 32).unwrap();
        let csd = Csd::from_fn(grid, f).unwrap();
        MeasurementSession::new(CsdSource::new(csd))
    }

    #[test]
    fn flat_image_has_zero_gradient() {
        let mut s = session_from(|_, _| 3.0);
        assert_eq!(feature_gradient(&mut s, 10.0, 10.0), 0.0);
    }

    #[test]
    fn steep_line_produces_positive_gradient() {
        // Vertical step at v1 = 16: current drops from 5 to 2.
        let mut s = session_from(|v1, _| if v1 < 16.0 { 5.0 } else { 2.0 });
        // At v1 = 15, right neighbour (16) is across the step.
        let g = feature_gradient(&mut s, 15.0, 10.0);
        assert!((g - 6.0).abs() < 1e-12, "g = {g}");
        // Far from the line, zero.
        assert_eq!(feature_gradient(&mut s, 5.0, 10.0), 0.0);
    }

    #[test]
    fn shallow_line_produces_positive_gradient() {
        // Horizontal step at v2 = 16.
        let mut s = session_from(|_, v2| if v2 < 16.0 { 5.0 } else { 2.0 });
        // At v2 = 15, upper-right neighbour is across.
        let g = feature_gradient(&mut s, 10.0, 15.0);
        assert!((g - 3.0).abs() < 1e-12, "g = {g}");
    }

    #[test]
    fn gradient_peaks_on_the_line() {
        let mut s = session_from(|v1, v2| if v2 < -2.0 * (v1 - 20.0) { 4.0 } else { 1.0 });
        let on = feature_gradient(&mut s, 14.0, 10.0); // just left of the line at y=10
        let off = feature_gradient(&mut s, 5.0, 10.0);
        assert!(on > off, "on-line {on} vs off-line {off}");
    }

    #[test]
    fn rising_background_gives_negative_gradient() {
        let mut s = session_from(|v1, v2| 0.1 * (v1 + v2));
        let g = feature_gradient(&mut s, 10.0, 10.0);
        assert!(g < 0.0);
    }

    #[test]
    fn pixel_variant_matches_voltage_variant() {
        let mut s = session_from(|v1, v2| (v1 * 3.0 + v2).sin());
        let a = feature_gradient_at_pixel(&mut s, 7, 9);
        let b = feature_gradient(&mut s, 7.0, 9.0);
        assert_eq!(a, b);
    }

    #[test]
    fn costs_at_most_three_new_probes() {
        let mut s = session_from(|v1, v2| v1 + v2);
        let before = s.probe_count();
        let _ = feature_gradient(&mut s, 10.0, 10.0);
        assert_eq!(s.probe_count() - before, 3);
        // Adjacent evaluation shares two pixels via the cache.
        let _ = feature_gradient(&mut s, 10.0, 9.0);
        assert_eq!(
            s.probe_count(),
            5,
            "expected 2 new probes, cache sharing the rest"
        );
    }
}
