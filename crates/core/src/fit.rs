//! Slope extraction (§4.3.3): fit the 2-piece-wise-linear shape.
//!
//! The two transition lines are modelled as two segments sharing an
//! intersection point; the initial anchors are the fixed outer endpoints
//! and the intersection's coordinates are the only fit parameters
//! (exactly the parameterization the paper hands to SciPy's `curve_fit`).
//! Slopes follow from the fitted intersection and the anchors, and are
//! validated against the §4.2 physics constraints.

use crate::ExtractError;
use qd_csd::Pixel;
use qd_numerics::levenberg;
use qd_numerics::piecewise::{segment_distance_sq, Point, TwoSegmentModel};

/// Minimum located transition points required to attempt a fit.
pub const MIN_POINTS: usize = 4;

/// Which optimizer places the intersection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitMethod {
    /// Nelder–Mead simplex (default; robust to the objective's kinks
    /// where a point's nearest segment switches).
    #[default]
    NelderMead,
    /// Levenberg–Marquardt on per-point distance residuals with
    /// finite-difference Jacobians — SciPy `curve_fit`'s default
    /// machinery, provided for the fitter ablation.
    LevenbergMarquardt,
}

/// Outcome of the slope fit.
#[derive(Debug, Clone, PartialEq)]
pub struct SlopeFit {
    /// Fitted intersection point (fractional pixels).
    pub intersection: (f64, f64),
    /// Slope of the shallow (0,0)→(0,1) line.
    pub slope_h: f64,
    /// Slope of the steep (0,0)→(1,0) line.
    pub slope_v: f64,
    /// Sum of squared point-to-segment distances at the optimum.
    pub sse: f64,
    /// Root-mean-square distance per point (pixels) — a quality measure.
    pub rms: f64,
}

/// Validation thresholds for the fitted slopes.
///
/// §4.2's physics constraints: both slopes negative, the (0,0)→(1,0)
/// line steeper than the (0,0)→(0,1) line. The default bounds add a
/// small margin around the `-1` separatrix.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "bounds do nothing until given to a fit"]
pub struct SlopeBounds {
    /// The steep slope must be below this (default −1).
    pub steep_max: f64,
    /// The shallow slope must be below this (default −0.01: very flat
    /// lines are indistinguishable from background).
    pub shallow_max: f64,
    /// The shallow slope must be above this (default −1).
    pub shallow_min: f64,
}

impl Default for SlopeBounds {
    fn default() -> Self {
        Self {
            steep_max: -1.0,
            shallow_max: -0.01,
            shallow_min: -1.0,
        }
    }
}

/// Fits the transition lines through the located `points`, with `a1` /
/// `a2` the initial (upper-left / lower-right) anchors, using the
/// `method` optimizer.
///
/// # Errors
///
/// * [`crate::GeometryError::TooFewTransitionPoints`] for fewer than
///   [`MIN_POINTS`] points.
/// * [`crate::FitError::UnphysicalSlopes`] if the fitted slopes violate
///   `bounds` — the machine-checkable analogue of the paper's manual
///   "did the virtualization look right" inspection.
/// * [`crate::FitError::Numerics`] if the inner optimizer fails outright.
pub fn fit_transition_lines(
    a1: Pixel,
    a2: Pixel,
    points: &[Pixel],
    bounds: &SlopeBounds,
    method: FitMethod,
) -> Result<SlopeFit, ExtractError> {
    if points.len() < MIN_POINTS {
        return Err(ExtractError::too_few_transition_points(
            points.len(),
            MIN_POINTS,
        ));
    }
    let model = TwoSegmentModel::new(
        Point::new(a1.x as f64, a1.y as f64),
        Point::new(a2.x as f64, a2.y as f64),
    )
    .map_err(ExtractError::from)?;
    let pts: Vec<Point> = points
        .iter()
        .map(|p| Point::new(p.x as f64, p.y as f64))
        .collect();
    let fit = match method {
        FitMethod::NelderMead => model.fit(&pts).map_err(ExtractError::from)?,
        FitMethod::LevenbergMarquardt => fit_lm(&model, &pts)?,
    };

    let slope_h = fit.slope_h;
    let slope_v = fit.slope_v;
    let physical =
        slope_v < bounds.steep_max && slope_h < bounds.shallow_max && slope_h > bounds.shallow_min;
    if !physical {
        return Err(ExtractError::unphysical_slopes(slope_h, slope_v));
    }
    let rms = (fit.sse / points.len() as f64).sqrt();
    Ok(SlopeFit {
        intersection: (fit.intersection.x, fit.intersection.y),
        slope_h,
        slope_v,
        sse: fit.sse,
        rms,
    })
}

/// Levenberg–Marquardt variant: residual `i` is the (softened) distance
/// from point `i` to the nearer segment.
fn fit_lm(
    model: &TwoSegmentModel,
    pts: &[Point],
) -> Result<qd_numerics::piecewise::SegmentFit, ExtractError> {
    let start = [model.anchor_v.x, model.anchor_h.y];
    let m = *model;
    let points = pts.to_vec();
    let out = levenberg::fit(
        move |p, r| {
            let c = Point::new(p[0], p[1]);
            for (i, &pt) in points.iter().enumerate() {
                let d2 = segment_distance_sq(pt, m.anchor_h, c)
                    .min(segment_distance_sq(pt, m.anchor_v, c));
                // Softened distance keeps the Jacobian finite at d = 0.
                r[i] = (d2 + 1e-9).sqrt();
            }
        },
        &start,
        pts.len(),
        levenberg::Options::default(),
    )
    .map_err(ExtractError::from)?;
    let c = Point::new(out.params[0], out.params[1]);
    let (slope_h, slope_v) = model.slopes(c);
    Ok(qd_numerics::piecewise::SegmentFit {
        intersection: c,
        slope_h,
        slope_v,
        sse: model.sse(c, pts),
        converged: out.converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{FitError, GeometryError};

    fn line_points(a1: Pixel, a2: Pixel, c: (f64, f64), n: usize) -> Vec<Pixel> {
        let mut pts = Vec::new();
        for i in 0..n {
            let t = i as f64 / (n - 1) as f64;
            let on_h = (
                a1.x as f64 + t * (c.0 - a1.x as f64),
                a1.y as f64 + t * (c.1 - a1.y as f64),
            );
            let on_v = (
                a2.x as f64 + t * (c.0 - a2.x as f64),
                a2.y as f64 + t * (c.1 - a2.y as f64),
            );
            pts.push(Pixel::new(on_h.0.round() as usize, on_h.1.round() as usize));
            pts.push(Pixel::new(on_v.0.round() as usize, on_v.1.round() as usize));
        }
        pts
    }

    #[test]
    fn recovers_known_geometry() {
        // Shallow slope (58-64)/(60-10) = -0.12?? choose: a1 (10, 64),
        // intersection (60, 54): slope_h = (54-64)/(60-10) = -0.2.
        // a2 (70, 14): slope_v = (54-14)/(60-70) = -4.
        let a1 = Pixel::new(10, 64);
        let a2 = Pixel::new(70, 14);
        let c = (60.0, 54.0);
        let pts = line_points(a1, a2, c, 25);
        let fit =
            fit_transition_lines(a1, a2, &pts, &SlopeBounds::default(), FitMethod::NelderMead)
                .unwrap();
        assert!((fit.slope_h + 0.2).abs() < 0.03, "slope_h {}", fit.slope_h);
        assert!((fit.slope_v + 4.0).abs() < 0.5, "slope_v {}", fit.slope_v);
        assert!(fit.rms < 1.0, "rms {}", fit.rms);
        assert!((fit.intersection.0 - 60.0).abs() < 1.5);
        assert!((fit.intersection.1 - 54.0).abs() < 1.5);
    }

    #[test]
    fn too_few_points_rejected() {
        let a1 = Pixel::new(0, 50);
        let a2 = Pixel::new(50, 0);
        let pts = vec![Pixel::new(10, 40), Pixel::new(20, 30)];
        assert!(matches!(
            fit_transition_lines(a1, a2, &pts, &SlopeBounds::default(), FitMethod::NelderMead),
            Err(ExtractError::Geometry(
                GeometryError::TooFewTransitionPoints { got: 2, min: 4 }
            ))
        ));
    }

    #[test]
    fn unphysical_geometry_rejected() {
        // Points pulling the intersection so the "steep" segment is
        // shallow: anchors nearly horizontal.
        let a1 = Pixel::new(0, 30);
        let a2 = Pixel::new(80, 28);
        let pts: Vec<Pixel> = (10..50).map(|x| Pixel::new(x, 29)).collect();
        let r = fit_transition_lines(a1, a2, &pts, &SlopeBounds::default(), FitMethod::NelderMead);
        assert!(
            matches!(r, Err(ExtractError::Fit(FitError::UnphysicalSlopes { .. }))),
            "expected unphysical-slope rejection, got {r:?}"
        );
    }

    #[test]
    fn tolerates_scatter() {
        let a1 = Pixel::new(8, 60);
        let a2 = Pixel::new(66, 10);
        let c = (58.0, 52.0);
        let mut pts = line_points(a1, a2, c, 20);
        // Jitter deterministically by ±1 pixel.
        for (i, p) in pts.iter_mut().enumerate() {
            if i % 3 == 0 && p.x > 0 {
                p.x -= 1;
            }
            if i % 4 == 0 {
                p.y += 1;
            }
        }
        let fit =
            fit_transition_lines(a1, a2, &pts, &SlopeBounds::default(), FitMethod::NelderMead)
                .unwrap();
        assert!(fit.slope_v < -1.0);
        assert!(fit.slope_h > -1.0 && fit.slope_h < 0.0);
    }

    #[test]
    fn lm_fitter_agrees_with_nelder_mead() {
        let a1 = Pixel::new(10, 64);
        let a2 = Pixel::new(70, 14);
        let pts = line_points(a1, a2, (60.0, 54.0), 25);
        let nm = fit_transition_lines(a1, a2, &pts, &SlopeBounds::default(), FitMethod::NelderMead)
            .unwrap();
        let lm = fit_transition_lines(
            a1,
            a2,
            &pts,
            &SlopeBounds::default(),
            FitMethod::LevenbergMarquardt,
        )
        .unwrap();
        assert!(
            (nm.slope_h - lm.slope_h).abs() < 0.05,
            "h: {} vs {}",
            nm.slope_h,
            lm.slope_h
        );
        assert!(
            (nm.slope_v - lm.slope_v).abs() < 0.5,
            "v: {} vs {}",
            nm.slope_v,
            lm.slope_v
        );
    }

    #[test]
    fn caller_bounds_are_respected() {
        let a1 = Pixel::new(10, 64);
        let a2 = Pixel::new(70, 14);
        let pts = line_points(a1, a2, (60.0, 54.0), 25);
        // Demand an impossibly steep line: the fit must be rejected.
        let strict = SlopeBounds {
            steep_max: -10.0,
            ..SlopeBounds::default()
        };
        assert!(matches!(
            fit_transition_lines(a1, a2, &pts, &strict, FitMethod::NelderMead),
            Err(ExtractError::Fit(FitError::UnphysicalSlopes { .. }))
        ));
    }
}
