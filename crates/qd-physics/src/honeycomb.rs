//! Analytic honeycomb geometry of a double-dot charge stability diagram.
//!
//! The constant-interaction model partitions the gate-voltage plane into
//! polygonal cells of constant ground-state occupation; their boundaries
//! form the famous honeycomb pattern. This module computes, for a given
//! voltage window:
//!
//! * every **boundary segment** between two charge states (with the
//!   states on each side and the analytic slope), and
//! * every **triple point** where three cells meet.
//!
//! Degeneracy condition between configurations `M` and `N`:
//! `U(M, V) = U(N, V)` is *linear* in `V` for the constant-interaction
//! energy, so each pairwise boundary is a straight line; the realized
//! segment is where both states are also the global ground state.
//!
//! Used by the figure harnesses (drawing exact lines over rendered
//! diagrams) and by tests that validate the simpler two-line model the
//! extraction algorithm assumes near the (0,0) corner.

use crate::charge_state::ChargeStateSolver;
use crate::{CapacitanceModel, PhysicsError};

/// A straight boundary segment between two charge states.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundarySegment {
    /// Occupation on the lower-voltage side.
    pub from: Vec<u32>,
    /// Occupation on the higher-voltage side.
    pub to: Vec<u32>,
    /// Segment start `(V₁, V₂)`.
    pub start: (f64, f64),
    /// Segment end `(V₁, V₂)`.
    pub end: (f64, f64),
}

impl BoundarySegment {
    /// Slope `dV₂/dV₁` of the segment, or `None` if vertical.
    pub fn slope(&self) -> Option<f64> {
        let dx = self.end.0 - self.start.0;
        if dx.abs() < 1e-12 {
            None
        } else {
            Some((self.end.1 - self.start.1) / dx)
        }
    }

    /// Euclidean length of the segment.
    pub fn length(&self) -> f64 {
        let dx = self.end.0 - self.start.0;
        let dy = self.end.1 - self.start.1;
        (dx * dx + dy * dy).sqrt()
    }
}

/// The honeycomb geometry found in a voltage window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Honeycomb {
    /// All realized boundary segments.
    pub segments: Vec<BoundarySegment>,
    /// All triple points `(V₁, V₂)` (three-state degeneracies).
    pub triple_points: Vec<(f64, f64)>,
}

/// Traces the honeycomb of a 2-gate model inside the window
/// `[x_min, x_max] × [y_min, y_max]` by marching a `resolution²` grid of
/// ground states and extracting cell boundaries.
///
/// The returned segments are *per grid edge* merged into maximal straight
/// runs: two adjacent boundary pixels with the same state pair extend the
/// same segment. `resolution` trades accuracy for speed; 200 resolves the
/// typical window to sub-percent slope accuracy.
///
/// # Errors
///
/// * [`PhysicsError::BadDimensions`] if the model does not have exactly
///   2 gates.
/// * [`PhysicsError::InvalidParameter`] for an empty window or a
///   `resolution < 8`.
pub fn trace_honeycomb(
    model: &CapacitanceModel,
    solver: &ChargeStateSolver,
    window: (f64, f64, f64, f64),
    resolution: usize,
) -> Result<Honeycomb, PhysicsError> {
    if model.n_gates() != 2 {
        return Err(PhysicsError::BadDimensions {
            what: "honeycomb requires 2 gates",
        });
    }
    let (x_min, y_min, x_max, y_max) = window;
    if !(x_max > x_min && y_max > y_min) {
        return Err(PhysicsError::InvalidParameter {
            name: "window",
            constraint: "must be non-empty",
        });
    }
    if resolution < 8 {
        return Err(PhysicsError::InvalidParameter {
            name: "resolution",
            constraint: "must be at least 8",
        });
    }

    let nx = resolution;
    let ny = resolution;
    let dx = (x_max - x_min) / (nx - 1) as f64;
    let dy = (y_max - y_min) / (ny - 1) as f64;

    // Ground-state map.
    let mut states: Vec<Vec<u32>> = Vec::with_capacity(nx * ny);
    for iy in 0..ny {
        for ix in 0..nx {
            let v = [x_min + ix as f64 * dx, y_min + iy as f64 * dy];
            states.push(solver.ground_state(model, &v)?.occupations().to_vec());
        }
    }
    let at = |ix: usize, iy: usize| -> &Vec<u32> { &states[iy * nx + ix] };

    // Boundary crossings along grid edges, keyed by the state pair.
    use std::collections::HashMap;
    type PairKey = (Vec<u32>, Vec<u32>);
    let mut crossings: HashMap<PairKey, Vec<(f64, f64)>> = HashMap::new();
    for iy in 0..ny {
        for ix in 0..nx {
            let here = at(ix, iy);
            if ix + 1 < nx {
                let right = at(ix + 1, iy);
                if right != here {
                    let p = (x_min + (ix as f64 + 0.5) * dx, y_min + iy as f64 * dy);
                    crossings
                        .entry((here.clone(), right.clone()))
                        .or_default()
                        .push(p);
                }
            }
            if iy + 1 < ny {
                let up = at(ix, iy + 1);
                if up != here {
                    let p = (x_min + ix as f64 * dx, y_min + (iy as f64 + 0.5) * dy);
                    crossings
                        .entry((here.clone(), up.clone()))
                        .or_default()
                        .push(p);
                }
            }
        }
    }

    // Each state pair's crossing cloud lies on one line segment (the
    // constant-interaction boundary is straight): summarize it by the
    // extreme points along its principal direction.
    let mut segments = Vec::new();
    for ((from, to), pts) in &crossings {
        if pts.len() < 2 {
            continue;
        }
        let n = pts.len() as f64;
        let cx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let cy = pts.iter().map(|p| p.1).sum::<f64>() / n;
        // Principal direction via the 2x2 covariance.
        let (mut sxx, mut sxy, mut syy) = (0.0, 0.0, 0.0);
        for p in pts {
            let ux = p.0 - cx;
            let uy = p.1 - cy;
            sxx += ux * ux;
            sxy += ux * uy;
            syy += uy * uy;
        }
        // Leading eigenvector of [[sxx, sxy], [sxy, syy]].
        let trace = sxx + syy;
        let det = sxx * syy - sxy * sxy;
        let lambda = 0.5 * trace + (0.25 * trace * trace - det).max(0.0).sqrt();
        let (ex, ey) = if sxy.abs() > 1e-15 {
            let norm = ((lambda - syy).powi(2) + sxy * sxy).sqrt();
            ((lambda - syy) / norm, sxy / norm)
        } else if sxx >= syy {
            (1.0, 0.0)
        } else {
            (0.0, 1.0)
        };
        let mut t_min = f64::INFINITY;
        let mut t_max = f64::NEG_INFINITY;
        for p in pts {
            let t = (p.0 - cx) * ex + (p.1 - cy) * ey;
            t_min = t_min.min(t);
            t_max = t_max.max(t);
        }
        segments.push(BoundarySegment {
            from: from.clone(),
            to: to.clone(),
            start: (cx + t_min * ex, cy + t_min * ey),
            end: (cx + t_max * ex, cy + t_max * ey),
        });
    }
    segments.sort_by_key(|s| (s.from.clone(), s.to.clone()));

    // Triple points: grid plaquettes whose four corners span ≥3 states.
    let mut triple_points = Vec::new();
    for iy in 0..ny - 1 {
        for ix in 0..nx - 1 {
            let mut distinct: Vec<&Vec<u32>> = vec![
                at(ix, iy),
                at(ix + 1, iy),
                at(ix, iy + 1),
                at(ix + 1, iy + 1),
            ];
            distinct.sort();
            distinct.dedup();
            if distinct.len() >= 3 {
                triple_points.push((
                    x_min + (ix as f64 + 0.5) * dx,
                    y_min + (iy as f64 + 0.5) * dy,
                ));
            }
        }
    }
    // Merge adjacent plaquette hits into cluster centroids.
    let merged = merge_clusters(&triple_points, 2.0 * dx.max(dy));

    Ok(Honeycomb {
        segments,
        triple_points: merged,
    })
}

/// Greedy centroid clustering with a distance threshold.
fn merge_clusters(points: &[(f64, f64)], radius: f64) -> Vec<(f64, f64)> {
    let mut clusters: Vec<(f64, f64, usize)> = Vec::new();
    for &(x, y) in points {
        match clusters.iter_mut().find(|(cx, cy, n)| {
            let mx = *cx / *n as f64;
            let my = *cy / *n as f64;
            ((x - mx).powi(2) + (y - my).powi(2)).sqrt() < radius
        }) {
            Some((cx, cy, n)) => {
                *cx += x;
                *cy += y;
                *n += 1;
            }
            None => clusters.push((x, y, 1)),
        }
    }
    clusters
        .into_iter()
        .map(|(cx, cy, n)| (cx / n as f64, cy / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Segments whose `from`/`to` match the given pair (order-sensitive).
    fn between<'a>(
        hc: &'a Honeycomb,
        from: &'a [u32],
        to: &'a [u32],
    ) -> impl Iterator<Item = &'a BoundarySegment> + 'a {
        hc.segments
            .iter()
            .filter(move |s| s.from == from && s.to == to)
    }
    use crate::DeviceBuilder;

    fn setup() -> (CapacitanceModel, ChargeStateSolver, (f64, f64, f64, f64)) {
        let device = DeviceBuilder::double_dot()
            .mutual_capacitance(0.2)
            .build()
            .unwrap();
        let model = device.capacitance_model().clone();
        let (ix, iy) = device
            .as_array()
            .pair_line_intersection(0, &[0.0, 0.0])
            .unwrap();
        let window = (ix - 30.0, iy - 30.0, ix + 25.0, iy + 25.0);
        (model, ChargeStateSolver::default(), window)
    }

    #[test]
    fn finds_the_four_first_states() {
        let (model, solver, window) = setup();
        let hc = trace_honeycomb(&model, &solver, window, 120).unwrap();
        let mut state_pairs: Vec<(Vec<u32>, Vec<u32>)> = hc
            .segments
            .iter()
            .map(|s| (s.from.clone(), s.to.clone()))
            .collect();
        state_pairs.sort();
        state_pairs.dedup();
        // At minimum: (0,0)|(1,0), (0,0)|(0,1), (1,0)|(1,1), (0,1)|(1,1).
        assert!(
            state_pairs.len() >= 4,
            "only {} boundary pairs found: {state_pairs:?}",
            state_pairs.len()
        );
        assert!(between(&hc, &[0, 0], &[1, 0]).next().is_some());
        assert!(between(&hc, &[0, 0], &[0, 1]).next().is_some());
    }

    #[test]
    fn boundary_slopes_match_analytic_transition_slopes() {
        let (model, solver, window) = setup();
        let hc = trace_honeycomb(&model, &solver, window, 200).unwrap();
        let steep_analytic = model.transition_slope(0, 0, 1).unwrap();
        let shallow_analytic = model.transition_slope(1, 0, 1).unwrap();

        let steep = between(&hc, &[0, 0], &[1, 0])
            .max_by(|a, b| a.length().partial_cmp(&b.length()).unwrap())
            .expect("steep boundary exists");
        let shallow = between(&hc, &[0, 0], &[0, 1])
            .max_by(|a, b| a.length().partial_cmp(&b.length()).unwrap())
            .expect("shallow boundary exists");

        let ms = steep.slope().unwrap_or(f64::NEG_INFINITY);
        let mh = shallow.slope().expect("shallow line is not vertical");
        assert!(
            (ms - steep_analytic).abs() < 0.15 * steep_analytic.abs(),
            "steep {ms} vs analytic {steep_analytic}"
        );
        assert!(
            (mh - shallow_analytic).abs() < 0.05,
            "shallow {mh} vs analytic {shallow_analytic}"
        );
    }

    #[test]
    fn interdot_line_has_positive_slope() {
        // With finite mutual capacitance the (1,0)↔(0,1) boundary exists
        // between the two triple points and runs with positive slope.
        let (model, solver, window) = setup();
        let hc = trace_honeycomb(&model, &solver, window, 200).unwrap();
        let interdot: Vec<&BoundarySegment> = hc
            .segments
            .iter()
            .filter(|s| {
                (s.from == vec![1, 0] && s.to == vec![0, 1])
                    || (s.from == vec![0, 1] && s.to == vec![1, 0])
            })
            .collect();
        assert!(!interdot.is_empty(), "no interdot segment found");
        for s in interdot {
            if let Some(m) = s.slope() {
                assert!(m > 0.0, "interdot slope {m} should be positive");
            }
        }
    }

    #[test]
    fn triple_points_come_in_pairs() {
        let (model, solver, window) = setup();
        let hc = trace_honeycomb(&model, &solver, window, 200).unwrap();
        // The anticrossing at the (0,0)/(1,0)/(0,1)/(1,1) corner has two
        // triple points separated by the interdot gap.
        assert!(
            hc.triple_points.len() >= 2,
            "found {} triple points",
            hc.triple_points.len()
        );
        // The lower triple point coincides with the analytic pairwise
        // crossing; the upper one is displaced up-right along the interdot
        // line by the mutual-capacitance gap.
        let device = DeviceBuilder::double_dot()
            .mutual_capacitance(0.2)
            .build()
            .unwrap();
        let (ix, iy) = device
            .as_array()
            .pair_line_intersection(0, &[0.0, 0.0])
            .unwrap();
        let dist = |p: &(f64, f64)| ((p.0 - ix).powi(2) + (p.1 - iy).powi(2)).sqrt();
        let nearest = hc
            .triple_points
            .iter()
            .map(dist)
            .fold(f64::INFINITY, f64::min);
        assert!(
            nearest < 2.0,
            "nearest triple point {nearest:.2} from the crossing"
        );
        let upper = hc
            .triple_points
            .iter()
            .find(|p| p.0 > ix + 2.0 && p.1 > iy + 2.0);
        assert!(
            upper.is_some(),
            "no displaced upper triple point: {:?}",
            hc.triple_points
        );
    }

    #[test]
    fn zero_mutual_capacitance_degenerates_to_a_cross() {
        // With C_m = 0 the interdot segment vanishes: (1,0)↔(0,1)
        // boundaries should be absent or tiny.
        let device = DeviceBuilder::double_dot()
            .mutual_capacitance(0.0)
            .build()
            .unwrap();
        let model = device.capacitance_model().clone();
        let (ix, iy) = device
            .as_array()
            .pair_line_intersection(0, &[0.0, 0.0])
            .unwrap();
        let window = (ix - 25.0, iy - 25.0, ix + 20.0, iy + 20.0);
        let hc = trace_honeycomb(&model, &ChargeStateSolver::default(), window, 160).unwrap();
        let interdot_len: f64 = hc
            .segments
            .iter()
            .filter(|s| {
                (s.from == vec![1, 0] && s.to == vec![0, 1])
                    || (s.from == vec![0, 1] && s.to == vec![1, 0])
            })
            .map(|s| s.length())
            .sum();
        assert!(
            interdot_len < 2.0,
            "interdot length {interdot_len} with Cm = 0"
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        let (model, solver, _) = setup();
        assert!(trace_honeycomb(&model, &solver, (0.0, 0.0, 0.0, 10.0), 100).is_err());
        assert!(trace_honeycomb(&model, &solver, (0.0, 0.0, 10.0, 10.0), 4).is_err());
        let triple = DeviceBuilder::linear_array(3).build_array().unwrap();
        assert!(trace_honeycomb(
            triple.capacitance_model(),
            &solver,
            (0.0, 0.0, 10.0, 10.0),
            50
        )
        .is_err());
    }

    #[test]
    fn segment_helpers() {
        let s = BoundarySegment {
            from: vec![0, 0],
            to: vec![1, 0],
            start: (0.0, 0.0),
            end: (3.0, 4.0),
        };
        assert_eq!(s.length(), 5.0);
        assert!((s.slope().unwrap() - 4.0 / 3.0).abs() < 1e-12);
        let v = BoundarySegment {
            start: (1.0, 0.0),
            end: (1.0, 5.0),
            ..s
        };
        assert!(v.slope().is_none());
    }
}
