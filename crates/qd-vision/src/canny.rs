//! Canny edge detection: blur → Sobel → non-maximum suppression →
//! double-threshold hysteresis.

use crate::blur::gaussian_blur;
use crate::sobel::sobel;
use crate::VisionError;
use qd_csd::{Csd, Pixel};

/// Parameters for [`canny`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CannyParams {
    /// Gaussian pre-blur kernel size (odd).
    pub blur_ksize: usize,
    /// Gaussian pre-blur sigma (pixels).
    pub blur_sigma: f64,
    /// Low hysteresis threshold as a fraction of the maximum gradient
    /// magnitude (adaptive mode).
    pub low_fraction: f64,
    /// High hysteresis threshold as a fraction of the maximum gradient
    /// magnitude (adaptive mode).
    pub high_fraction: f64,
    /// Absolute hysteresis thresholds `(low, high)` in gradient-magnitude
    /// units. When set, these override the fractional thresholds — this
    /// is how OpenCV's `Canny(low, high)` behaves, and it is what makes
    /// the baseline starve on faint diagrams (the paper's CSD 7).
    pub absolute_thresholds: Option<(f64, f64)>,
}

impl Default for CannyParams {
    fn default() -> Self {
        Self {
            blur_ksize: 5,
            blur_sigma: 1.2,
            low_fraction: 0.10,
            high_fraction: 0.25,
            absolute_thresholds: None,
        }
    }
}

/// A binary edge map, same layout as the source diagram (row 0 = bottom).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeMap {
    width: usize,
    height: usize,
    edges: Vec<bool>,
}

impl EdgeMap {
    /// Map width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Map height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Whether pixel `(x, y)` is an edge.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is out of bounds.
    pub fn is_edge(&self, x: usize, y: usize) -> bool {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.edges[y * self.width + x]
    }

    /// Number of edge pixels.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|&&e| e).count()
    }

    /// All edge pixels in row-major order.
    pub fn edge_pixels(&self) -> Vec<Pixel> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, &e)| e)
            .map(|(i, _)| Pixel::new(i % self.width, i / self.width))
            .collect()
    }
}

/// Runs Canny edge detection on a diagram.
///
/// # Errors
///
/// * [`VisionError::InvalidParameter`] for bad blur parameters or
///   thresholds outside `0 < low ≤ high ≤ 1`.
/// * [`VisionError::ImageTooSmall`] for images smaller than 3×3.
pub fn canny(csd: &Csd, params: CannyParams) -> Result<EdgeMap, VisionError> {
    if !(params.low_fraction > 0.0
        && params.low_fraction <= params.high_fraction
        && params.high_fraction <= 1.0)
    {
        return Err(VisionError::InvalidParameter {
            name: "low_fraction/high_fraction",
            constraint: "must satisfy 0 < low <= high <= 1",
        });
    }
    if let Some((lo, hi)) = params.absolute_thresholds {
        if !(lo > 0.0 && lo <= hi) {
            return Err(VisionError::InvalidParameter {
                name: "absolute_thresholds",
                constraint: "must satisfy 0 < low <= high",
            });
        }
    }
    let blurred = gaussian_blur(csd, params.blur_ksize, params.blur_sigma)?;
    let grad = sobel(&blurred)?;
    let (w, h) = (grad.width(), grad.height());
    let max_mag = grad.max_magnitude();
    if max_mag == 0.0 {
        // A perfectly flat image has no edges; return an empty map rather
        // than erroring so callers can distinguish "flat" from "misuse".
        return Ok(EdgeMap {
            width: w,
            height: h,
            edges: vec![false; w * h],
        });
    }
    let (low, high) = match params.absolute_thresholds {
        Some((lo, hi)) => (lo, hi),
        None => (
            params.low_fraction * max_mag,
            params.high_fraction * max_mag,
        ),
    };

    // Non-maximum suppression: quantize direction to 4 sectors and keep
    // pixels that dominate both neighbours along the gradient.
    let mut nms = vec![0.0; w * h];
    for y in 0..h {
        for x in 0..w {
            let m = grad.magnitude(x, y);
            if m == 0.0 {
                continue;
            }
            let theta = grad.direction(x, y);
            // Sector in [0, 180): 0 = horizontal gradient (vertical edge).
            let deg = theta.to_degrees().rem_euclid(180.0);
            let (dx, dy): (isize, isize) = if !(22.5..157.5).contains(&deg) {
                (1, 0)
            } else if deg < 67.5 {
                (1, 1)
            } else if deg < 112.5 {
                (0, 1)
            } else {
                (-1, 1)
            };
            let sample = |xx: isize, yy: isize| -> f64 {
                if xx < 0 || yy < 0 || xx >= w as isize || yy >= h as isize {
                    0.0
                } else {
                    grad.magnitude(xx as usize, yy as usize)
                }
            };
            let fwd = sample(x as isize + dx, y as isize + dy);
            let back = sample(x as isize - dx, y as isize - dy);
            if m >= fwd && m >= back {
                nms[y * w + x] = m;
            }
        }
    }

    // Hysteresis: strong pixels seed a flood fill through weak pixels.
    const UNVISITED: u8 = 0;
    const WEAK: u8 = 1;
    const STRONG: u8 = 2;
    let mut class = vec![UNVISITED; w * h];
    let mut stack = Vec::new();
    for (i, &m) in nms.iter().enumerate() {
        if m >= high {
            class[i] = STRONG;
            stack.push(i);
        } else if m >= low {
            class[i] = WEAK;
        }
    }
    let mut edges = vec![false; w * h];
    while let Some(i) = stack.pop() {
        if edges[i] {
            continue;
        }
        edges[i] = true;
        let x = (i % w) as isize;
        let y = (i / w) as isize;
        for dy in -1..=1 {
            for dx in -1..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let xx = x + dx;
                let yy = y + dy;
                if xx < 0 || yy < 0 || xx >= w as isize || yy >= h as isize {
                    continue;
                }
                let j = yy as usize * w + xx as usize;
                if !edges[j] && class[j] != UNVISITED {
                    stack.push(j);
                }
            }
        }
    }

    Ok(EdgeMap {
        width: w,
        height: h,
        edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_csd::VoltageGrid;

    fn grid(w: usize, h: usize) -> VoltageGrid {
        VoltageGrid::new(0.0, 0.0, 1.0, w, h).unwrap()
    }

    fn step_csd() -> Csd {
        Csd::from_fn(grid(32, 32), |v1, _| if v1 < 16.0 { 5.0 } else { 2.0 }).unwrap()
    }

    #[test]
    fn flat_image_yields_empty_map() {
        let c = Csd::constant(grid(16, 16), 1.0).unwrap();
        let e = canny(&c, CannyParams::default()).unwrap();
        assert_eq!(e.edge_count(), 0);
    }

    #[test]
    fn vertical_step_detected_as_vertical_edge_line() {
        let e = canny(&step_csd(), CannyParams::default()).unwrap();
        assert!(e.edge_count() > 0);
        // All edge pixels should hug the step column.
        for p in e.edge_pixels() {
            assert!(
                (14..=17).contains(&p.x),
                "edge pixel at x = {} far from the step",
                p.x
            );
        }
        // Edge should span most rows.
        let rows: std::collections::HashSet<usize> = e.edge_pixels().iter().map(|p| p.y).collect();
        assert!(rows.len() >= 28, "edge spans only {} rows", rows.len());
    }

    #[test]
    fn nms_thins_edges() {
        let e = canny(&step_csd(), CannyParams::default()).unwrap();
        // At most ~2 pixels per row after non-max suppression.
        let mut per_row = std::collections::HashMap::new();
        for p in e.edge_pixels() {
            *per_row.entry(p.y).or_insert(0usize) += 1;
        }
        for (&row, &count) in &per_row {
            assert!(count <= 2, "row {row} has {count} edge pixels");
        }
    }

    #[test]
    fn diagonal_edge_detected() {
        let c = Csd::from_fn(
            grid(32, 32),
            |v1, v2| if v1 + v2 < 30.0 { 4.0 } else { 1.0 },
        )
        .unwrap();
        let e = canny(&c, CannyParams::default()).unwrap();
        assert!(e.edge_count() >= 20);
        for p in e.edge_pixels() {
            let d = (p.x as f64 + p.y as f64 - 30.0).abs();
            assert!(d <= 3.0, "edge pixel {p} too far from the diagonal");
        }
    }

    #[test]
    fn hysteresis_connects_weak_to_strong() {
        // A step with a weak section: make the contrast fade along y.
        let c = Csd::from_fn(grid(32, 32), |v1, v2| {
            let contrast = 1.0 + 3.0 * (v2 / 31.0);
            if v1 < 16.0 {
                contrast
            } else {
                0.0
            }
        })
        .unwrap();
        let e = canny(
            &c,
            CannyParams {
                low_fraction: 0.05,
                high_fraction: 0.5,
                ..CannyParams::default()
            },
        )
        .unwrap();
        // The weak (low-contrast) bottom rows connect to the strong top.
        let rows: std::collections::HashSet<usize> = e.edge_pixels().iter().map(|p| p.y).collect();
        assert!(
            rows.iter().any(|&r| r < 8),
            "weak rows not linked by hysteresis"
        );
    }

    #[test]
    fn rejects_bad_thresholds() {
        let c = step_csd();
        let bad = CannyParams {
            low_fraction: 0.5,
            high_fraction: 0.2,
            ..CannyParams::default()
        };
        assert!(canny(&c, bad).is_err());
        let zero = CannyParams {
            low_fraction: 0.0,
            ..CannyParams::default()
        };
        assert!(canny(&c, zero).is_err());
    }

    #[test]
    fn edge_map_accessors() {
        let e = canny(&step_csd(), CannyParams::default()).unwrap();
        assert_eq!(e.width(), 32);
        assert_eq!(e.height(), 32);
        let pixels = e.edge_pixels();
        assert_eq!(pixels.len(), e.edge_count());
        let p = pixels[0];
        assert!(e.is_edge(p.x, p.y));
    }
}
