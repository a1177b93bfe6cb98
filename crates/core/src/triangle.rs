//! The critical triangular region of §4.2.
//!
//! Device physics constrains both transition lines to negative slopes
//! with the (0,0)→(1,0) line steeper than the (0,0)→(0,1) line. Given an
//! anchor on each line — `a1` upper-left on the shallow line, `a2`
//! lower-right on the steep line — both lines are confined to the right
//! triangle with vertices `a1`, `a2` and the right-angle corner
//! `(a2.x, a1.y)` (upper-right). Only pixels inside this triangle need to
//! be probed.
//!
//! Membership uses the pixel centre, as in the paper: a pixel `(x, y)` is
//! inside iff it lies on or right/above the chord `a1`–`a2`, at
//! `a1.y ≥ y ≥ a2.y` and `a1.x ≤ x ≤ a2.x`.

use qd_csd::Pixel;

/// The shrinking critical region: a right triangle spanned by the two
/// anchor points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalRegion {
    /// Upper-left anchor (on the shallow (0,0)→(0,1) line).
    pub a1: Pixel,
    /// Lower-right anchor (on the steep (0,0)→(1,0) line).
    pub a2: Pixel,
}

impl CriticalRegion {
    /// Creates the region. Returns `None` for degenerate anchor order
    /// (`a1` must be strictly up-left of `a2`).
    pub fn new(a1: Pixel, a2: Pixel) -> Option<Self> {
        if a1.x < a2.x && a1.y > a2.y {
            Some(Self { a1, a2 })
        } else {
            None
        }
    }

    /// The right-angle vertex `(a2.x, a1.y)` (upper-right corner).
    pub fn corner(&self) -> Pixel {
        Pixel::new(self.a2.x, self.a1.y)
    }

    /// `x` coordinate of the chord (hypotenuse) `a1`–`a2` at height `y`
    /// (continuous).
    fn chord_x_at(&self, y: f64) -> f64 {
        let (x1, y1) = self.a1.to_f64();
        let (x2, y2) = self.a2.to_f64();
        x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    }

    /// `y` coordinate of the chord at column `x` (continuous).
    fn chord_y_at(&self, x: f64) -> f64 {
        let (x1, y1) = self.a1.to_f64();
        let (x2, y2) = self.a2.to_f64();
        y1 + (x - x1) * (y2 - y1) / (x2 - x1)
    }

    /// Inclusive pixel range `[x_lo, x_hi]` inside the triangle on row
    /// `y`, or `None` if the row is outside `a2.y ..= a1.y` or the
    /// segment is empty.
    pub fn row_range(&self, y: usize) -> Option<(usize, usize)> {
        if y < self.a2.y || y > self.a1.y {
            return None;
        }
        let chord = self.chord_x_at(y as f64);
        let x_lo = (chord - 1e-9).ceil().max(self.a1.x as f64) as usize;
        let x_hi = self.a2.x;
        if x_lo > x_hi {
            None
        } else {
            Some((x_lo, x_hi))
        }
    }

    /// Inclusive pixel range `[y_lo, y_hi]` inside the triangle on column
    /// `x`, or `None` if the column is outside `a1.x ..= a2.x` or the
    /// segment is empty.
    pub fn col_range(&self, x: usize) -> Option<(usize, usize)> {
        if x < self.a1.x || x > self.a2.x {
            return None;
        }
        let chord = self.chord_y_at(x as f64);
        let y_lo = (chord - 1e-9).ceil().max(self.a2.y as f64) as usize;
        let y_hi = self.a1.y;
        if y_lo > y_hi {
            None
        } else {
            Some((y_lo, y_hi))
        }
    }

    /// Whether pixel `(x, y)` is inside the triangle (boundary included).
    pub fn contains(&self, x: usize, y: usize) -> bool {
        match self.row_range(y) {
            Some((lo, hi)) => x >= lo && x <= hi,
            None => false,
        }
    }

    /// Total pixels inside the triangle.
    pub fn area_pixels(&self) -> usize {
        (self.a2.y..=self.a1.y)
            .filter_map(|y| self.row_range(y).map(|(lo, hi)| hi - lo + 1))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 5 example, converted to bottom-origin coordinates: the
    /// paper's (row 1, col 0) fixed anchor with rows counted from the top
    /// of a 15-row grid is (x=0, y=13) here, and (row 11, col 12) is
    /// (x=12, y=3).
    fn fig5_region() -> CriticalRegion {
        CriticalRegion::new(Pixel::new(0, 13), Pixel::new(12, 3)).unwrap()
    }

    #[test]
    fn construction_requires_up_left_down_right() {
        assert!(CriticalRegion::new(Pixel::new(0, 10), Pixel::new(10, 0)).is_some());
        assert!(CriticalRegion::new(Pixel::new(10, 0), Pixel::new(0, 10)).is_none());
        assert!(CriticalRegion::new(Pixel::new(0, 0), Pixel::new(10, 10)).is_none());
        assert!(CriticalRegion::new(Pixel::new(5, 10), Pixel::new(5, 0)).is_none());
    }

    #[test]
    fn corner_is_upper_right() {
        assert_eq!(fig5_region().corner(), Pixel::new(12, 13));
    }

    #[test]
    fn fig5_row_10_probes_two_points() {
        // Paper's example: sweeping row 10 (top-origin) visits (10,12) and
        // (10,11); with the lower anchor at (11,12) → our anchor (12, 4),
        // row y = 4 in bottom-origin 15-row coordinates.
        let region = CriticalRegion::new(Pixel::new(0, 13), Pixel::new(12, 4)).unwrap();
        let (lo, hi) = region.row_range(5).unwrap(); // paper row 10 → y = 14 - 10 = ...
                                                     // Chord from (0,13) to (12,4) at y=5: x = 0 + (5-13)*(12)/(4-13) = 10.67 → lo = 11.
        assert_eq!((lo, hi), (11, 12));
    }

    #[test]
    fn anchors_are_inside() {
        let r = fig5_region();
        assert!(r.contains(r.a1.x, r.a1.y));
        assert!(r.contains(r.a2.x, r.a2.y));
        assert!(r.contains(r.corner().x, r.corner().y));
    }

    #[test]
    fn points_left_of_chord_are_outside() {
        let r = fig5_region();
        // Midpoint of the chord, one pixel to the left: outside.
        let mid_y = 8;
        let chord = r.chord_x_at(mid_y as f64);
        assert!(!r.contains((chord - 1.5) as usize, mid_y));
        assert!(r.contains(chord.ceil() as usize, mid_y));
    }

    #[test]
    fn rows_outside_anchor_band_are_none() {
        let r = fig5_region();
        assert!(r.row_range(2).is_none());
        assert!(r.row_range(14).is_none());
        assert!(r.col_range(13).is_none());
    }

    #[test]
    fn row_ranges_shrink_toward_the_lower_anchor() {
        let r = fig5_region();
        // Near a2's row the in-triangle segment is short; near a1's row it
        // spans almost the full width.
        let (lo_low, hi_low) = r.row_range(4).unwrap();
        let (lo_high, hi_high) = r.row_range(12).unwrap();
        assert!(hi_low - lo_low < hi_high - lo_high);
        assert_eq!(hi_low, 12);
        assert_eq!(hi_high, 12);
    }

    #[test]
    fn col_ranges_shrink_toward_the_left_anchor() {
        let r = fig5_region();
        let near_left = r.col_range(1).unwrap();
        let near_right = r.col_range(11).unwrap();
        assert!(near_left.1 - near_left.0 < near_right.1 - near_right.0);
        assert_eq!(near_left.1, 13);
    }

    #[test]
    fn area_counts_triangle_pixels() {
        let r = CriticalRegion::new(Pixel::new(0, 4), Pixel::new(4, 0)).unwrap();
        // 5x5 grid, chord is the anti-diagonal: on-or-above-diagonal pixels
        // of the upper-right triangle = 15.
        assert_eq!(r.area_pixels(), 15);
    }

    #[test]
    fn chord_interpolation_endpoints() {
        let r = fig5_region();
        assert!((r.chord_x_at(13.0) - 0.0).abs() < 1e-12);
        assert!((r.chord_x_at(3.0) - 12.0).abs() < 1e-12);
        assert!((r.chord_y_at(0.0) - 13.0).abs() < 1e-12);
        assert!((r.chord_y_at(12.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn contains_matches_row_and_col_ranges() {
        let r = fig5_region();
        for y in 0..15 {
            for x in 0..15 {
                let by_row = r.contains(x, y);
                let by_col = match r.col_range(x) {
                    Some((lo, hi)) => y >= lo && y <= hi,
                    None => false,
                };
                assert_eq!(by_row, by_col, "mismatch at ({x}, {y})");
            }
        }
    }
}
