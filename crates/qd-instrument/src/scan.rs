//! Acquisition scan patterns for full-window measurements.
//!
//! The order in which a full CSD is rastered matters on real hardware:
//! drift accumulates along the probe sequence, so a row-major raster
//! leaves horizontal streaks, a serpentine halves the voltage slew
//! between consecutive points, and a column-major raster rotates the
//! streaks by 90°. The baseline's full acquisition takes a pattern so
//! these effects can be studied (and so the dataset generator's raster
//! convention is explicit rather than implicit).

/// The order a full-window acquisition visits pixels in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanPattern {
    /// Row-major, each row left → right (the common default; what the
    /// dataset generator uses).
    #[default]
    RowMajorRaster,
    /// Row-major, alternating direction per row (minimum DAC slew).
    Serpentine,
    /// Column-major, each column bottom → top.
    ColumnMajorRaster,
}

impl ScanPattern {
    /// The pixel visit order for a window of `width × height` pixels.
    ///
    /// Returned coordinates are `(x, y)` pixel indices; every pixel
    /// appears exactly once.
    pub fn order(&self, width: usize, height: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(width * height);
        match self {
            ScanPattern::RowMajorRaster => {
                for y in 0..height {
                    for x in 0..width {
                        out.push((x, y));
                    }
                }
            }
            ScanPattern::Serpentine => {
                for y in 0..height {
                    if y % 2 == 0 {
                        for x in 0..width {
                            out.push((x, y));
                        }
                    } else {
                        for x in (0..width).rev() {
                            out.push((x, y));
                        }
                    }
                }
            }
            ScanPattern::ColumnMajorRaster => {
                for x in 0..width {
                    for y in 0..height {
                        out.push((x, y));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pattern_visits_each_pixel_once() {
        for p in [
            ScanPattern::RowMajorRaster,
            ScanPattern::Serpentine,
            ScanPattern::ColumnMajorRaster,
        ] {
            let order = p.order(7, 5);
            assert_eq!(order.len(), 35);
            let unique: std::collections::HashSet<_> = order.iter().collect();
            assert_eq!(unique.len(), 35, "{p:?} repeats pixels");
        }
    }

    #[test]
    fn raster_is_row_major() {
        let order = ScanPattern::RowMajorRaster.order(3, 2);
        assert_eq!(order, vec![(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn serpentine_alternates() {
        let order = ScanPattern::Serpentine.order(3, 2);
        assert_eq!(order, vec![(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]);
    }

    #[test]
    fn column_major_is_transposed() {
        let order = ScanPattern::ColumnMajorRaster.order(2, 3);
        assert_eq!(order, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn default_is_raster() {
        assert_eq!(ScanPattern::default(), ScanPattern::RowMajorRaster);
    }
}
