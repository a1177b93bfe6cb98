//! CSV serialization of charge stability diagrams.
//!
//! A simple self-describing text format:
//!
//! ```text
//! # csd v1
//! # x0 y0 delta width height
//! 0.0 0.0 1.0 3 2
//! 1.0 2.0 3.0
//! 4.0 5.0 6.0
//! ```
//!
//! Row 0 (bottom of the diagram) is written first. The format is meant for
//! dataset archiving and cross-tool exchange, and it is the only
//! serialization [`Csd`] has.

use crate::{Csd, CsdError, VoltageGrid};

/// Magic first line of the CSV format.
const MAGIC: &str = "# csd v1";

/// Serializes a diagram to the CSV format described in the module docs.
pub fn to_csv(csd: &Csd) -> String {
    let g = csd.grid();
    let (x0, y0) = g.origin();
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str("# x0 y0 delta width height\n");
    out.push_str(&format!(
        "{} {} {} {} {}\n",
        x0,
        y0,
        g.delta(),
        g.width(),
        g.height()
    ));
    for y in 0..g.height() {
        let row: Vec<String> = (0..g.width())
            .map(|x| format!("{}", csd.at(x, y)))
            .collect();
        out.push_str(&row.join(" "));
        out.push('\n');
    }
    out
}

/// Parses a diagram from the CSV format.
///
/// # Errors
///
/// Returns [`CsdError::Parse`] for a malformed header, wrong magic, bad
/// numbers, or inconsistent row lengths; [`CsdError::InvalidGrid`] /
/// [`CsdError::DataLengthMismatch`] if the header describes an impossible
/// grid.
pub fn from_csv(text: &str) -> Result<Csd, CsdError> {
    let mut lines = text.lines().enumerate();

    let (n, first) = lines.next().ok_or_else(|| CsdError::Parse {
        line: 1,
        message: "empty input".into(),
    })?;
    if first.trim() != MAGIC {
        return Err(CsdError::Parse {
            line: n + 1,
            message: format!("expected magic `{MAGIC}`"),
        });
    }

    // Skip comment lines until the header numbers.
    let (hline_no, header) = loop {
        let (n, l) = lines.next().ok_or_else(|| CsdError::Parse {
            line: 2,
            message: "missing header".into(),
        })?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        break (n + 1, t.to_string());
    };

    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 5 {
        return Err(CsdError::Parse {
            line: hline_no,
            message: format!("header needs 5 fields, got {}", fields.len()),
        });
    }
    let parse_f = |s: &str, line: usize| -> Result<f64, CsdError> {
        s.parse::<f64>().map_err(|e| CsdError::Parse {
            line,
            message: format!("bad float `{s}`: {e}"),
        })
    };
    let parse_u = |s: &str, line: usize| -> Result<usize, CsdError> {
        s.parse::<usize>().map_err(|e| CsdError::Parse {
            line,
            message: format!("bad integer `{s}`: {e}"),
        })
    };
    let x0 = parse_f(fields[0], hline_no)?;
    let y0 = parse_f(fields[1], hline_no)?;
    let delta = parse_f(fields[2], hline_no)?;
    let width = parse_u(fields[3], hline_no)?;
    let height = parse_u(fields[4], hline_no)?;
    let grid = VoltageGrid::new(x0, y0, delta, width, height)?;

    let mut data = Vec::with_capacity(grid.len());
    for (n, l) in lines {
        let t = l.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let before = data.len();
        for tok in t.split_whitespace() {
            data.push(parse_f(tok, n + 1)?);
        }
        if data.len() - before != width {
            return Err(CsdError::Parse {
                line: n + 1,
                message: format!("row has {} values, expected {width}", data.len() - before),
            });
        }
    }
    Csd::from_data(grid, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csd {
        let g = VoltageGrid::new(1.0, 2.0, 0.5, 3, 2).unwrap();
        Csd::from_data(g, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn round_trip() {
        let c = sample();
        let text = to_csv(&c);
        let back = from_csv(&text).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn round_trip_preserves_grid() {
        let back = from_csv(&to_csv(&sample())).unwrap();
        assert_eq!(back.grid().origin(), (1.0, 2.0));
        assert_eq!(back.grid().delta(), 0.5);
        assert_eq!(back.size(), (3, 2));
    }

    #[test]
    fn rejects_missing_magic() {
        assert!(matches!(
            from_csv("1 2 3 4 5\n"),
            Err(CsdError::Parse { line: 1, .. })
        ));
        assert!(from_csv("").is_err());
    }

    #[test]
    fn rejects_bad_header() {
        let text = "# csd v1\n1 2 3 4\n";
        assert!(matches!(from_csv(text), Err(CsdError::Parse { .. })));
    }

    #[test]
    fn rejects_bad_float() {
        let text = "# csd v1\n0 0 1 2 1\n1.0 oops\n";
        let err = from_csv(text).unwrap_err();
        assert!(err.to_string().contains("oops"));
    }

    #[test]
    fn rejects_ragged_rows() {
        let text = "# csd v1\n0 0 1 3 2\n1 2 3\n4 5\n";
        assert!(matches!(from_csv(text), Err(CsdError::Parse { .. })));
    }

    #[test]
    fn rejects_wrong_total_rows() {
        let text = "# csd v1\n0 0 1 3 2\n1 2 3\n";
        assert!(matches!(
            from_csv(text),
            Err(CsdError::DataLengthMismatch { .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# csd v1\n# a comment\n\n0 0 1 2 2\n1 2\n# mid comment\n\n3 4\n";
        let c = from_csv(text).unwrap();
        assert_eq!(c.at(0, 0), 1.0);
        assert_eq!(c.at(1, 1), 4.0);
    }
}
