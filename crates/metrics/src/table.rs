//! Plain-text and CSV table rendering for experiment output.

use std::fmt::Write as _;

/// A simple rectangular table: a header row plus data rows of equal width.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header width.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Convenience: append a row of displayable cells.
    pub fn row<D: std::fmt::Display>(&mut self, cells: &[D]) {
        self.push_row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned monospace table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let line = |out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let _ = write!(out, "+{}", "-".repeat(w + 2));
                if i + 1 == widths.len() {
                    let _ = writeln!(out, "+");
                }
            }
        };
        line(&mut out);
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(out, "| {:width$} ", h, width = widths[i]);
        }
        let _ = writeln!(out, "|");
        line(&mut out);
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                let _ = write!(out, "| {:>width$} ", c, width = widths[i]);
            }
            let _ = writeln!(out, "|");
        }
        line(&mut out);
        out
    }

    /// Render as CSV (RFC-4180 quoting for cells containing separators).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| field(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["n", "value"]);
        t.row(&["5", "0.489"]);
        t.row(&["40", "13.547"]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("| n  | value  |"), "{s}");
        assert!(s.contains("| 40 | 13.547 |"), "{s}");
    }

    #[test]
    fn csv_round_trip_with_quoting() {
        let mut t = Table::new("", &["a", "b"]);
        t.push_row(vec!["1,5".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"1,5\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new("", &["x"]);
        assert!(t.is_empty());
        t.row(&["1"]);
        assert_eq!(t.len(), 1);
    }
}
