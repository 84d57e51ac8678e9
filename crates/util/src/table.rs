//! Fixed-width table rendering for the experiment harness.
//!
//! The experiment binaries regenerate the quantitative claims of the paper
//! as tables; this module renders them with aligned columns so the output in
//! DESIGN.md's experiment index is directly comparable across runs.

use std::fmt;

/// A simple fixed-width text table.
///
/// Columns are declared once with [`Table::new`]; rows are appended with
/// [`Table::add_row`]. Rendering pads every cell to the widest entry of its
/// column. Numeric-looking cells are right-aligned, all others left-aligned.
///
/// # Examples
///
/// ```
/// use dsg_util::Table;
///
/// let mut t = Table::new(&["n", "edges", "ratio"]);
/// t.add_row(&["100", "5230", "1.13"]);
/// t.add_row(&["1000", "81021", "0.97"]);
/// let s = t.to_string();
/// assert!(s.contains("edges"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: AsRef<str>>(headers: &[S]) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Self {
            headers: headers.iter().map(|h| h.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of cells.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the number of columns.
    pub fn add_row<S: AsRef<str>>(&mut self, cells: &[S]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} does not match column count {}",
            cells.len(),
            self.headers.len()
        );
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        widths
    }
}

fn looks_numeric(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E' | 'x' | '%'))
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (cell, w) in cells.iter().zip(&widths) {
                if looks_numeric(cell) {
                    write!(f, " {cell:>w$} |", w = w)?;
                } else {
                    write!(f, " {cell:<w$} |", w = w)?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_separator_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.add_row(&["1", "hello"]);
        let out = t.to_string();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("|--"));
        assert!(lines[2].contains("hello"));
    }

    #[test]
    fn columns_align_to_widest() {
        let mut t = Table::new(&["col"]);
        t.add_row(&["x"]);
        t.add_row(&["longer-cell"]);
        let out = t.to_string();
        let widths: Vec<usize> = out.lines().map(str::len).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "all lines same width: {out}"
        );
    }

    #[test]
    fn numeric_cells_right_align() {
        let mut t = Table::new(&["value"]);
        t.add_row(&["7"]);
        let out = t.to_string();
        assert!(out.lines().nth(2).unwrap().contains("     7"), "{out}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.add_row(&["only-one"]);
    }

    #[test]
    fn row_count_tracks() {
        let mut t = Table::new(&["a"]);
        assert_eq!(t.row_count(), 0);
        t.add_row(&["1"]);
        assert_eq!(t.row_count(), 1);
    }
}
