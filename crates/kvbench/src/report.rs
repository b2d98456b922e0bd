//! Aligned text tables for the experiment reports.
//!
//! The experiments render the paper's tables and figure series as plain
//! text; this module does the layout.

use std::fmt;

/// A simple column-aligned table.
///
/// # Example
///
/// ```
/// use kvssd_kvbench::Table;
///
/// let mut t = Table::new(&["system", "latency (us)"]);
/// t.row(&["KV-SSD", "42.0"]);
/// t.row(&["block", "16.0"]);
/// let s = t.to_string();
/// assert!(s.contains("KV-SSD"));
/// assert!(s.lines().count() >= 4); // header + rule + 2 rows
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "a table needs columns");
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header"
        );
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{c:<width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let rule: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        writeln!(f, "{}", "-".repeat(rule))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a f64 with 2 decimals (table cells).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio as `N.NNx`.
pub fn ratio(subject: f64, baseline: f64) -> String {
    if baseline == 0.0 {
        return "-".to_string();
    }
    format!("{:.2}x", subject / baseline)
}

/// Formats a byte size compactly (KiB/MiB/GiB).
pub fn bytes(n: u64) -> String {
    const K: u64 = 1024;
    if n >= K * K * K {
        format!("{:.2}GiB", n as f64 / (K * K * K) as f64)
    } else if n >= K * K {
        format!("{:.2}MiB", n as f64 / (K * K) as f64)
    } else if n >= K {
        format!("{:.2}KiB", n as f64 / K as f64)
    } else {
        format!("{n}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["xxxxxxxx", "1"]);
        t.row(&["y", "2"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data rows have the same second-column start.
        let col = lines[2].find('1').unwrap();
        assert_eq!(lines[3].find('2').unwrap(), col);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(ratio(5.0, 2.0), "2.50x");
        assert_eq!(ratio(5.0, 0.0), "-");
        assert_eq!(bytes(512), "512B");
        assert_eq!(bytes(2048), "2.00KiB");
        assert_eq!(bytes(3 * 1024 * 1024), "3.00MiB");
        assert_eq!(bytes(5 * 1024 * 1024 * 1024), "5.00GiB");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }
}
