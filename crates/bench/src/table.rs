//! Table rendering for the figure catalog: aligned text for the
//! terminal, CSV for `fasttrack figure --out`, and Markdown for the
//! generated EXPERIMENTS.md.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub(crate) fn new<S: AsRef<str>>(title: &str, headers: &[S]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count.
    pub(crate) fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// The title (for figure tables, the slug that is the CSV stem).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:<w$}  ", c, w = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.min(120)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders CSV (headers + rows, comma-separated, quotes on demand).
    pub fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Renders a GitHub-flavoured Markdown table under a bold title.
    pub(crate) fn to_markdown(&self) -> String {
        let line = |cells: &[String]| format!("| {} |", cells.join(" | "));
        let mut out = format!("**{}**\n\n{}\n", self.title, line(&self.headers));
        let _ = writeln!(out, "|{}", "---|".repeat(self.headers.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row));
        }
        out
    }

    /// Table cells (headers included), for deciding whether a table is
    /// small enough to print inline.
    pub(crate) fn cells(&self) -> usize {
        self.headers.len() * (self.rows.len() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.add_row(vec!["alpha".into(), "1".into()]);
        t.add_row(vec!["b".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("alpha"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("x", &["a,b", "c"]);
        t.add_row(vec!["v,1".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("\"a,b\",c"));
        assert!(csv.contains("\"v,1\",plain"));
    }

    #[test]
    fn markdown_has_a_separator_row_per_column() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.add_row(vec!["1".into(), "2".into()]);
        assert_eq!(
            t.to_markdown(),
            "**Demo**\n\n| a | b |\n|---|---|\n| 1 | 2 |\n"
        );
        assert_eq!(t.cells(), 4);
    }
}
