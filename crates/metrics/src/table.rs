//! Plain-text rendering for the experiment harness.

/// A simple left-aligned text table: the harness prints one per paper
/// artifact so runs are diffable against `EXPERIMENTS.md`.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Panics if the width does not match the header.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                if i + 1 < ncols {
                    line.push_str(&" ".repeat(widths[i] - cell.len()));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let rule_len = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["cap", "SLURM", "Penelope"]);
        t.row(vec!["60W", "1.234", "1.210"]);
        t.row(vec!["100W", "1.001", "1.000"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("cap "));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("1.234"));
        assert!(lines[3].starts_with("100W"));
        // Columns align: "SLURM" and its values start at the same offset.
        let col = lines[0].find("SLURM").unwrap();
        assert_eq!(lines[2].find("1.234").unwrap(), col);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn len_and_empty() {
        // A header and its rule, then one line per data row.
        let mut t = TextTable::new(vec!["x"]);
        assert_eq!(t.render().lines().count(), 2);
        t.row(vec!["1"]);
        assert_eq!(t.render().lines().count(), 3);
    }
}
