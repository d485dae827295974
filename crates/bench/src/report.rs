//! Plain-text tables and CSV output for experiment results.

use std::fs;
use std::path::PathBuf;

/// A printable results table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Caption printed above the table.
    pub title: String,
    /// Column headers, left to right.
    pub headers: Vec<String>,
    /// Data rows (stringified cells).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start an empty table with a caption and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringifying each cell).
    pub fn row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout and write `results/<csv_name>.csv`, or
    /// `results/out/<csv_name>.csv` for a `MEASURED` table.
    pub fn emit(&self, csv_name: &str) {
        print!("{}", self.render());
        println!();
        let mut lines = vec![self.headers.join(",")];
        lines.extend(self.rows.iter().map(|r| r.join(",")));
        write_csv(csv_name, &lines.join("\n"));
    }
}

/// The tables of wall-clock measurements. They differ from run to run,
/// so they land in the gitignored `results/out/`; every other table is
/// deterministic and its CSV in `results/` is the committed golden.
const MEASURED: [&str; 2] = ["fig17a_latency", "fig17b_latency_coex"];

/// Write `<name>.csv` into the workspace's `results/` (`results/out/`
/// if measured) from any working directory. Best effort.
fn write_csv(name: &str, content: &str) {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if MEASURED.contains(&name) {
        dir.push("out");
    }
    let _ = fs::create_dir_all(&dir)
        .and_then(|()| fs::write(dir.join(format!("{name}.csv")), format!("{content}\n")));
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.row(vec!["1".into(), "10".into()]);
        t.row(vec!["100".into(), "7".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("  1"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(2.34567), "2.3");
        assert_eq!(f3(2.34567), "2.346");
        assert_eq!(pct(0.8512), "85.1%");
    }
}
