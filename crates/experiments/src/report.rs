//! Result series, aligned-table printing, CSV output, and the
//! [`Output`] a registry row hands the CLI.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One labelled curve: `(x, y)` points in ascending `x`.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. `"on-demand zipf"`).
    pub label: String,
    /// The curve's points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            label: label.into(),
            points,
        }
    }

    /// `y` at the given `x`, if sampled.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }

    /// Final `y` value.
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|&(_, y)| y)
    }
}

/// A figure: a title, axis labels, and its series (sharing x samples).
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure title, e.g. `"Figure 2: data downloaded"`.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Create a figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        series: Vec<Series>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series,
        }
    }

    /// Render as an aligned text table: one row per x sample, one column
    /// per series.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = writeln!(out, "   ({} vs {})", self.y_label, self.x_label);

        let width = 18usize;
        let _ = write!(out, "{:>12}", self.x_label_short());
        for s in &self.series {
            let _ = write!(out, "{:>width$}", truncate(&s.label, width - 2));
        }
        let _ = writeln!(out);

        let xs = self.merged_xs();
        for x in xs {
            let _ = write!(out, "{:>12}", trim_float(x));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, "{:>width$}", trim_float(y));
                    }
                    None => {
                        let _ = write!(out, "{:>width$}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as CSV (`x,label1,label2,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", csv_escape(&self.x_label));
        for s in &self.series {
            let _ = write!(out, ",{}", csv_escape(&s.label));
        }
        let _ = writeln!(out);
        for x in self.merged_xs() {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, ",{y}");
                    }
                    None => {
                        let _ = write!(out, ",");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    fn merged_xs(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("x samples are never NaN"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        xs
    }

    fn x_label_short(&self) -> String {
        truncate(&self.x_label, 11).to_string()
    }
}

/// What one target produced: the text the CLI prints and the files it
/// writes under `--csv`.
#[derive(Debug, Clone, Default)]
pub struct Output {
    /// Printed to stdout: the figures' tables, or the target's own
    /// report.
    pub text: String,
    /// The figures behind `text`, each with the CSV file it is written
    /// to.
    pub figures: Vec<(&'static str, Figure)>,
}

impl Output {
    /// A target that is one or more figures: their tables, one blank
    /// line apart, and one CSV each.
    pub fn figures(figures: Vec<(&'static str, Figure)>) -> Self {
        let tables: Vec<String> = figures.iter().map(|(_, f)| f.to_table()).collect();
        Self {
            text: tables.join("\n"),
            figures,
        }
    }

    /// Every file of the target, (name, contents): one CSV per figure.
    pub fn files(&self) -> Vec<(&'static str, String)> {
        self.figures
            .iter()
            .map(|(name, f)| (*name, f.to_csv()))
            .collect()
    }

    /// Write [`Output::files`] under `dir`, creating it if needed, and
    /// return the paths written. The only place the harness touches the
    /// file system.
    pub fn write_to(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (name, contents) in self.files() {
            let path = dir.join(name);
            fs::write(&path, contents)?;
            written.push(path);
        }
        Ok(written)
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

fn trim_float(v: f64) -> String {
    if (v.fract()).abs() < 1e-9 && v.abs() < 1e12 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        Figure::new(
            "Test figure",
            "budget",
            "score",
            vec![
                Series::new("a", vec![(0.0, 0.5), (10.0, 0.75)]),
                Series::new("b", vec![(0.0, 0.25), (10.0, 1.0)]),
            ],
        )
    }

    #[test]
    fn table_contains_all_points() {
        let t = fig().to_table();
        assert!(t.contains("Test figure"));
        assert!(t.contains("0.5") && t.contains("0.75") && t.contains("0.25"));
    }

    #[test]
    fn csv_roundtrips_values() {
        let csv = fig().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "budget,a,b");
        assert_eq!(lines.next().unwrap(), "0,0.5,0.25");
        assert_eq!(lines.next().unwrap(), "10,0.75,1");
    }

    #[test]
    fn missing_samples_render_as_dash_and_empty() {
        let f = Figure::new(
            "gap",
            "x",
            "y",
            vec![
                Series::new("a", vec![(0.0, 1.0)]),
                Series::new("b", vec![(5.0, 2.0)]),
            ],
        );
        assert!(f.to_table().contains('-'));
        assert!(f.to_csv().contains("0,1,\n") || f.to_csv().contains("0,1,"));
    }

    #[test]
    fn series_lookup() {
        let s = Series::new("a", vec![(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(s.y_at(3.0), Some(4.0));
        assert_eq!(s.y_at(2.0), None);
        assert_eq!(s.last_y(), Some(4.0));
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }
}
