//! Result tables.
//!
//! Every experiment in the paper is presented as a scaling curve: an x-axis of task
//! or node counts and one line per configuration.  [`SeriesTable`] is the common
//! output format all figure generators produce; it renders to an aligned text table.

use std::collections::BTreeMap;
use std::fmt;

/// One measured point of a scaling curve.
#[derive(Clone, Copy, Debug, PartialEq)]
struct SeriesPoint {
    /// The x value (task count, daemon count, node count).
    x: u64,
    /// The y value (seconds, bytes, ...).
    y: f64,
}

/// A named collection of scaling curves sharing an x-axis, i.e. one paper figure.
#[derive(Clone, Debug, Default)]
pub struct SeriesTable {
    title: String,
    x_label: String,
    y_label: String,
    series: BTreeMap<String, Vec<SeriesPoint>>,
    notes: Vec<String>,
}

impl SeriesTable {
    /// Create a table with axis labels.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        SeriesTable {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Append a point to a named series (created on first use).
    pub fn push(&mut self, series: impl Into<String>, x: u64, y: f64) {
        self.series
            .entry(series.into())
            .or_default()
            .push(SeriesPoint { x, y });
    }

    /// Attach a free-form annotation (e.g. "remap at 208K tasks: 0.66 s").
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// The annotations attached so far.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Names of all series, in sorted order.
    pub fn series_names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// The y value of a series at a given x, if measured.
    pub fn value_at(&self, name: &str, x: u64) -> Option<f64> {
        self.series
            .get(name)?
            .iter()
            .find(|p| p.x == x)
            .map(|p| p.y)
    }

    /// All distinct x values across every series, sorted.
    fn x_values(&self) -> Vec<u64> {
        let mut xs: Vec<u64> = self
            .series
            .values()
            .flat_map(|pts| pts.iter().map(|p| p.x))
            .collect();
        xs.sort_unstable();
        xs.dedup();
        xs
    }

    /// Least-squares slope of log2(y) against log2(x) for one series: ≈1 for linear
    /// scaling, ≈0 for constant, and between 0 and ~0.5 for logarithmic-ish curves.
    /// Used by tests and EXPERIMENTS.md to characterise curve shapes.
    pub fn loglog_slope(&self, name: &str) -> Option<f64> {
        let pts = self.series.get(name)?;
        let usable: Vec<(f64, f64)> = pts
            .iter()
            .filter(|p| p.x > 0 && p.y > 0.0)
            .map(|p| ((p.x as f64).log2(), p.y.log2()))
            .collect();
        if usable.len() < 2 {
            return None;
        }
        let n = usable.len() as f64;
        let sx: f64 = usable.iter().map(|(x, _)| *x).sum();
        let sy: f64 = usable.iter().map(|(_, y)| *y).sum();
        let sxx: f64 = usable.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = usable.iter().map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None;
        }
        Some((n * sxy - sx * sy) / denom)
    }

    /// Ratio of the largest-x y value to the smallest-x y value of a series.
    /// A constant-time curve has a growth factor near 1.
    pub fn growth_factor(&self, name: &str) -> Option<f64> {
        let pts = self.series.get(name)?;
        if pts.len() < 2 {
            return None;
        }
        let first = pts.iter().min_by_key(|p| p.x)?;
        let last = pts.iter().max_by_key(|p| p.x)?;
        if first.y <= 0.0 {
            return None;
        }
        Some(last.y / first.y)
    }
}

impl fmt::Display for SeriesTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let names = self.series_names();
        write!(f, "{:>12}", self.x_label)?;
        for n in &names {
            write!(f, "  {n:>22}")?;
        }
        writeln!(f)?;
        for x in self.x_values() {
            write!(f, "{x:>12}")?;
            for n in &names {
                match self.value_at(n, x) {
                    Some(v) => write!(f, "  {v:>22.4}")?,
                    None => write!(f, "  {:>22}", "-")?,
                }
            }
            writeln!(f)?;
        }
        if !self.y_label.is_empty() {
            writeln!(f, "(y axis: {})", self.y_label)?;
        }
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_table_round_trips() {
        let mut t = SeriesTable::new("Figure X", "tasks", "seconds");
        t.push("1-deep", 8, 1.0);
        t.push("1-deep", 16, 2.0);
        t.push("2-deep", 8, 0.9);
        t.note("example note");
        assert_eq!(t.value_at("1-deep", 16), Some(2.0));
        assert_eq!(t.value_at("2-deep", 16), None);
        assert_eq!(t.x_values(), vec![8, 16]);
        let rendered = format!("{t}");
        assert!(rendered.contains("Figure X"));
        assert!(rendered.contains("example note"));
    }

    #[test]
    fn loglog_slope_classifies_shapes() {
        let mut t = SeriesTable::new("shapes", "n", "s");
        for k in 1..=8u32 {
            let n = 1u64 << k;
            t.push("linear", n, n as f64 * 0.01);
            t.push("constant", n, 2.0);
            t.push("log", n, (n as f64).log2());
        }
        let lin = t.loglog_slope("linear").unwrap();
        let con = t.loglog_slope("constant").unwrap();
        let log = t.loglog_slope("log").unwrap();
        assert!((lin - 1.0).abs() < 0.05, "linear slope {lin}");
        assert!(con.abs() < 0.05, "constant slope {con}");
        assert!(log > 0.1 && log < 0.8, "log slope {log}");
    }

    #[test]
    fn growth_factor_detects_flat_curves() {
        let mut t = SeriesTable::new("flat", "n", "s");
        t.push("flat", 10, 2.0);
        t.push("flat", 1000, 2.2);
        let g = t.growth_factor("flat").unwrap();
        assert!(g < 1.5);
        assert!(t.growth_factor("missing").is_none());
    }
}
