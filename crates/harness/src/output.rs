//! Output helpers: CSV writing and ASCII rendering of series and
//! boxplots (what the paper plots with matplotlib, we render for the
//! terminal; the CSVs are drop-in replacements for the paper's data
//! files).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Where experiment artifacts land.
#[derive(Debug, Clone)]
pub struct OutputSink {
    dir: Option<PathBuf>,
}

impl OutputSink {
    /// Write CSVs under `dir` (created if missing); `None` disables.
    pub fn new(dir: Option<&Path>) -> OutputSink {
        if let Some(d) = dir {
            let _ = fs::create_dir_all(d);
        }
        OutputSink { dir: dir.map(|d| d.to_path_buf()) }
    }

    /// Write one CSV file (header + rows).
    pub(crate) fn csv(&self, name: &str, header: &str, rows: &[String]) {
        let Some(dir) = &self.dir else { return };
        let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
        body.push_str(header);
        body.push('\n');
        for r in rows {
            body.push_str(r);
            body.push('\n');
        }
        let path = dir.join(name);
        if let Err(e) = fs::write(&path, body) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Human-readable byte size (matches OSU's x-axis labels).
pub(crate) fn fmt_size(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{} MB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{} kB", bytes >> 10)
    } else {
        format!("{bytes} B")
    }
}

/// A named series for ASCII plotting.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend name.
    pub name: String,
    /// (x, y) points.
    pub points: Vec<(f64, f64)>,
}

/// Render series as an ASCII scatter/line chart. `log_x`/`log_y` apply
/// log10 scaling (sizes and throughputs span decades, as in Figs. 5/7).
pub(crate) fn ascii_plot(
    title: &str,
    series: &[Series],
    log_x: bool,
    log_y: bool,
    width: usize,
    height: usize,
) -> String {
    let marks = ['*', 'o', '+', 'x', '#', '@'];
    let tx = |x: f64| if log_x { x.max(1e-12).log10() } else { x };
    let ty = |y: f64| if log_y { y.max(1e-12).log10() } else { y };
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, y)| (tx(x), ty(y))))
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    if all.is_empty() {
        let _ = writeln!(out, "(no data)");
        return out;
    }
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if (x1 - x0).abs() < 1e-12 {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < 1e-12 {
        y1 = y0 + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for &(x, y) in &s.points {
            let (x, y) = (tx(x), ty(y));
            if !x.is_finite() || !y.is_finite() {
                continue;
            }
            let cx = ((x - x0) / (x1 - x0) * (width - 1) as f64).round() as usize;
            let cy = ((y - y0) / (y1 - y0) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = mark;
        }
    }
    let y_hi = if log_y { format!("1e{y1:.1}") } else { format!("{y1:.3}") };
    let y_lo = if log_y { format!("1e{y0:.1}") } else { format!("{y0:.3}") };
    let _ = writeln!(out, "{y_hi:>10} +{}", "-".repeat(width));
    for row in grid {
        let line: String = row.into_iter().collect();
        let _ = writeln!(out, "{:>10} |{line}", "");
    }
    let x_hi = if log_x { format!("1e{x1:.1}") } else { format!("{x1:.2}") };
    let x_lo = if log_x { format!("1e{x0:.1}") } else { format!("{x0:.2}") };
    let _ = writeln!(out, "{y_lo:>10} +{}", "-".repeat(width));
    let _ = writeln!(out, "{:>12}{x_lo}  ..  {x_hi}", "");
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "{:>12}{} = {}", "", marks[si % marks.len()], s.name);
    }
    out
}

/// Render a horizontal ASCII boxplot row (as in Fig. 12).
pub(crate) fn ascii_boxplot(label: &str, b: &shs_des::stats::Boxplot, scale_max: f64, width: usize) -> String {
    let pos = |v: f64| ((v / scale_max).clamp(0.0, 1.0) * (width - 1) as f64).round() as usize;
    let mut row = vec![' '; width];
    let (wl, q1, md, q3, wh) =
        (pos(b.whisker_lo), pos(b.q1), pos(b.median), pos(b.q3), pos(b.whisker_hi));
    for cell in row.iter_mut().take(wh.max(wl) + 1).skip(wl) {
        *cell = '-';
    }
    for cell in row.iter_mut().take(q3 + 1).skip(q1.min(q3)) {
        *cell = '=';
    }
    row[wl] = '|';
    row[wh.min(width - 1)] = '|';
    row[md.min(width - 1)] = 'M';
    format!(
        "{label:>10} [{}] med={:.2}s q1={:.2}s q3={:.2}s",
        row.into_iter().collect::<String>(),
        b.median,
        b.q1,
        b.q3
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_des::stats::Boxplot;

    #[test]
    fn fmt_size_matches_osu_labels() {
        assert_eq!(fmt_size(1), "1 B");
        assert_eq!(fmt_size(512), "512 B");
        assert_eq!(fmt_size(1024), "1 kB");
        assert_eq!(fmt_size(1 << 20), "1 MB");
    }

    #[test]
    fn ascii_plot_renders_all_series() {
        let s = vec![
            Series { name: "up".into(), points: (1..10).map(|i| (i as f64, i as f64)).collect() },
            Series { name: "flat".into(), points: (1..10).map(|i| (i as f64, 5.0)).collect() },
        ];
        let art = ascii_plot("test", &s, false, false, 40, 10);
        assert!(art.contains("== test =="));
        assert!(art.contains("* = up"));
        assert!(art.contains("o = flat"));
        assert!(art.matches('*').count() >= 9);
    }

    #[test]
    fn ascii_plot_handles_empty() {
        assert!(ascii_plot("e", &[], true, true, 20, 5).contains("no data"));
    }

    #[test]
    fn boxplot_row_is_ordered() {
        let b = Boxplot::from(&[1.0, 2.0, 3.0, 4.0, 10.0]).unwrap();
        let row = ascii_boxplot("ramp", &b, 12.0, 40);
        assert!(row.contains("med=3.00s"));
        let bar_start = row.find('[').unwrap();
        let m = row.find('M').unwrap();
        assert!(m > bar_start);
    }

    #[test]
    fn sink_writes_csv() {
        let dir = std::env::temp_dir().join(format!("shs-harness-test-{}", std::process::id()));
        let sink = OutputSink::new(Some(&dir));
        sink.csv("t.csv", "a,b", &["1,2".into(), "3,4".into()]);
        let body = fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(body, "a,b\n1,2\n3,4\n");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn sink_none_is_noop() {
        let sink = OutputSink::new(None);
        sink.csv("t.csv", "a", &[]);
    }
}
