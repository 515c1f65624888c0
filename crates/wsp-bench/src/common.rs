//! Shared helpers for the experiment harness: table rendering and
//! seed aggregation.

/// Render an ASCII table: header row plus data rows.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:>width$} | ", cell, width = widths[i]));
        }
        line.trim_end().to_owned()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + widths.len() * 3 + 1));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Mean of a slice of f64.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile of unsorted f64 samples
/// ([`wsp_simnet::metrics::percentile`] after a sort).
pub fn percentile_f64(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    wsp_simnet::metrics::percentile(&sorted, p)
}

/// The middle value of a set of pass results (the upper middle for an
/// even count) — the robust estimator E10 and E12 report.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            "demo",
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["100".into(), "20000".into()],
            ],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("long-header"));
        let lines: Vec<&str> = t.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[1].len());
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(percentile_f64(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile_f64(&[], 50.0), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
