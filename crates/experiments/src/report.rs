//! Plain-text report builders: markdown tables and CSV blocks.

use std::fmt::Write as _;

/// Builds a GitHub-flavored markdown table.
///
/// # Example
///
/// ```rust
/// use imobif_experiments::report::markdown_table;
///
/// let t = markdown_table(
///     &["k", "ratio"],
///     &[vec!["0.5".into(), "0.83".into()]],
/// );
/// assert!(t.contains("| k | ratio |"));
/// assert!(t.contains("| 0.5 | 0.83 |"));
/// ```
#[must_use]
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(out, "|{}", "---|".repeat(headers.len()));
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Builds a CSV block with a header line.
///
/// Values containing commas or quotes are quoted per RFC 4180.
#[must_use]
pub fn csv_block(headers: &[&str], rows: &[Vec<String>]) -> String {
    fn escape(cell: &str) -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{}", headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
    for row in rows {
        let _ = writeln!(out, "{}", row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
    }
    out
}

/// Formats a float with 4 significant-looking decimals for reports.
#[must_use]
pub fn fmt4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float with 2 decimals.
#[must_use]
pub fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a size given in bits as bytes, in the largest of MB, KB and B
/// it reaches: `16e6` bits is `"2 MB"`, `8e5` is `"100 KB"`.
#[must_use]
pub fn fmt_bytes(bits: f64) -> String {
    let bytes = bits / 8.0;
    match bytes {
        b if b >= 1e6 => format!("{} MB", b / 1e6),
        b if b >= 1e3 => format!("{} KB", b / 1e3),
        b => format!("{b} B"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_has_separator_row() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "|---|---|");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let c = csv_block(&["x"], &[vec!["a,b".into()], vec!["say \"hi\"".into()]]);
        assert!(c.contains("\"a,b\""));
        assert!(c.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt4(1.23456), "1.2346");
        assert_eq!(fmt2(1.234), "1.23");
        assert_eq!(fmt_bytes(16e6), "2 MB");
        assert_eq!(fmt_bytes(8e5), "100 KB");
        assert_eq!(fmt_bytes(80_000.0), "10 KB");
        assert_eq!(fmt_bytes(12e3), "1.5 KB");
        assert_eq!(fmt_bytes(800.0), "100 B");
    }
}
