//! A hand-rolled linter for the Prometheus text exposition format.
//!
//! CI and unit tests run [`lint`] over
//! [`Snapshot::to_prometheus`](crate::Snapshot::to_prometheus) output so an exporter
//! regression (bad metric name, missing `+Inf` bucket, non-cumulative
//! histogram) fails before a scrape ever sees it. The checks follow the
//! text-format grammar, with one deliberate strictness beyond it: every
//! sample must belong to the most recent `# TYPE` family, because our
//! exporter always announces a family before its samples (a sample with
//! no TYPE would mean the exporter interleaved families or dropped a
//! header).
//!
//! Validated per line:
//!
//! * `# TYPE name type` — valid metric name, known type, no duplicate
//!   TYPE for one family;
//! * samples — name grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`, optional
//!   `{label="value"}` block with proper quoting and `\\`/`\"`/`\n`
//!   escapes, a parseable float value (including `+Inf`/`-Inf`/`NaN`),
//!   optional integer timestamp;
//!
//! and per histogram family at family end:
//!
//! * `_bucket` series with ascending `le` bounds ending in `+Inf`,
//!   cumulative (non-decreasing) counts, and `_sum`/`_count` samples
//!   where `_count` equals the `+Inf` bucket.

/// Summary of a clean lint pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintReport {
    /// `# TYPE` families seen.
    pub families: usize,
    /// Sample lines seen.
    pub samples: usize,
}

/// Accumulated state for the histogram family currently being read.
struct HistState {
    name: String,
    type_line: usize,
    /// `(line, le, cumulative count)` in file order.
    buckets: Vec<(usize, f64, f64)>,
    sum_seen: bool,
    count: Option<(usize, f64)>,
}

/// Lints a text-format exposition document. Returns every violation
/// (with 1-based line numbers) or a [`LintReport`] when clean.
///
/// # Errors
///
/// Returns the full list of violations found; an empty document is clean.
pub fn lint(text: &str) -> Result<LintReport, Vec<String>> {
    let mut errs: Vec<String> = Vec::new();
    let mut families = 0usize;
    let mut samples = 0usize;
    let mut seen_families: Vec<String> = Vec::new();
    // The family samples must currently belong to: `(name, type)`.
    let mut current: Option<(String, String)> = None;
    let mut hist: Option<HistState> = None;

    for (idx, line) in text.lines().enumerate() {
        let ln = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(type_rest) = rest.strip_prefix("TYPE ") {
                let parts: Vec<&str> = type_rest.split_whitespace().collect();
                if parts.len() != 2 {
                    errs.push(format!("line {ln}: malformed TYPE line: {line:?}"));
                    continue;
                }
                let (name, ty) = (parts[0], parts[1]);
                if !valid_name(name) {
                    errs.push(format!("line {ln}: invalid metric name {name:?}"));
                }
                if !matches!(ty, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    errs.push(format!("line {ln}: unknown metric type {ty:?}"));
                }
                if seen_families.iter().any(|f| f == name) {
                    errs.push(format!("line {ln}: duplicate TYPE for family {name:?}"));
                }
                seen_families.push(name.to_string());
                families += 1;
                close_histogram(&mut hist, &mut errs);
                if ty == "histogram" {
                    hist = Some(HistState {
                        name: name.to_string(),
                        type_line: ln,
                        buckets: Vec::new(),
                        sum_seen: false,
                        count: None,
                    });
                }
                current = Some((name.to_string(), ty.to_string()));
            }
            // HELP and free comments pass through unchecked beyond being
            // comments.
            continue;
        }

        samples += 1;
        let Some(sample) = parse_sample(line) else {
            errs.push(format!("line {ln}: malformed sample line: {line:?}"));
            continue;
        };
        if !valid_name(&sample.name) {
            errs.push(format!("line {ln}: invalid sample name {:?}", sample.name));
        }
        for issue in &sample.label_issues {
            errs.push(format!("line {ln}: {issue}"));
        }
        let Some((fam, ty)) = &current else {
            errs.push(format!("line {ln}: sample {:?} precedes any TYPE line", sample.name));
            continue;
        };
        let suffix = sample.name.strip_prefix(fam.as_str());
        let belongs = match (ty.as_str(), suffix) {
            ("histogram", Some("_bucket" | "_sum" | "_count")) => true,
            ("summary", Some("_sum" | "_count")) => true,
            (_, Some("")) => !matches!(ty.as_str(), "histogram"),
            _ => false,
        };
        if !belongs {
            errs.push(format!(
                "line {ln}: sample {:?} does not belong to family {fam:?} ({ty})",
                sample.name
            ));
            continue;
        }
        if let Some(h) = hist.as_mut() {
            match suffix {
                Some("_bucket") => {
                    let le = sample.labels.iter().find(|(k, _)| k == "le").map(|(_, v)| v);
                    match le.map(|v| parse_float(v)) {
                        Some(Some(le)) => h.buckets.push((ln, le, sample.value)),
                        Some(None) => {
                            errs.push(format!("line {ln}: unparseable le label on {line:?}"))
                        }
                        None => errs.push(format!("line {ln}: _bucket sample missing le label")),
                    }
                }
                Some("_sum") => h.sum_seen = true,
                Some("_count") => h.count = Some((ln, sample.value)),
                _ => {}
            }
        }
    }
    close_histogram(&mut hist, &mut errs);
    if errs.is_empty() {
        Ok(LintReport { families, samples })
    } else {
        Err(errs)
    }
}

/// Finishes a histogram family: bucket ordering, cumulativeness, `+Inf`,
/// and `_sum`/`_count` presence.
fn close_histogram(hist: &mut Option<HistState>, errs: &mut Vec<String>) {
    let Some(h) = hist.take() else { return };
    let name = &h.name;
    let ln = h.type_line;
    if h.buckets.is_empty() {
        errs.push(format!("line {ln}: histogram {name:?} has no _bucket samples"));
        return;
    }
    for w in h.buckets.windows(2) {
        let (_, le_a, c_a) = w[0];
        let (bln, le_b, c_b) = w[1];
        if le_b <= le_a {
            errs.push(format!("line {bln}: histogram {name:?} le bounds not ascending"));
        }
        if c_b < c_a {
            errs.push(format!("line {bln}: histogram {name:?} bucket counts not cumulative"));
        }
    }
    let &(last_ln, last_le, last_count) = h.buckets.last().expect("non-empty");
    if last_le != f64::INFINITY {
        errs.push(format!("line {last_ln}: histogram {name:?} missing le=\"+Inf\" bucket"));
    }
    if !h.sum_seen {
        errs.push(format!("line {ln}: histogram {name:?} missing _sum sample"));
    }
    match h.count {
        None => errs.push(format!("line {ln}: histogram {name:?} missing _count sample")),
        Some((cln, count)) if last_le == f64::INFINITY && count != last_count => {
            errs.push(format!(
                "line {cln}: histogram {name:?} _count {count} != +Inf bucket {last_count}"
            ));
        }
        Some(_) => {}
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Floats as the text format spells them, including signed infinities.
fn parse_float(s: &str) -> Option<f64> {
    s.parse::<f64>().ok()
}

struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
    label_issues: Vec<String>,
}

/// Parses `name[{labels}] value [timestamp]`; `None` means unrecoverable
/// shape (recoverable label problems land in `label_issues`).
fn parse_sample(line: &str) -> Option<Sample> {
    let mut rest = line;
    let name_len = rest
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .map_or(rest.len(), |(i, _)| i);
    if name_len == 0 {
        return None;
    }
    let name = rest[..name_len].to_string();
    rest = &rest[name_len..];
    let mut labels = Vec::new();
    let mut label_issues = Vec::new();
    if let Some(after_brace) = rest.strip_prefix('{') {
        let close = after_brace.find('}')?;
        let body = &after_brace[..close];
        rest = &after_brace[close + 1..];
        for pair in body.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let Some((k, v)) = pair.split_once('=') else {
                label_issues.push(format!("label pair {pair:?} has no '='"));
                continue;
            };
            if !valid_name(k) || k.contains(':') {
                label_issues.push(format!("invalid label name {k:?}"));
            }
            let Some(v) = v.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
                label_issues.push(format!("label value for {k:?} not quoted"));
                continue;
            };
            let mut chars = v.chars();
            let mut unescaped = String::new();
            while let Some(c) = chars.next() {
                if c == '\\' {
                    match chars.next() {
                        Some('\\') => unescaped.push('\\'),
                        Some('"') => unescaped.push('"'),
                        Some('n') => unescaped.push('\n'),
                        other => {
                            label_issues.push(format!("bad escape \\{other:?} in label {k:?}"))
                        }
                    }
                } else if c == '"' {
                    label_issues.push(format!("unescaped quote in label {k:?}"));
                } else {
                    unescaped.push(c);
                }
            }
            labels.push((k.to_string(), unescaped));
        }
    }
    let mut fields = rest.split_whitespace();
    let value = parse_float(fields.next()?)?;
    if let Some(ts) = fields.next() {
        ts.parse::<i64>().ok()?;
    }
    if fields.next().is_some() {
        return None;
    }
    Some(Sample { name, labels, value, label_issues })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn snapshot_to_prometheus_is_clean() {
        let reg = Registry::enabled();
        reg.counter("queue.pushes").add(42);
        reg.float_counter("energy.data_joules").add(1.5e-3);
        reg.gauge("bench.events_per_sec").set(1.25e6);
        let h = reg.histogram("queue.occupancy", &[1.0, 8.0, 64.0]);
        h.observe(3.0);
        h.observe(100.0);
        let report = lint(&reg.snapshot().to_prometheus()).expect("exporter output lints clean");
        assert_eq!(report.families, 4);
        assert!(report.samples >= 9);
    }

    #[test]
    fn name_escaping_edge_cases_lint_clean() {
        let reg = Registry::enabled();
        // Dots, dashes, unicode, and a digit-first name must all sanitize
        // into the legal grammar.
        reg.counter("shard.s0.events").add(1);
        reg.counter("weird-name.with µchars").add(2);
        reg.counter("9starts.with.digit").add(3);
        let text = reg.snapshot().to_prometheus();
        lint(&text).expect("sanitized names lint clean");
        assert!(text.contains("# TYPE _9starts_with_digit counter"));
        assert!(text.contains("weird_name_with__chars 2"));
    }

    #[test]
    fn histogram_edge_cases_lint_clean() {
        let reg = Registry::enabled();
        // Empty histogram: all-zero cumulative buckets, zero sum/count.
        reg.histogram("empty.hist", &[1.0, 2.0]);
        // Saturated overflow bucket only.
        reg.histogram("over.hist", &[0.5]).observe(99.0);
        let text = reg.snapshot().to_prometheus();
        let report = lint(&text).expect("histogram edges lint clean");
        assert_eq!(report.families, 2);
        assert!(text.contains("empty_hist_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("over_hist_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn catches_missing_inf_bucket() {
        let text = "# TYPE h histogram\nh_bucket{le=\"1.0\"} 1\nh_sum 0.5\nh_count 1\n";
        let errs = lint(text).expect_err("missing +Inf must fail");
        assert!(errs.iter().any(|e| e.contains("+Inf")), "{errs:?}");
    }

    #[test]
    fn catches_non_cumulative_buckets() {
        let text = "# TYPE h histogram\nh_bucket{le=\"1.0\"} 5\nh_bucket{le=\"+Inf\"} 3\n\
                    h_sum 0.5\nh_count 3\n";
        let errs = lint(text).expect_err("shrinking buckets must fail");
        assert!(errs.iter().any(|e| e.contains("cumulative")), "{errs:?}");
    }

    #[test]
    fn catches_count_bucket_mismatch() {
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 0.5\nh_count 4\n";
        let errs = lint(text).expect_err("_count mismatch must fail");
        assert!(errs.iter().any(|e| e.contains("_count")), "{errs:?}");
    }

    #[test]
    fn catches_bad_names_and_orphans() {
        let errs = lint("# TYPE 9bad counter\n9bad 1\n").expect_err("digit-first name");
        assert!(errs.iter().any(|e| e.contains("invalid metric name")), "{errs:?}");
        let errs = lint("orphan 1\n").expect_err("sample before TYPE");
        assert!(errs.iter().any(|e| e.contains("precedes any TYPE")), "{errs:?}");
        let errs = lint("# TYPE a counter\nb 1\n").expect_err("family mismatch");
        assert!(errs.iter().any(|e| e.contains("does not belong")), "{errs:?}");
        let errs = lint("# TYPE a counter\na one\n").expect_err("bad value");
        assert!(errs.iter().any(|e| e.contains("malformed sample")), "{errs:?}");
    }

    #[test]
    fn accepts_labels_timestamps_and_special_values() {
        let text = "# TYPE a gauge\na{x=\"hi\\\"there\\n\",y=\"1\"} +Inf 1700000000\n\
                    # TYPE b gauge\nb NaN\n# TYPE c gauge\nc -Inf\n";
        let report = lint(text).expect("grammar corners lint clean");
        assert_eq!(report.samples, 3);
    }
}
