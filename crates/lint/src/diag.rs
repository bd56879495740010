//! Findings, reports, and deterministic rendering.
//!
//! A report contains no absolute paths and no timestamps, and is fully
//! sorted, so repeated runs render byte-identical text.

use std::collections::BTreeMap;

/// One policy violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Check id (`"F1"`, `"W1"`, …).
    pub check: &'static str,
    /// Workspace-relative `/`-separated path (empty for workspace-level
    /// findings).
    pub file: String,
    /// 1-based line, or 0 for whole-file / workspace findings.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Sort key: file, line, check, message.
    fn key(&self) -> (&str, usize, &str, &str) {
        (&self.file, self.line, self.check, &self.message)
    }
}

/// The result of a lint run.
#[derive(Debug)]
pub struct Report {
    /// Sorted, deduplicated findings.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Build a report from raw findings (sorts + dedups).
    pub fn new(mut findings: Vec<Finding>, files_scanned: usize) -> Self {
        findings.sort_by(|a, b| a.key().cmp(&b.key()));
        findings.dedup();
        Report {
            findings,
            files_scanned,
        }
    }

    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-check finding counts (every check present, zero or not).
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> =
            crate::checks::IDS.iter().map(|c| (*c, 0)).collect();
        for f in &self.findings {
            *counts.entry(f.check).or_insert(0) += 1;
        }
        counts
    }

    /// Human-readable diagnostics, one `check file:line: message` per
    /// finding, plus a summary line.
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.file.is_empty() {
                out.push_str(&format!("{} workspace: {}\n", f.check, f.message));
            } else if f.line == 0 {
                out.push_str(&format!("{} {}: {}\n", f.check, f.file, f.message));
            } else {
                out.push_str(&format!(
                    "{} {}:{}: {}\n",
                    f.check, f.file, f.line, f.message
                ));
            }
        }
        let summary: Vec<String> = self
            .counts()
            .iter()
            .map(|(c, n)| format!("{c}={n}"))
            .collect();
        out.push_str(&format!(
            "ftt-lint: {} finding(s) across {} file(s) [{}]\n",
            self.findings.len(),
            self.files_scanned,
            summary.join(" ")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(check: &'static str, file: &str, line: usize, msg: &str) -> Finding {
        Finding {
            check,
            file: file.into(),
            line,
            message: msg.into(),
        }
    }

    #[test]
    fn report_sorts_and_dedups() {
        let r = Report::new(
            vec![
                f("F1", "b.rs", 9, "x"),
                f("O1", "a.rs", 2, "y"),
                f("F1", "b.rs", 9, "x"),
            ],
            3,
        );
        assert_eq!(r.findings.len(), 2);
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.counts()["F1"], 1);
        assert_eq!(r.counts()["W1"], 0);
    }

    #[test]
    fn clean_report_renders_a_zero_summary() {
        let r = Report::new(vec![], 5);
        assert!(r.is_clean());
        assert_eq!(
            r.to_human(),
            "ftt-lint: 0 finding(s) across 5 file(s) [C1=0 E2=0 F1=0 O1=0 O2=0 W1=0]\n"
        );
    }
}
