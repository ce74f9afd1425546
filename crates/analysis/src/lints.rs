//! Source-level invariant lints.
//!
//! - **Panic lint** (gating): no `.unwrap()` / `.expect(` in non-test code
//!   of the hot-path crates (`btcore`, `l2cap`, `hci`, `core`).  A site
//!   that is genuinely infallible is pinned with an
//!   `// analyzer: allow(panic) — <why>` comment within the five lines
//!   above it; the justification lives next to the code it defends.
//! - **Index lint** (advisory): counts non-literal indexing expressions in
//!   the hot-path crates.  Reported in the JSON output as a trend metric;
//!   never fails the analyzer.
//!
//! The lints are line-based scanners, not parsers: precise enough for this
//! codebase's formatting (rustfmt-clean, tests in a trailing
//! `#[cfg(test)]` module) and cheap enough to gate CI on.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// The crates whose non-test code must not panic (they sit on the
/// per-packet path of every campaign).
pub const HOT_PATH_CRATES: [&str; 4] = ["btcore", "l2cap", "hci", "core"];

/// How many lines above a panicking operation an
/// `analyzer: allow(panic)` marker is honored.
const ALLOW_LOOKBACK: usize = 5;

/// One lint finding (gating).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LintFinding {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which lint fired (`panic`).
    pub lint: String,
    /// What is wrong.
    pub message: String,
}

/// The result of the full lint pass.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Gating findings; any of these fails the analyzer.
    pub findings: Vec<LintFinding>,
    /// Advisory count of non-literal indexing sites in hot-path crates.
    pub index_sites: usize,
    /// Number of panic sites pinned with an allow marker.
    pub allowed_panics: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

fn relative_to(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// `true` for lines the scanners skip entirely: comments and attributes.
fn is_comment_or_attr(trimmed: &str) -> bool {
    trimmed.starts_with("//") || trimmed.starts_with("#[") || trimmed.starts_with("#![")
}

fn has_allow_marker(lines: &[&str], index: usize) -> bool {
    let start = index.saturating_sub(ALLOW_LOOKBACK);
    lines[start..=index]
        .iter()
        .any(|l| l.contains("analyzer: allow(panic"))
}

/// Scans one file for panicking operations outside the test module.
fn panic_lint(root: &Path, path: &Path, source: &str, report: &mut LintReport) {
    let lines: Vec<&str> = source.lines().collect();
    let mut in_tests = false;
    for (i, raw) in lines.iter().enumerate() {
        if raw.contains("#[cfg(test)]") {
            in_tests = true;
        }
        if in_tests {
            continue;
        }
        let trimmed = raw.trim_start();
        if is_comment_or_attr(trimmed) {
            continue;
        }
        let panicking = raw.contains(".unwrap()") || raw.contains(".expect(");
        if !panicking {
            continue;
        }
        if has_allow_marker(&lines, i) {
            report.allowed_panics += 1;
            continue;
        }
        report.findings.push(LintFinding {
            file: relative_to(root, path),
            line: i + 1,
            lint: "panic".into(),
            message: "unwrap/expect in non-test hot-path code (pin with \
                      `analyzer: allow(panic) — <why>` if infallible)"
                .into(),
        });
    }
}

/// `true` if `index_expr` (the text between `[` and `]`) is a plain
/// numeric literal or a full-range slice — indexing that cannot panic on
/// malformed input.
fn is_literal_index(index_expr: &str) -> bool {
    let e = index_expr.trim();
    !e.is_empty() && e.chars().all(|c| c.is_ascii_digit() || c == '_') || e == ".."
}

/// Counts non-literal indexing sites (advisory).
fn index_lint(source: &str, report: &mut LintReport) {
    let mut in_tests = false;
    for raw in source.lines() {
        if raw.contains("#[cfg(test)]") {
            in_tests = true;
        }
        if in_tests {
            continue;
        }
        let trimmed = raw.trim_start();
        if is_comment_or_attr(trimmed) {
            continue;
        }
        let bytes = raw.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b != b'[' || i == 0 {
                continue;
            }
            let prev = bytes[i - 1] as char;
            if !(prev.is_ascii_alphanumeric() || prev == '_' || prev == ')' || prev == ']') {
                continue;
            }
            let Some(close) = raw[i + 1..].find(']') else {
                continue;
            };
            let inner = &raw[i + 1..i + 1 + close];
            if !is_literal_index(inner) {
                report.index_sites += 1;
            }
        }
    }
}

/// Runs every lint over the repository rooted at `root`.
pub fn run_lints(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    for krate in HOT_PATH_CRATES {
        let src = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        for path in &files {
            let source = fs::read_to_string(path)?;
            report.files_scanned += 1;
            panic_lint(root, path, &source, &mut report);
            index_lint(&source, &mut report);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_lint_flags_unmarked_sites_and_honors_markers() {
        let source = "fn f() {\n\
                      let a = x.unwrap();\n\
                      // analyzer: allow(panic) — guarded above\n\
                      let b = y.expect(\"ok\");\n\
                      }\n\
                      #[cfg(test)]\n\
                      mod tests { fn g() { z.unwrap(); } }\n";
        let mut report = LintReport::default();
        panic_lint(Path::new("/r"), Path::new("/r/a.rs"), source, &mut report);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 2);
        assert_eq!(report.allowed_panics, 1);
    }

    #[test]
    fn index_lint_counts_only_non_literal_indexing() {
        let source = "fn f() {\n\
                      let a = xs[0];\n\
                      let b = xs[i];\n\
                      let c = xs[i + 1];\n\
                      let d = &xs[..];\n\
                      let e: [u8; 4] = [0; 4];\n\
                      }\n";
        let mut report = LintReport::default();
        index_lint(source, &mut report);
        assert_eq!(report.index_sites, 2);
    }

    #[test]
    fn repo_lints_run_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("analysis crate lives at crates/analysis");
        let report = run_lints(root).expect("lint scan");
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
        assert!(report.files_scanned > 0);
    }
}
