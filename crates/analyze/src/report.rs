//! Structured findings report: stable IDs, the `--json` writer, and the
//! baseline diff gate.
//!
//! The allowlist (`analyze.allow`) is a *pressure valve*: ten justified
//! exceptions, reviewed by hand. The baseline
//! (`analyze.baseline.json`) is a *ratchet*: the committed set of
//! finding IDs the tree is known to carry (kept empty of protocol-crate
//! findings by policy). `check.sh` diffs the current report against it —
//! a finding not in the baseline fails CI (you introduced it), a
//! baseline ID no longer produced also fails (you fixed it; regenerate
//! with `--write-baseline` so the ratchet clicks forward).
//!
//! IDs are `rule:file:fn:kind`, deliberately *without* line numbers so
//! unrelated edits don't churn the baseline; when one function carries
//! several findings of one kind, later ones (in line order) get a `#2`,
//! `#3`… suffix.

use crate::rules::Finding;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Stable IDs for `findings`, parallel to the slice. `findings` must be
/// sorted (as [`crate::rules::run_all`] returns them) so suffix
/// numbering is deterministic.
#[must_use]
pub fn finding_ids(findings: &[Finding]) -> Vec<String> {
    let mut counts: BTreeMap<String, u32> = BTreeMap::new();
    findings
        .iter()
        .map(|f| {
            let base = format!("{}:{}:{}:{}", f.rule, f.file, f.func, f.kind);
            let n = counts.entry(base.clone()).or_insert(0);
            *n += 1;
            if *n == 1 {
                base
            } else {
                format!("{base}#{n}")
            }
        })
        .collect()
}

/// Serializes findings and warnings as the JSON report. Hand-rolled:
/// the vendored workspace has no serde.
#[must_use]
pub fn to_json(findings: &[Finding], warnings: &[String]) -> String {
    let ids = finding_ids(findings);
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, (f, id)) in findings.iter().zip(&ids).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\": \"{}\", \"rule\": \"{}\", \"kind\": \"{}\", \"file\": \"{}\", \"line\": {}, \"fn\": \"{}\", \"message\": \"{}\"}}",
            esc(id),
            esc(f.rule),
            esc(f.kind),
            esc(&f.file),
            f.line,
            esc(&f.func),
            esc(&f.message)
        );
    }
    if findings.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"warnings\": [");
    for (i, w) in warnings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\"", esc(w));
    }
    if warnings.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Extracts the `"id"` values from a baseline JSON report. A minimal
/// scanner, not a JSON parser: it only ever reads files this module
/// wrote (`--write-baseline`), whose shape is fixed. Returns IDs in file
/// order.
#[must_use]
pub fn baseline_ids(json: &str) -> Vec<String> {
    let mut ids = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find("\"id\":") {
        rest = &rest[pos + 5..];
        let Some(open) = rest.find('"') else { break };
        rest = &rest[open + 1..];
        let mut id = String::new();
        let mut chars = rest.char_indices();
        let mut consumed = rest.len();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    consumed = i + 1;
                    break;
                }
                '\\' => {
                    if let Some((_, e)) = chars.next() {
                        id.push(match e {
                            'n' => '\n',
                            't' => '\t',
                            other => other,
                        });
                    }
                }
                c => id.push(c),
            }
        }
        rest = &rest[consumed..];
        ids.push(id);
    }
    ids
}

/// The baseline diff: findings the baseline does not know (fail: you
/// introduced them) and baseline entries no longer produced (fail: the
/// baseline is stale; regenerate it).
#[must_use]
pub fn diff(current: &[String], baseline: &[String]) -> (Vec<String>, Vec<String>) {
    let cur: std::collections::BTreeSet<&str> = current.iter().map(String::as_str).collect();
    let base: std::collections::BTreeSet<&str> = baseline.iter().map(String::as_str).collect();
    let new = current
        .iter()
        .filter(|id| !base.contains(id.as_str()))
        .cloned()
        .collect();
    let fixed = baseline
        .iter()
        .filter(|id| !cur.contains(id.as_str()))
        .cloned()
        .collect();
    (new, fixed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, file: &str, func: &str, kind: &'static str, line: u32) -> Finding {
        Finding {
            file: file.to_owned(),
            line,
            rule,
            func: func.to_owned(),
            kind,
            message: "msg with \"quotes\" and \\ backslash".to_owned(),
        }
    }

    #[test]
    fn ids_are_stable_across_line_changes() {
        let a = finding_ids(&[f("panic-free", "crates/gcs/src/a.rs", "go", "unwrap", 10)]);
        let b = finding_ids(&[f("panic-free", "crates/gcs/src/a.rs", "go", "unwrap", 99)]);
        assert_eq!(a, b);
        assert_eq!(a[0], "panic-free:crates/gcs/src/a.rs:go:unwrap");
    }

    #[test]
    fn duplicate_tuples_get_ordinal_suffixes() {
        let ids = finding_ids(&[
            f("panic-free", "crates/gcs/src/a.rs", "go", "unwrap", 10),
            f("panic-free", "crates/gcs/src/a.rs", "go", "unwrap", 20),
        ]);
        assert_eq!(ids[0], "panic-free:crates/gcs/src/a.rs:go:unwrap");
        assert_eq!(ids[1], "panic-free:crates/gcs/src/a.rs:go:unwrap#2");
    }

    #[test]
    fn json_roundtrips_through_baseline_scanner() {
        let findings = vec![
            f("panic-free", "crates/gcs/src/a.rs", "go", "unwrap", 10),
            f("lock-order", "crates/net/src/tcp.rs", "send", "cycle", 5),
        ];
        let json = to_json(&findings, &["1 macro body skipped".to_owned()]);
        let ids = baseline_ids(&json);
        assert_eq!(ids, finding_ids(&findings));
    }

    #[test]
    fn empty_report_is_valid_and_idless() {
        let json = to_json(&[], &[]);
        assert!(json.contains("\"findings\": []"));
        assert!(baseline_ids(&json).is_empty());
    }

    #[test]
    fn diff_separates_new_from_fixed() {
        let cur = vec!["a".to_owned(), "b".to_owned()];
        let base = vec!["b".to_owned(), "c".to_owned()];
        let (new, fixed) = diff(&cur, &base);
        assert_eq!(new, ["a"]);
        assert_eq!(fixed, ["c"]);
    }
}
