//! The analyzer must hold itself to its own rules: analyzing the
//! workspace may not produce findings inside `crates/analyze`, and the
//! committed allowlist must account for everything else so the tree
//! stays clean (the baseline in `analyze.baseline.json` is empty).

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn the_analyzer_passes_the_analyzer() {
    let root = workspace_root();
    let findings = newtop_analyze::analyze_workspace(&root)
        .expect("analysis runs")
        .findings;
    let own: Vec<String> = findings
        .iter()
        .filter(|f| f.file.starts_with("crates/analyze/"))
        .map(|f| format!("[{}] {}:{} in {}", f.rule, f.file, f.line, f.func))
        .collect();
    assert!(
        own.is_empty(),
        "the analyzer's own crate violates its rules:\n{}",
        own.join("\n")
    );
}

#[test]
fn every_workspace_finding_is_allowlisted() {
    let root = workspace_root();
    let findings = newtop_analyze::analyze_workspace(&root)
        .expect("analysis runs")
        .findings;
    let text = std::fs::read_to_string(root.join("analyze.allow")).expect("analyze.allow");
    let entries = newtop_analyze::allow::parse(&text).expect("allowlist parses");
    let (_, surviving) =
        newtop_analyze::allow::apply(findings, &entries).expect("no stale entries");
    let left: Vec<String> = surviving
        .iter()
        .map(|f| {
            format!(
                "[{}] {}:{} in {}: {}",
                f.rule, f.file, f.line, f.func, f.message
            )
        })
        .collect();
    assert!(
        left.is_empty(),
        "unallowlisted findings in the tree (fix them or regenerate the baseline):\n{}",
        left.join("\n")
    );
}
