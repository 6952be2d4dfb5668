//! `newtop-analyze`: protocol-invariant static analysis for the NewTop
//! workspace.
//!
//! PRs 3–4 caught determinism and boundedness bugs *dynamically*, via
//! seeded campaigns; this crate enforces the underlying properties
//! *statically*, as a `check.sh` gate. Five rule families (see
//! [`rules`]):
//!
//! 1. **determinism** — no wall-clock, OS randomness, or
//!    `HashMap`-iteration-order dependence in the protocol crates; time
//!    flows through `newtop_net::time`.
//! 2. **panic-free** — no `unwrap`/`expect`/panicking macro/raw indexing
//!    in functions reachable from network-input decode/ingest entry
//!    points; malformed bytes surface as `NewtopError::Malformed`.
//! 3. **bounded** — no unbounded channels outside `newtop-flow`.
//! 4. **lock-hygiene** — no `Mutex`/`RwLock` guard held across a
//!    transport send or queue hand-off.
//! 5. **durability** — no buffered log write acknowledged before its
//!    flush point: a `newtop-dir` event handler that stages a store
//!    append must reach a `sync` before it returns.
//!
//! The analysis is a hand-rolled token scan ([`lexer`] → [`items`] →
//! [`rules`]): the vendored offline workspace has no `syn`, and the
//! rules only need token shapes plus a name-based call graph. That makes
//! them over-approximate by design; the committed [`allow`]list (≤ 10
//! entries, each justified) records the exceptions, and
//! [`selftest`] proves every family still fires on injected-bad input.

pub mod allow;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod selftest;

use rules::Finding;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Collects every production `.rs` file under `crates/*/src`, sorted.
/// Harness code (the `tests/` workspace member, `examples/`, vendored
/// stand-ins) is out of scope: the rules guard the protocol stack.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} not found; run from the workspace root",
                crates_dir.display()
            ),
        ));
    }
    let mut files = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A full workspace analysis: the findings plus report warnings
/// (skipped macro bodies).
pub struct Analysis {
    /// Sorted, deduplicated findings from every rule family.
    pub findings: Vec<Finding>,
    /// Non-fatal coverage warnings, surfaced in the JSON report so
    /// skipped code is never silent.
    pub warnings: Vec<String>,
}

/// Lexes, parses and runs every rule over the workspace at `root`.
/// Finding paths are workspace-relative with `/` separators.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut parsed = Vec::new();
    let mut skipped_macros = 0u32;
    for path in collect_files(root)? {
        let src = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let file = items::parse_file(&rel, lexer::lex(&src));
        skipped_macros += file.skipped_macros;
        parsed.push(file);
    }
    let mut warnings = Vec::new();
    if skipped_macros > 0 {
        warnings.push(format!(
            "{skipped_macros} macro definition bod{} skipped (unexpanded token soup is invisible to the scanner)",
            if skipped_macros == 1 { "y" } else { "ies" }
        ));
    }
    Ok(Analysis {
        findings: rules::run_all(&parsed),
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_rejects_non_workspace_roots() {
        let err = collect_files(Path::new("/definitely/not/a/workspace")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
