//! `cargo run -p newtop-analyze` — the workspace protocol-invariant
//! linter.
//!
//! Exit codes: 0 clean (or allowlisted/baselined), 1 surviving findings,
//! baseline drift, or failed self-test, 2 usage/configuration error
//! (bad allowlist, missing workspace, unwritable report).

use newtop_analyze::{allow, analyze_workspace, report, selftest};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
newtop-analyze — NewTop protocol-invariant static analysis

USAGE:
    cargo run -p newtop-analyze [--] [OPTIONS]

OPTIONS:
    --self-test          inject known-bad snippets per rule and assert
                         each is caught (and each good twin is clean)
    --root <DIR>         workspace root (default: .)
    --allowlist <FILE>   allowlist path (default: <root>/analyze.allow)
    --show-allowed       also print the findings the allowlist suppressed
    --json <FILE>        write the surviving findings as a JSON report
                         (`-` for stdout)
    --baseline <FILE>    diff surviving findings against a committed
                         baseline report: new findings fail, stale
                         baseline entries fail (regenerate with
                         --write-baseline)
    --write-baseline <FILE>
                         write the current surviving findings as the new
                         baseline and exit clean
    -h, --help           this text
";

fn main() -> ExitCode {
    let mut self_test = false;
    let mut root = PathBuf::from(".");
    let mut allowlist: Option<PathBuf> = None;
    let mut show_allowed = false;
    let mut json_out: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--self-test" => self_test = true,
            "--show-allowed" => show_allowed = true,
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "--allowlist" => match args.next() {
                Some(v) => allowlist = Some(PathBuf::from(v)),
                None => return usage_error("--allowlist needs a value"),
            },
            "--json" => match args.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage_error("--json needs a value"),
            },
            "--baseline" => match args.next() {
                Some(v) => baseline = Some(PathBuf::from(v)),
                None => return usage_error("--baseline needs a value"),
            },
            "--write-baseline" => match args.next() {
                Some(v) => write_baseline = Some(PathBuf::from(v)),
                None => return usage_error("--write-baseline needs a value"),
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if self_test {
        return match selftest::run() {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(report) => {
                eprintln!("{report}");
                eprintln!("newtop-analyze: SELF-TEST FAILED — a rule regressed");
                ExitCode::FAILURE
            }
        };
    }

    let allow_path = allowlist.unwrap_or_else(|| root.join("analyze.allow"));
    let entries = if allow_path.exists() {
        let text = match std::fs::read_to_string(&allow_path) {
            Ok(t) => t,
            Err(e) => return usage_error(&format!("reading {}: {e}", allow_path.display())),
        };
        match allow::parse(&text) {
            Ok(e) => e,
            Err(e) => return usage_error(&e),
        }
    } else {
        Vec::new()
    };

    let analysis = match analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => return usage_error(&format!("analyzing workspace: {e}")),
    };
    let total = analysis.findings.len();

    let (suppressed, surviving) = match allow::apply(analysis.findings, &entries) {
        Ok(split) => split,
        Err(stale) => return usage_error(&stale),
    };

    let json = report::to_json(&surviving, &analysis.warnings);
    if let Some(path) = &write_baseline {
        if let Err(e) = std::fs::write(path, &json) {
            return usage_error(&format!("writing baseline {}: {e}", path.display()));
        }
        println!(
            "newtop-analyze: baseline {} written ({} finding(s))",
            path.display(),
            surviving.len()
        );
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &json_out {
        if path.as_os_str() == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(path, &json) {
            return usage_error(&format!("writing report {}: {e}", path.display()));
        }
    }

    if show_allowed {
        for f in &suppressed {
            println!(
                "allowed  [{}] {}:{} in {}: {}",
                f.rule, f.file, f.line, f.func, f.message
            );
        }
    }
    for w in &analysis.warnings {
        println!("warning: {w}");
    }

    // Baseline mode: the diff is the verdict, not the raw finding count.
    if let Some(path) = &baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return usage_error(&format!("reading baseline {}: {e}", path.display())),
        };
        let base_ids = report::baseline_ids(&text);
        let cur_ids = report::finding_ids(&surviving);
        let (new, fixed) = report::diff(&cur_ids, &base_ids);
        for (f, id) in surviving.iter().zip(&cur_ids) {
            if new.contains(id) {
                println!(
                    "NEW FINDING [{}] {}:{} in {}: {}\n  id: {id}",
                    f.rule, f.file, f.line, f.func, f.message
                );
            }
        }
        for id in &fixed {
            println!("STALE BASELINE: `{id}` is no longer produced — a finding was fixed; regenerate with --write-baseline");
        }
        println!(
            "newtop-analyze: {total} finding(s), {} allowlisted ({} entries), {} baselined, {} new, {} stale",
            suppressed.len(),
            entries.len(),
            base_ids.len(),
            new.len(),
            fixed.len(),
        );
        return if new.is_empty() && fixed.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for f in &surviving {
        println!(
            "VIOLATION [{}] {}:{} in {}: {}",
            f.rule, f.file, f.line, f.func, f.message
        );
    }
    println!(
        "newtop-analyze: {total} finding(s), {} allowlisted ({} entries), {} surviving",
        suppressed.len(),
        entries.len(),
        surviving.len(),
    );
    if surviving.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("newtop-analyze: {msg}");
    ExitCode::from(2)
}
